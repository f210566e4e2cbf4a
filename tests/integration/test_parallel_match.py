"""Determinism and lifecycle contract of intra-query parallel matching.

The fan-out promises results *byte-identical* to the sequential frame
machine: same embeddings in the same order, same match counts, and —
because the chunk grid is fixed at :data:`DEFAULT_CHUNKS` regardless of
the worker count — identical merged counters across ``n_workers``.
These tests pin that contract, the cancellation path, and the
shared-memory lifecycle (publish on first parallel match, unlink on
session close, nothing leaked by the one-shot API). The early-stop cases
pin that a capped match stops dispatching once its finished prefix
reaches the cap, yet merges exactly what merging every window would.
"""

import os

import pytest

from repro.core.api import match
from repro.core.plan import compile_plan, run_plan
from repro.core.session import MatchSession
from repro.enumeration.support import DEADLINE_STRIDE
from repro.graph.generators import erdos_renyi_graph
from repro.graph.query_gen import extract_query
from repro.obs import Tracer, tracing
from repro.parallel import (
    DEFAULT_CHUNKS,
    MAX_CANCEL_SLOTS,
    ChunkResult,
    ParallelContext,
    SharedGraph,
    chunk_bounds,
    get_pool,
    merge_chunks,
)

ALGORITHM = "GQL-opt"  # static order, no failing sets: counters must agree
MATCH_LIMIT = 500_000  # far above the workload's match count — no capping
WORKER_COUNTS = (1, 2, 4)


def _shm_names():
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


@pytest.fixture(scope="module")
def workload():
    data = erdos_renyi_graph(1000, 16.0, 8, seed=7)
    query = extract_query(data, 10, seed=1)
    return query, data


@pytest.fixture(scope="module")
def sequential(workload):
    query, data = workload
    return match(
        query, data, algorithm=ALGORITHM,
        match_limit=MATCH_LIMIT, store_limit=MATCH_LIMIT,
    )


class TestDeterminism:
    @pytest.mark.parametrize("n_workers", WORKER_COUNTS)
    def test_byte_identical_across_worker_counts(
        self, workload, sequential, n_workers
    ):
        query, data = workload
        result = match(
            query, data, algorithm=ALGORITHM,
            match_limit=MATCH_LIMIT, store_limit=MATCH_LIMIT,
            n_workers=n_workers,
        )
        assert result.num_matches == sequential.num_matches
        assert result.solved
        assert result.embeddings == sequential.embeddings

    @pytest.mark.parametrize("n_workers", WORKER_COUNTS)
    def test_merged_counters_match_sequential(
        self, workload, sequential, n_workers
    ):
        # GQL-opt prunes nothing at the root (no failing sets), and the
        # workload finishes under the cap, so every chunk-local counter
        # must sum exactly to the sequential total.
        query, data = workload
        result = match(
            query, data, algorithm=ALGORITHM,
            match_limit=MATCH_LIMIT, store_limit=0,
            n_workers=n_workers,
        )
        assert result.stats == sequential.stats

    def test_repeated_runs_are_stable(self, workload):
        query, data = workload
        runs = [
            match(
                query, data, algorithm=ALGORITHM,
                match_limit=MATCH_LIMIT, store_limit=MATCH_LIMIT,
                n_workers=2,
            )
            for _ in range(2)
        ]
        assert runs[0].embeddings == runs[1].embeddings
        assert runs[0].stats == runs[1].stats

    def test_parallel_path_actually_ran(self, workload):
        query, data = workload
        result = match(
            query, data, algorithm=ALGORITHM,
            match_limit=MATCH_LIMIT, store_limit=0, n_workers=2,
        )
        counters = result.metrics.to_dict()["counters"]
        assert counters.get("parallel.matches") == 1
        assert counters.get("parallel.chunks") == DEFAULT_CHUNKS

    def test_env_var_enables_pool(self, workload, monkeypatch):
        query, data = workload
        monkeypatch.setenv("REPRO_WORKERS", "2")
        result = match(
            query, data, algorithm=ALGORITHM,
            match_limit=MATCH_LIMIT, store_limit=0,
        )
        counters = result.metrics.to_dict()["counters"]
        assert counters.get("parallel.matches") == 1

    def test_match_limit_truncation_matches_sequential(
        self, workload, sequential
    ):
        # The cap lands inside some middle chunk; the merged prefix must
        # still be the sequential prefix.
        query, data = workload
        limit = sequential.num_matches // 2
        seq = match(
            query, data, algorithm=ALGORITHM,
            match_limit=limit, store_limit=limit,
        )
        par = match(
            query, data, algorithm=ALGORITHM,
            match_limit=limit, store_limit=limit, n_workers=2,
        )
        assert par.num_matches == seq.num_matches == limit
        assert par.solved
        assert par.embeddings == sequential.embeddings[:limit]


def _in_process_windows(plan, query, data, prepared, match_limit):
    """Every root window run in this process, as ChunkResults."""
    roots = prepared.candidates.size(prepared.order[0])
    chunks = []
    for index, window in enumerate(chunk_bounds(roots, DEFAULT_CHUNKS)):
        result, _ = run_plan(
            plan, query, data, prepared=prepared,
            match_limit=match_limit, store_limit=match_limit,
            root_window=window,
        )
        chunks.append(
            ChunkResult(
                index=index,
                num_matches=result.num_matches,
                solved=result.solved,
                embeddings=list(result.embeddings),
                stats=result.stats,
            )
        )
    return chunks


@pytest.fixture(scope="module")
def compiled(workload):
    query, data = workload
    plan = compile_plan(ALGORITHM, query, data)
    _, prepared = run_plan(plan, query, data, match_limit=1, store_limit=0)
    return plan, prepared


@pytest.fixture(scope="module")
def chunk0_cap(workload, compiled):
    """A match cap that lands strictly inside the first root window."""
    query, data = workload
    plan, prepared = compiled
    first = _in_process_windows(plan, query, data, prepared, MATCH_LIMIT)[0]
    assert first.solved and first.num_matches >= 2
    return first.num_matches // 2


class TestEarlyStop:
    @pytest.mark.parametrize("n_workers", WORKER_COUNTS)
    def test_cap_inside_first_chunk(
        self, workload, sequential, compiled, chunk0_cap, n_workers
    ):
        query, data = workload
        plan, prepared = compiled
        shared = SharedGraph(data)
        ctx = ParallelContext(n_workers, lambda: shared.handle)
        try:
            result, _ = run_plan(
                plan, query, data, prepared=prepared,
                match_limit=chunk0_cap, store_limit=chunk0_cap,
                parallel=ctx,
            )
        finally:
            shared.unlink()
        assert result.metrics.counters.get("parallel.matches") == 1
        assert result.solved
        assert result.num_matches == chunk0_cap
        assert result.embeddings == sequential.embeddings[:chunk0_cap]
        # Counters equal the merge of all 16 windows — what the fan-out
        # returned before dispatch stopped early — for every worker count.
        full = merge_chunks(
            _in_process_windows(plan, query, data, prepared, chunk0_cap),
            chunk0_cap,
            chunk0_cap,
        )
        assert result.stats == full.stats
        # Only the settled prefix — chunk 0 — was merged and timed.
        assert len(ctx.last_chunk_seconds) == 1 < DEFAULT_CHUNKS

    def test_uncapped_match_after_settled_one(
        self, workload, sequential, chunk0_cap
    ):
        # The settled match preempts its tail through its cancel slot;
        # that flag must be gone before the slot serves the next match.
        # Every other slot is held, so both matches lease the same one.
        query, data = workload
        pool = get_pool(2)
        held = [pool.acquire_slot() for _ in range(MAX_CANCEL_SLOTS - 1)]
        try:
            assert None not in held
            capped = match(
                query, data, algorithm=ALGORITHM,
                match_limit=chunk0_cap, store_limit=0, n_workers=2,
            )
            full = match(
                query, data, algorithm=ALGORITHM,
                match_limit=MATCH_LIMIT, store_limit=MATCH_LIMIT,
                n_workers=2,
            )
        finally:
            for slot in held:
                pool.release_slot(slot)
        assert capped.metrics.counters.get("parallel.matches") == 1
        assert capped.solved and capped.num_matches == chunk0_cap
        assert full.metrics.counters.get("parallel.matches") == 1
        assert full.solved
        assert full.num_matches == sequential.num_matches
        assert full.embeddings == sequential.embeddings

    def test_fanout_span_reports_chunks_run(self, workload, chunk0_cap):
        query, data = workload
        tracer = Tracer()
        with tracing(tracer):
            for limit in (chunk0_cap, MATCH_LIMIT):
                match(
                    query, data, algorithm=ALGORITHM,
                    match_limit=limit, store_limit=0, n_workers=1,
                )
        capped, full = [
            s.attrs for s in tracer.spans if s.name == "parallel.fanout"
        ]
        assert capped["chunks"] == full["chunks"] == DEFAULT_CHUNKS
        # One worker runs chunks in submission order, so chunk 0 settles
        # the prefix before anything past the first two is submitted.
        assert capped["chunks_run"] == 2
        assert full["chunks_run"] == DEFAULT_CHUNKS


class TestCancellation:
    def test_cancel_stops_all_workers_quickly(self, workload, sequential):
        query, data = workload
        result = match(
            query, data, algorithm=ALGORITHM,
            match_limit=MATCH_LIMIT, store_limit=0,
            n_workers=2, cancel=lambda: True,
        )
        assert not result.solved
        # The flag is stored before the workers pass their first
        # deadline stride, so no chunk runs meaningfully past one
        # stride's worth of search nodes — and the whole merged run
        # stays far below the full sequential search.
        bound = DEFAULT_CHUNKS * 2 * DEADLINE_STRIDE
        assert result.stats.recursion_calls < bound
        assert result.stats.recursion_calls < sequential.stats.recursion_calls

    def test_deadline_expires_in_workers(self, workload):
        query, data = workload
        result = match(
            query, data, algorithm=ALGORITHM,
            match_limit=MATCH_LIMIT, store_limit=0,
            n_workers=2, time_limit=1e-6,
        )
        assert not result.solved


class TestLifecycle:
    def test_session_close_unlinks_segment(self, workload):
        query, data = workload
        before = _shm_names()
        session = MatchSession(data, algorithm=ALGORITHM, n_workers=2)
        session.match(query, match_limit=1000, store_limit=0)
        during = _shm_names() - before
        assert during, "parallel match should have published the graph"
        session.close()
        assert not (_shm_names() - before)
        session.close()  # idempotent

    def test_oneshot_api_leaves_nothing_behind(self, workload):
        query, data = workload
        before = _shm_names()
        match(
            query, data, algorithm=ALGORITHM,
            match_limit=1000, store_limit=0, n_workers=2,
        )
        assert not (_shm_names() - before)

    def test_sequential_session_never_publishes(self, workload):
        query, data = workload
        before = _shm_names()
        session = MatchSession(data, algorithm=ALGORITHM)
        session.match(query, match_limit=1000, store_limit=0)
        assert not (_shm_names() - before)
        session.close()


class TestFallback:
    def test_ineligible_plan_falls_back_to_sequential(self, workload):
        # The adaptive DP-iso selector has no fixed root list: the match
        # must silently run sequentially and still be correct.
        query, data = workload
        seq = match(
            query, data, algorithm="DP",
            match_limit=5000, store_limit=5000,
        )
        par = match(
            query, data, algorithm="DP",
            match_limit=5000, store_limit=5000, n_workers=2,
        )
        assert par.num_matches == seq.num_matches
        assert par.embeddings == seq.embeddings

    def test_recursive_engine_falls_back(self, workload):
        from repro.enumeration.engines import enable_recursive_baseline

        enable_recursive_baseline()
        query, data = workload
        seq = match(
            query, data, algorithm=ALGORITHM, engine="recursive",
            match_limit=5000, store_limit=5000,
        )
        par = match(
            query, data, algorithm=ALGORITHM, engine="recursive",
            match_limit=5000, store_limit=5000, n_workers=2,
        )
        assert par.num_matches == seq.num_matches
        assert par.embeddings == seq.embeddings
        assert (
            "parallel.matches" not in par.metrics.to_dict()["counters"]
        )
