"""Unit tests for the fan-out building blocks (repro.parallel.executor)."""

from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.enumeration.stats import EnumerationStats
from repro.parallel import (
    DEFAULT_CHUNKS,
    ParallelContext,
    ParallelUnavailable,
    chunk_bounds,
    merge_chunks,
    resolve_workers,
)
from repro.parallel.worker import ChunkResult


def make_chunk(index, embeddings, solved=True, calls=None):
    stats = EnumerationStats()
    # Every chunk pays the one root push the sequential run pays once.
    stats.recursion_calls = (
        calls if calls is not None else len(embeddings) + 1
    )
    return ChunkResult(
        index=index,
        num_matches=len(embeddings),
        solved=solved,
        embeddings=list(embeddings),
        stats=stats,
    )


class TestChunkBounds:
    def test_covers_range_in_order(self):
        bounds = chunk_bounds(100, DEFAULT_CHUNKS)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == 100
        for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
            assert hi == lo

    def test_never_more_chunks_than_roots(self):
        assert len(chunk_bounds(3, 16)) == 3
        assert all(hi - lo == 1 for lo, hi in chunk_bounds(3, 16))

    def test_all_windows_non_empty(self):
        for roots in (1, 2, 15, 16, 17, 1000):
            for lo, hi in chunk_bounds(roots, 16):
                assert hi > lo

    def test_independent_of_worker_count(self):
        # The chunk grid depends on roots alone — the determinism
        # contract that makes results invariant across n_workers.
        assert chunk_bounds(97, 16) == chunk_bounds(97, 16)


class TestMergeChunks:
    def test_concatenates_in_index_order(self):
        chunks = [
            make_chunk(1, [(3,), (4,)]),
            make_chunk(0, [(1,), (2,)]),
        ]
        outcome = merge_chunks(chunks, match_limit=None, store_limit=10)
        assert outcome.embeddings == [(1,), (2,), (3,), (4,)]
        assert outcome.num_matches == 4
        assert outcome.solved

    def test_root_push_correction(self):
        chunks = [make_chunk(i, [(i,)]) for i in range(4)]
        outcome = merge_chunks(chunks, match_limit=None, store_limit=10)
        # Each chunk reported len+1 = 2 calls; sequential pays the root
        # push once, so the merged total is 4*2 - 3.
        assert outcome.stats.recursion_calls == 5

    def test_match_limit_truncates_inside_boundary_chunk(self):
        chunks = [
            make_chunk(0, [(1,), (2,)]),
            make_chunk(1, [(3,), (4,)]),
            make_chunk(2, [(5,)]),
        ]
        outcome = merge_chunks(chunks, match_limit=3, store_limit=10)
        assert outcome.num_matches == 3
        assert outcome.embeddings == [(1,), (2,), (3,)]
        assert outcome.solved

    def test_limit_satisfied_beats_unsolved(self):
        # A chunk that reached the limit *and* later died on budget
        # reports solved=True: the sequential run would have stopped at
        # the limit before ever hitting the budget.
        chunks = [
            make_chunk(0, [(1,), (2,)], solved=False),
            make_chunk(1, [(3,)]),
        ]
        outcome = merge_chunks(chunks, match_limit=2, store_limit=10)
        assert outcome.solved
        assert outcome.num_matches == 2

    def test_unsolved_chunk_ends_merge(self):
        chunks = [
            make_chunk(0, [(1,)]),
            make_chunk(1, [(2,)], solved=False),
            make_chunk(2, [(3,)]),
        ]
        outcome = merge_chunks(chunks, match_limit=None, store_limit=10)
        assert not outcome.solved
        assert outcome.embeddings == [(1,), (2,)]

    def test_store_limit_keeps_prefix(self):
        chunks = [
            make_chunk(0, [(1,), (2,)]),
            make_chunk(1, [(3,), (4,)]),
        ]
        outcome = merge_chunks(chunks, match_limit=None, store_limit=3)
        assert outcome.embeddings == [(1,), (2,), (3,)]
        assert outcome.num_matches == 4


class ScriptedPool:
    """A process-free stand-in for WorkerPool with scripted chunk fates.

    ``fates`` maps a chunk index to ``"done"`` (finishes at submit),
    ``"unsolved"`` (finishes at submit on budget death), ``"running"``
    (started; finishes unsolved once the match is flagged, or solved
    when chunk ``finish_when_submitted`` is submitted), ``"queued"``
    (never started, so cancellable) or ``"broken"`` (the pool died under
    it). Unlisted chunks are ``"done"``; a finished chunk carries
    ``matches[index]`` embeddings (default 1).
    """

    def __init__(self, fates=None, matches=None, finish_when_submitted=None):
        self.fates = fates or {}
        self.matches = matches or {}
        self.finish_when_submitted = finish_when_submitted
        self.futures = {}
        self.submitted = []
        self.running_at_submit = {}
        self.flagged = False
        self.broken = False

    def _result(self, index, solved=True):
        embeddings = [(index,)] * self.matches.get(index, 1)
        return make_chunk(index, embeddings, solved)

    def in_flight(self):
        return [i for i, f in self.futures.items() if not f.done()]

    def submit(self, fn, *args):
        index = args[3]
        self.running_at_submit[index] = self.in_flight()
        self.submitted.append(index)
        future = Future()
        self.futures[index] = future
        fate = self.fates.get(index, "done")
        if fate in ("done", "unsolved"):
            future.set_running_or_notify_cancel()
            future.set_result(self._result(index, fate == "done"))
        elif fate == "running":
            future.set_running_or_notify_cancel()
        elif fate == "broken":
            future.set_running_or_notify_cancel()
            future.set_exception(BrokenProcessPool("worker died"))
        if index == self.finish_when_submitted:
            for i in self.in_flight():
                if self.fates.get(i) == "running":
                    self.futures[i].set_result(self._result(i))
        return future

    def set_flag(self, slot):
        # Workers notice the flag at their next stride and stop unsolved.
        self.flagged = True
        for i in self.in_flight():
            if self.futures[i].running():
                self.futures[i].set_result(self._result(i, solved=False))


def dispatch(pool, n_workers, match_limit=None, chunks=DEFAULT_CHUNKS):
    ctx = ParallelContext(n_workers, handle_provider=None)
    bounds = [(i, i + 1) for i in range(chunks)]
    return ctx._dispatch(
        pool, None, None, None, bounds, match_limit, None, 100, 0, None
    )


class TestDispatch:
    @pytest.mark.parametrize("n_workers", (1, 2, 4))
    def test_uncapped_runs_every_chunk_in_order(self, n_workers):
        pool = ScriptedPool()
        prefix = dispatch(pool, n_workers)
        assert [c.index for c in prefix] == list(range(DEFAULT_CHUNKS))
        assert pool.submitted == list(range(DEFAULT_CHUNKS))
        assert not pool.flagged

    @pytest.mark.parametrize("n_workers", (1, 2, 4))
    def test_at_most_one_chunk_queued_beyond_the_workers(self, n_workers):
        pool = ScriptedPool(
            fates={0: "running"}, finish_when_submitted=DEFAULT_CHUNKS - 1
        )
        dispatch(pool, n_workers)
        for running in pool.running_at_submit.values():
            assert len(running) + 1 <= n_workers + 1

    def test_refills_while_the_prefix_is_stuck(self):
        # Chunk 0 runs long; later completions still free places that
        # are refilled, so every worker stays busy.
        pool = ScriptedPool(
            fates={0: "running"}, finish_when_submitted=DEFAULT_CHUNKS - 1
        )
        prefix = dispatch(pool, 2)
        assert 0 in pool.running_at_submit[DEFAULT_CHUNKS - 1]
        assert len(prefix) == DEFAULT_CHUNKS
        assert not pool.flagged

    def test_cap_settles_the_prefix_and_stops_the_tail(self):
        pool = ScriptedPool(
            fates={1: "running", 2: "queued"}, matches={0: 5}
        )
        prefix = dispatch(pool, 2, match_limit=5)
        assert [c.index for c in prefix] == [0]
        assert pool.submitted == [0, 1, 2]
        # The started chunk was preempted through the flag and awaited;
        # the queued one never ran.
        assert pool.flagged
        assert pool.futures[1].done()
        assert pool.futures[2].cancelled()

    def test_unsolved_chunk_settles_the_prefix(self):
        pool = ScriptedPool(fates={1: "unsolved"})
        prefix = dispatch(pool, 1)
        assert [c.index for c in prefix] == [0, 1]
        assert not prefix[-1].solved
        assert pool.submitted == [0, 1]

    def test_chunk_past_an_unfinished_prefix_does_not_settle(self):
        # Chunk 2 reaches the cap alone, but chunks 0-1 may still be what
        # the sequential run returns: dispatch must wait for them.
        pool = ScriptedPool(
            fates={0: "running"},
            matches={2: 5},
            finish_when_submitted=DEFAULT_CHUNKS - 1,
        )
        prefix = dispatch(pool, 2, match_limit=5)
        assert [c.index for c in prefix] == [0, 1, 2]
        assert pool.futures[0].result().solved

    def test_broken_pool_falls_back_after_draining(self):
        pool = ScriptedPool(fates={0: "running", 1: "broken"})
        with pytest.raises(ParallelUnavailable):
            dispatch(pool, 2)
        assert pool.broken
        assert all(
            f.done() for f in pool.futures.values() if not f.cancelled()
        )


class TestResolveWorkers:
    def test_none_defaults_to_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 0
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(None) == 3

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(2) == 2
        assert resolve_workers(0) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-1)

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "-2")
        with pytest.raises(ValueError):
            resolve_workers(None)
