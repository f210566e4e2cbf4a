"""Fault injection for intra-query parallel matching.

Every way the process pool can fail a match must end in the documented
fallback — the in-process sequential engine, with byte-identical
embeddings — and leave nothing behind: no leased cancel slot, no
``/dev/shm`` segment, no broken pool serving the next match. Each case
drives the fault to completion before it matches (slots leased, worker
processes confirmed dead), so no sleep or timing decides the outcome.
"""

import os
import signal
from multiprocessing.connection import wait as wait_for_sentinels

import pytest

from repro.core.api import match
from repro.graph.generators import erdos_renyi_graph
from repro.graph.query_gen import extract_query
from repro.parallel import MAX_CANCEL_SLOTS, get_pool, shutdown_pools

ALGORITHM = "GQL-opt"
MATCH_LIMIT = 500_000  # above the workload's match count: never capped
WORKERS = 2


def _shm_names():
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _kill_workers(pool):
    """SIGKILL every worker process of ``pool`` and wait until all are dead."""
    procs = list(pool._executor._processes.values())
    assert procs, "the pool has no worker processes to kill"
    for proc in procs:
        os.kill(proc.pid, signal.SIGKILL)
    # A sentinel turns ready once its process has exited; waiting on it
    # does not reap the child, which stays the executor's job.
    pending = [proc.sentinel for proc in procs]
    while pending:
        ready = wait_for_sentinels(pending, timeout=60)
        assert ready, "killed workers did not exit"
        pending = [s for s in pending if s not in ready]


def _match(workload, **kwargs):
    query, data = workload
    options = dict(
        algorithm=ALGORITHM, match_limit=MATCH_LIMIT, store_limit=MATCH_LIMIT
    )
    options.update(kwargs)
    return match(query, data, **options)


def _assert_sequential_fallback(result, sequential):
    assert "parallel.matches" not in result.metrics.counters
    assert result.solved
    assert result.num_matches == sequential.num_matches
    assert result.embeddings == sequential.embeddings


@pytest.fixture(scope="module")
def workload():
    data = erdos_renyi_graph(1000, 16.0, 8, seed=7)
    query = extract_query(data, 10, seed=1)
    return query, data


@pytest.fixture(scope="module")
def sequential(workload):
    return _match(workload)


@pytest.fixture
def fresh_pools():
    """Start and end each case with no pool, so segment counts are exact."""
    shutdown_pools()
    yield
    shutdown_pools()


class TestCancelSlotExhaustion:
    def test_falls_back_and_frees_every_slot(
        self, workload, sequential, fresh_pools
    ):
        before = _shm_names()
        pool = get_pool(WORKERS)
        leased = [pool.acquire_slot() for _ in range(MAX_CANCEL_SLOTS)]
        try:
            assert None not in leased
            assert pool.acquire_slot() is None
            result = _match(workload, n_workers=WORKERS)
        finally:
            for slot in leased:
                pool.release_slot(slot)
        assert result.metrics.counters.get("parallel.slot_exhausted") == 1
        _assert_sequential_fallback(result, sequential)
        # The fallback leased nothing: every slot can be taken again.
        again = [pool.acquire_slot() for _ in range(MAX_CANCEL_SLOTS)]
        try:
            assert None not in again
            assert len(set(again)) == MAX_CANCEL_SLOTS
        finally:
            for slot in again:
                pool.release_slot(slot)
        # The same pool still serves parallel matches.
        after = _match(workload, n_workers=WORKERS, store_limit=0)
        assert after.metrics.counters.get("parallel.matches") == 1
        assert get_pool(WORKERS) is pool
        shutdown_pools()
        assert not (_shm_names() - before)


class TestKilledWorkers:
    def test_idle_workers_killed_before_match(
        self, workload, sequential, fresh_pools
    ):
        before = _shm_names()
        warm = _match(workload, n_workers=WORKERS, match_limit=1000)
        assert warm.metrics.counters.get("parallel.matches") == 1
        pool = get_pool(WORKERS)
        _kill_workers(pool)

        _assert_sequential_fallback(
            _match(workload, n_workers=WORKERS), sequential
        )

        # The broken pool is replaced on the next match, and its cancel
        # flag segment is unlinked: only the fresh pool's remains.
        fresh = _match(workload, n_workers=WORKERS, store_limit=0)
        assert fresh.metrics.counters.get("parallel.matches") == 1
        assert get_pool(WORKERS) is not pool
        assert len(_shm_names() - before) == 1
        shutdown_pools()
        assert not (_shm_names() - before)

    def test_workers_killed_during_fanout(
        self, workload, sequential, fresh_pools
    ):
        before = _shm_names()
        pool = get_pool(WORKERS)
        killed = []

        def kill_once():
            # Polled by the parent while chunks are in flight; also by the
            # sequential fallback's engine, which must run to completion.
            if not killed:
                killed.append(True)
                _kill_workers(pool)
            return False

        result = _match(workload, n_workers=WORKERS, cancel=kill_once)
        assert killed
        _assert_sequential_fallback(result, sequential)

        fresh = _match(workload, n_workers=WORKERS, store_limit=0)
        assert fresh.metrics.counters.get("parallel.matches") == 1
        assert get_pool(WORKERS) is not pool
        shutdown_pools()
        assert not (_shm_names() - before)
