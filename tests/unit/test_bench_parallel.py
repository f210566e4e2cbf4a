"""Unit tests for the parallel benchmark's BENCH_parallel.json contract.

The validator's contract — the speedup floor and every rejection — is
tested on payloads built from fixed chunk timings through the bench's
own ``greedy_makespan``, so no assertion depends on how loaded the host
is. One real tiny run still backs the properties that do not depend on
timing: identical embeddings, recorded chunk timings, no leaked
segments. ``main()`` validates every payload before writing it, so the
floor still gates each written ``BENCH_parallel.json``.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

from repro.obs import (
    BENCH_PARALLEL_SCHEMA_VERSION,
    MIN_PARALLEL_SPEEDUP,
    TraceSchemaError,
    validate_bench_parallel,
)

_BENCH_PATH = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "bench_parallel.py"
)

#: Sixteen equal chunks: a 4-worker greedy schedule runs 4x faster.
BALANCED_CHUNKS = [0.01] * 16
#: One root's subtree dwarfs the rest: the schedule is bound by it.
SKEWED_CHUNKS = [0.12] + [0.002] * 15


@pytest.fixture(scope="module")
def bench_module():
    spec = importlib.util.spec_from_file_location(
        "bench_parallel", _BENCH_PATH
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def payload(bench_module):
    # A real run at small scale. Its speedup depends on host load, so
    # only timing-free properties are asserted on it.
    return bench_module.run_parallel_benchmark(
        vertices=1_000,
        num_queries=2,
        repeats=1,
    )


def modeled_payload(bench_module, chunk_timings):
    """A modeled-speedup payload, one query per list of chunk seconds."""
    makespan = bench_module.greedy_makespan
    queries = []
    for seed, chunks in enumerate(chunk_timings):
        sequential = sum(chunks)
        queries.append(
            {
                "seed": seed,
                "num_matches": 100,
                "sequential_seconds": sequential,
                "chunk_seconds": list(chunks),
                "speedups": {
                    str(w): sequential / makespan(chunks, w)
                    for w in bench_module.WORKER_COUNTS
                },
                "embeddings_identical": True,
            }
        )
    workers = max(bench_module.WORKER_COUNTS)
    return {
        "schema_version": BENCH_PARALLEL_SCHEMA_VERSION,
        "benchmark": "parallel-enumeration",
        "host_cpus": 2,
        "speedup_source": "modeled",
        "workload": {
            "data_vertices": 1000,
            "query_vertices": 10,
            "num_queries": len(queries),
            "match_limit": 500_000,
            "chunks": bench_module.DEFAULT_CHUNKS,
        },
        "queries": queries,
        "overall_speedup_4_workers": (
            sum(sum(chunks) for chunks in chunk_timings)
            / sum(makespan(chunks, workers) for chunks in chunk_timings)
        ),
        "embeddings_identical": True,
        "shm_segments_leaked": 0,
    }


@pytest.fixture(scope="module")
def fixed_payload(bench_module):
    return modeled_payload(bench_module, [BALANCED_CHUNKS] * 2)


class TestGreedyMakespan:
    def test_single_worker_is_the_sum(self, bench_module):
        assert bench_module.greedy_makespan([3.0, 1.0, 2.0], 1) == 6.0

    def test_many_workers_bounded_by_longest(self, bench_module):
        times = [5.0, 1.0, 1.0, 1.0]
        assert bench_module.greedy_makespan(times, 4) == 5.0

    def test_balances_across_workers(self, bench_module):
        times = [4.0, 3.0, 3.0, 2.0]
        # Longest-first greedy: {4, 2} and {3, 3}.
        assert bench_module.greedy_makespan(times, 2) == 6.0


class TestPayload:
    def test_validates_and_is_json_serializable(self, payload, fixed_payload):
        validate_bench_parallel(fixed_payload)
        json.dumps(payload)

    def test_schema_stamp(self, payload):
        assert payload["schema_version"] == BENCH_PARALLEL_SCHEMA_VERSION
        assert payload["benchmark"] == "parallel-enumeration"

    def test_speedup_provenance_is_declared(self, payload):
        assert payload["speedup_source"] in ("measured", "modeled")
        if payload["speedup_source"] == "measured":
            assert payload["host_cpus"] >= 4

    def test_embeddings_identical(self, payload):
        assert payload["embeddings_identical"] is True
        assert all(q["embeddings_identical"] for q in payload["queries"])

    def test_clears_speedup_floor(self, fixed_payload):
        assert fixed_payload["overall_speedup_4_workers"] == pytest.approx(4.0)
        assert (
            fixed_payload["overall_speedup_4_workers"] >= MIN_PARALLEL_SPEEDUP
        )

    def test_no_shared_memory_leaked(self, payload):
        assert payload["shm_segments_leaked"] == 0

    def test_per_query_chunk_timings_recorded(self, payload):
        for entry in payload["queries"]:
            assert entry["chunk_seconds"]
            assert len(entry["chunk_seconds"]) <= payload["workload"]["chunks"]
            assert "4" in entry["speedups"]


class TestValidatorRejections:
    def test_wrong_schema_version(self, fixed_payload):
        bad = copy.deepcopy(fixed_payload)
        bad["schema_version"] = 99
        with pytest.raises(TraceSchemaError, match="schema_version"):
            validate_bench_parallel(bad)

    def test_speedup_below_floor(self, fixed_payload):
        bad = copy.deepcopy(fixed_payload)
        bad["overall_speedup_4_workers"] = 1.1
        with pytest.raises(TraceSchemaError, match="floor"):
            validate_bench_parallel(bad)

    def test_skewed_chunks_fall_below_floor(self, bench_module):
        bad = modeled_payload(bench_module, [SKEWED_CHUNKS] * 2)
        assert bad["overall_speedup_4_workers"] < MIN_PARALLEL_SPEEDUP
        with pytest.raises(TraceSchemaError, match="floor"):
            validate_bench_parallel(bad)

    def test_nonidentical_embeddings(self, fixed_payload):
        bad = copy.deepcopy(fixed_payload)
        bad["queries"][0]["embeddings_identical"] = False
        with pytest.raises(TraceSchemaError, match="embeddings_identical"):
            validate_bench_parallel(bad)

    def test_leaked_segments(self, fixed_payload):
        bad = copy.deepcopy(fixed_payload)
        bad["shm_segments_leaked"] = 2
        with pytest.raises(TraceSchemaError, match="shm_segments_leaked"):
            validate_bench_parallel(bad)

    def test_unknown_speedup_source(self, fixed_payload):
        bad = copy.deepcopy(fixed_payload)
        bad["speedup_source"] = "guessed"
        with pytest.raises(TraceSchemaError, match="speedup_source"):
            validate_bench_parallel(bad)

    def test_measured_requires_four_cpus(self, fixed_payload):
        bad = copy.deepcopy(fixed_payload)
        bad["speedup_source"] = "measured"
        bad["host_cpus"] = 1
        with pytest.raises(TraceSchemaError, match="CPUs"):
            validate_bench_parallel(bad)

    def test_missing_four_worker_speedup(self, fixed_payload):
        bad = copy.deepcopy(fixed_payload)
        del bad["queries"][0]["speedups"]["4"]
        with pytest.raises(TraceSchemaError, match="speedups"):
            validate_bench_parallel(bad)


class TestCheckedInPayload:
    def test_repo_payload_validates(self):
        path = _BENCH_PATH.parent.parent / "BENCH_parallel.json"
        payload = json.loads(path.read_text())
        validate_bench_parallel(payload)
