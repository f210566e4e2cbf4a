"""Micro-benchmarks of the intersection kernels (pytest-benchmark proper).

These run multiple rounds (unlike the experiment modules) and give stable
relative numbers for merge vs galloping vs hybrid vs bitmap on the shapes
the enumeration actually produces: similar-size lists, skewed lists, and
dense neighborhoods.

Run directly (``python benchmarks/bench_kernels.py``) to time the
registered kernel *backends* (scalar vs numpy vs bitset) on 10k-element
sorted arrays and write ``BENCH_kernels.json`` (also copied to
``benchmarks/results/``).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # standalone run: make src/ importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs.schema import BENCH_KERNELS_SCHEMA_VERSION, validate_bench_kernels
from repro.utils.kernels import (
    BitmapKernel,
    QFilterKernel,
    get_kernel,
    intersect_galloping,
    intersect_hybrid,
    intersect_merge,
)

_RNG = np.random.default_rng(7)


def _sorted_sample(universe: int, size: int):
    return sorted(_RNG.choice(universe, size=size, replace=False).tolist())


SIMILAR_A = _sorted_sample(4000, 400)
SIMILAR_B = _sorted_sample(4000, 400)
SKEWED_SMALL = _sorted_sample(40000, 25)
SKEWED_LARGE = _sorted_sample(40000, 4000)
DENSE_A = _sorted_sample(1200, 700)
DENSE_B = _sorted_sample(1200, 700)


def bench_merge_similar(benchmark):
    benchmark(intersect_merge, SIMILAR_A, SIMILAR_B)


def bench_galloping_similar(benchmark):
    benchmark(intersect_galloping, SIMILAR_A, SIMILAR_B)


def bench_hybrid_similar(benchmark):
    benchmark(intersect_hybrid, SIMILAR_A, SIMILAR_B)


def bench_merge_skewed(benchmark):
    benchmark(intersect_merge, SKEWED_SMALL, SKEWED_LARGE)


def bench_galloping_skewed(benchmark):
    benchmark(intersect_galloping, SKEWED_SMALL, SKEWED_LARGE)


def bench_hybrid_skewed(benchmark):
    benchmark(intersect_hybrid, SKEWED_SMALL, SKEWED_LARGE)


def bench_bitmap_dense_warm(benchmark):
    """Bitmap kernel with the layout already built (QFilter's steady state)."""
    index = BitmapKernel()
    index.intersect(DENSE_A, DENSE_B)  # warm the cache
    benchmark(index.intersect, DENSE_A, DENSE_B)


def bench_hybrid_dense(benchmark):
    benchmark(intersect_hybrid, DENSE_A, DENSE_B)


def bench_bitmap_sparse_cold(benchmark):
    """Bitmap kernel paying the encode cost every call (sparse worst case)."""

    def cold():
        BitmapKernel().intersect(SKEWED_SMALL, SKEWED_LARGE)

    benchmark(cold)


def bench_bsr_dense_warm(benchmark):
    """BSR (QFilter) kernel with the layout already built, dense sets."""
    index = QFilterKernel()
    index.intersect(DENSE_A, DENSE_B)  # warm the cache
    benchmark(index.intersect, DENSE_A, DENSE_B)


def bench_bsr_skewed_warm(benchmark):
    """BSR kernel on scattered values: ~1 element per block, pure overhead."""
    index = QFilterKernel()
    index.intersect(SKEWED_SMALL, SKEWED_LARGE)
    benchmark(index.intersect, SKEWED_SMALL, SKEWED_LARGE)


def bench_bsr_sparse_cold(benchmark):
    """BSR kernel paying the encode cost every call."""

    def cold():
        QFilterKernel().intersect(SKEWED_SMALL, SKEWED_LARGE)

    benchmark(cold)


# ----------------------------------------------------------------------
# Kernel backends (scalar vs numpy vs bitset) on array inputs
# ----------------------------------------------------------------------

SIMILAR_A_ARR = np.asarray(SIMILAR_A, dtype=np.int64)
SIMILAR_B_ARR = np.asarray(SIMILAR_B, dtype=np.int64)
SKEWED_SMALL_ARR = np.asarray(SKEWED_SMALL, dtype=np.int64)
SKEWED_LARGE_ARR = np.asarray(SKEWED_LARGE, dtype=np.int64)


def bench_backend_scalar_similar(benchmark):
    kernel = get_kernel("scalar")
    benchmark(kernel.intersect, SIMILAR_A_ARR, SIMILAR_B_ARR)


def bench_backend_numpy_similar(benchmark):
    kernel = get_kernel("numpy")
    benchmark(kernel.intersect, SIMILAR_A_ARR, SIMILAR_B_ARR)


def bench_backend_numpy_skewed(benchmark):
    """numpy galloping: batched searchsorted of the small into the large."""
    kernel = get_kernel("numpy")
    benchmark(kernel.intersect, SKEWED_SMALL_ARR, SKEWED_LARGE_ARR)


def bench_backend_bitset_similar_warm(benchmark):
    """Packed-uint64 AND with encodings already cached."""
    kernel = get_kernel("bitset")
    kernel.intersect(SIMILAR_A_ARR, SIMILAR_B_ARR)  # warm the cache
    benchmark(kernel.intersect, SIMILAR_A_ARR, SIMILAR_B_ARR)


# ----------------------------------------------------------------------
# Standalone backend shoot-out: writes BENCH_kernels.json
# ----------------------------------------------------------------------

#: The acceptance micro-benchmark: 10k-element sorted arrays drawn from a
#: 100k universe (dense enough that merge dominates the scalar hybrid).
SHOOTOUT_UNIVERSE = 100_000
SHOOTOUT_SIZE = 10_000


def _time_per_call(fn, *args, repeat: int = 5, number: int = 10) -> float:
    """Best-of-``repeat`` mean seconds per call over ``number`` calls."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(number):
            fn(*args)
        best = min(best, (time.perf_counter() - start) / number)
    return best


def run_backend_shootout(
    universe: int = SHOOTOUT_UNIVERSE, size: int = SHOOTOUT_SIZE
) -> dict:
    """Time each registered backend's hybrid intersect on the 10k arrays.

    The payload is stamped with ``schema_version`` and the resolved
    backend name per registry entry (``kernels``), so downstream BENCH
    deltas are attributable to a concrete backend; see
    :func:`repro.obs.schema.validate_bench_kernels` for the contract.
    """
    rng = np.random.default_rng(7)
    a = np.sort(rng.choice(universe, size=size, replace=False)).astype(np.int64)
    b = np.sort(rng.choice(universe, size=size, replace=False)).astype(np.int64)

    timings = {}
    resolved = {}
    for name in ("scalar", "numpy", "bitset"):
        kernel = get_kernel(name)
        resolved[name] = kernel.name
        kernel.intersect(a, b)  # warm caches / JIT-free sanity check
        timings[name] = _time_per_call(kernel.intersect, a, b)

    payload = {
        "schema_version": BENCH_KERNELS_SCHEMA_VERSION,
        "benchmark": "kernel-backend-shootout",
        "universe": universe,
        "array_size": size,
        "kernels": resolved,
        "seconds_per_call": timings,
        "speedup_numpy_vs_scalar": timings["scalar"] / timings["numpy"],
        "speedup_bitset_vs_scalar": timings["scalar"] / timings["bitset"],
    }
    validate_bench_kernels(payload)
    return payload


def main() -> int:
    results = run_backend_shootout()
    payload = json.dumps(results, indent=2) + "\n"
    out = Path("BENCH_kernels.json")
    out.write_text(payload)
    results_dir = Path(__file__).resolve().parent / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "BENCH_kernels.json").write_text(payload)
    print(payload, end="")
    print(f"wrote {out.resolve()}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
