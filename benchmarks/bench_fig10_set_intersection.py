"""Figure 10: Hybrid vs QFilter-style intersection in the enumeration.

The optimized GQL algorithm runs with the paper's hybrid merge/galloping
kernel (``Hybrid``, `ScalarKernel` — pinned, so the ``auto`` backend
choice never stands in for it) and with two models of QFilter, which
bracket the real SIMD implementation from opposite sides in pure Python:

* ``QFilter/BSR`` (`QFilterKernel`) — the faithful base-and-state layout;
  Python pays its per-block merge in interpreted ops, exposing the
  *overhead* side (the paper's sparse-graph losses);
* ``QFilter/bitmap`` (`BitmapKernel`) — one big-int ``&`` per
  intersection; near-free per element, exposing the *throughput* side
  (the paper's dense-graph wins).

Paper findings to reproduce in shape: QFilter wins on the dense graphs
(eu, hu) where each operation covers many set elements — visible in the
bitmap series — and loses on sparse graphs to layout overhead — visible
in the BSR series.
"""

from __future__ import annotations

from typing import Dict, List

from conftest import bench_queries
from shared import ALL_DATASETS, DEFAULT_SIZE, SIZE_LADDER, query_set, run

from repro.core import get_algorithm
from repro.core.spec import AlgorithmSpec
from repro.enumeration import IntersectionLC
from repro.study import format_series
from repro.utils.kernels import BitmapKernel, QFilterKernel, ScalarKernel

import dataclasses


def _kernel_spec(name: str, kernel) -> AlgorithmSpec:
    return dataclasses.replace(
        get_algorithm("GQL-opt"), name=name, lc=IntersectionLC(kernel=kernel)
    )


def _variants():
    # Backend instances: an explicit kernel is never swapped for the
    # session's auto choice, and the caching kernels intersect in their
    # packed domain, encode-caching only the auxiliary lists.
    return {
        "Hybrid": _kernel_spec("GQL-hybrid", ScalarKernel()),
        "QFilter/BSR": _kernel_spec("GQL-bsr", QFilterKernel()),
        "QFilter/bitmap": _kernel_spec("GQL-bitmap", BitmapKernel()),
    }


def _experiment() -> str:
    blocks: List[str] = []

    variants = _variants()
    series: Dict[str, List[float]] = {name: [] for name in variants}
    for key in ALL_DATASETS:
        qs = query_set(key, DEFAULT_SIZE[key], "dense")
        for name, spec in variants.items():
            series[name].append(run(spec, key, qs).avg_enumeration_ms)
    blocks.append(
        format_series(
            "Figure 10(a) — optimized GQL enumeration time (ms) by intersection kernel",
            ALL_DATASETS,
            series,
        )
    )

    sizes = SIZE_LADDER["yt"]
    variants = _variants()
    series_b: Dict[str, List[float]] = {name: [] for name in variants}
    for size in sizes:
        qs = query_set("yt", size, "dense" if size > 4 else None)
        for name, spec in variants.items():
            series_b[name].append(run(spec, "yt", qs).avg_enumeration_ms)
    blocks.append(
        format_series(
            "Figure 10(b) — dense queries on yt, |V(q)| varied",
            sizes,
            series_b,
        )
    )

    blocks.append(
        f"[{bench_queries()} queries/set] paper: QFilter wins on dense eu/hu "
        "(the bitmap series), loses on sparse graphs to layout overhead "
        "(the BSR series); pure Python cannot show both in one kernel."
    )
    return "\n\n".join(blocks)


def bench_fig10_set_intersection(benchmark, report):
    table = benchmark.pedantic(_experiment, rounds=1, iterations=1)
    report(table)
