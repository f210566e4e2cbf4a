"""Per-layer metrics of a traced run, from spans and what the API returned.

Every metric is reported on every workload; a layer that does no work on
a workload reports 0 (no calls, no time). Span sums are restricted to
the timed window, except ``graph.store``, whose only work is the load at
start-up.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Mapping, Optional, Sequence

from perfbench.spans import LAYER_OF, LAYERS
from perfbench.stats import SpanRecord, percentile, self_time_by

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _hist_percentile(hist: Mapping[int, int], pct: float) -> float:
    """Nearest-rank percentile of a value -> count histogram (0 if empty)."""
    total = sum(hist.values())
    if total == 0:
        return 0.0
    rank = max(int(-(-pct * total // 100)), 1)
    seen = 0
    for value in sorted(hist):
        seen += hist[value]
        if seen >= rank:
            return float(value)
    return float(max(hist))


def _pct(values: Sequence[float], pct: float, short: List[str], name: str) -> float:
    """The percentile, or 0 with ``name`` added to ``short`` when the
    sample has too few values beyond it (or the layer did not run)."""
    value = percentile(values, pct)
    if value is None:
        short.append(name)
        return 0.0
    return value


def layer_metrics(
    spans: Sequence[SpanRecord],
    kernels: Mapping,
    window: tuple,
    serve: Mapping,
    overhead_ratio: float,
    short: Optional[List[str]] = None,
) -> Dict[str, float]:
    """Every per-layer metric of one traced run, by name.

    Percentiles without enough samples read 0 and are named in ``short``.

    ``serve`` holds the client-side samples: ``queue_ms``, ``execute_ms``,
    ``wire_ms``, ``mutate_ms`` lists and the server's ``stats`` dict.
    """
    lo, hi = window
    timed = [s for s in spans if s.start >= lo and s.end <= hi]
    by_name: Dict[str, List[SpanRecord]] = {}
    for s in timed:
        by_name.setdefault(s.name, []).append(s)

    def spans_of(*names: str) -> List[SpanRecord]:
        return [s for n in names for s in by_name.get(n, ())]

    def total_s(*names: str) -> float:
        return sum(s.duration for s in spans_of(*names))

    def attr_sum(name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) or 0 for s in spans_of(name))

    sessions = spans_of("MatchSession.match")

    def counter(key: str) -> int:
        return sum(s.attrs.get("counters", {}).get(key, 0) for s in sessions)

    own = self_time_by(timed, LAYER_OF)
    m: Dict[str, float] = {}
    short = [] if short is None else short

    hits, misses = counter("plan.cache_hit"), counter("plan.cache_miss")
    m["core.plan_hit_ratio"] = _ratio(hits, hits + misses)
    hits, misses = counter("plan.prep_hit"), counter("plan.prep_miss")
    m["core.prep_hit_ratio"] = _ratio(hits, hits + misses)
    m["core.prepare_s"] = total_s("prepare_query")
    m["core.self_s"] = own.get("core", 0.0)

    filters = spans_of("Filter.run")
    m["filtering.s"] = total_s("Filter.run")
    m["filtering.calls"] = len(filters)
    m["filtering.aux_s"] = total_s("AuxiliaryStructure.build")
    sizes = [s.attrs["candidates_avg"] for s in filters if "candidates_avg" in s.attrs]
    m["filtering.candidates_avg"] = statistics.fmean(sizes) if sizes else 0.0

    # adaptive_state orders the query itself; count the outer span only.
    ordering = spans_of("Ordering.order", "Ordering.adaptive_state")
    inner = {s.id for s in spans_of("Ordering.adaptive_state")}
    ordering = [s for s in ordering if s.parent not in inner]
    m["ordering.s"] = sum(s.duration for s in ordering)
    m["ordering.calls"] = len(ordering)

    nodes = counter("enumerate.recursion_calls")
    m["enumeration.s"] = sum(
        s.attrs.get("phase_seconds", {}).get("enumerate", 0.0) for s in sessions
    )
    m["enumeration.self_s"] = own.get("enumeration", 0.0)
    m["enumeration.nodes"] = nodes
    m["enumeration.candidates_scanned"] = counter("enumerate.candidates_scanned")
    m["enumeration.conflicts"] = counter("enumerate.conflicts")
    m["enumeration.failing_set_prunes"] = counter("enumerate.failing_set_prunes")
    m["enumeration.matches_per_node"] = _ratio(
        sum(s.attrs.get("num_matches", 0) for s in sessions), nodes
    )

    lengths = kernels.get("operand_lengths", {})
    m["kernels.calls"] = kernels.get("calls", 0)
    m["kernels.s"] = kernels.get("seconds", 0.0)
    m["kernels.operand_len_p50"] = _hist_percentile(lengths, 50)
    m["kernels.operand_len_p90"] = _hist_percentile(lengths, 90)
    m["kernels.operand_len_max"] = float(max(lengths)) if lengths else 0.0
    m["kernels.empty_result_ratio"] = _ratio(
        kernels.get("empty", 0), kernels.get("calls", 0)
    )
    # Share of the engine's enumeration time spent inside kernels.
    m["kernels.enumeration_share"] = _ratio(
        kernels.get("seconds", 0.0), m["enumeration.s"]
    )

    loads = [s for s in spans if s.name == "load_graph"]
    m["store.open_s"] = sum(s.duration for s in loads)
    m["store.bytes"] = sum(
        s.attrs.get("bytes", 0) for s in spans if s.name == "MmapStore.open"
    )

    executes = spans_of("ParallelContext.execute")
    fanout = sum(s.duration for s in executes)
    capacity = sum(s.duration * s.attrs.get("n_workers", 0) for s in executes)
    busy = attr_sum("merge_chunks", "chunk_busy_s")
    m["parallel.fanout_s"] = fanout
    m["parallel.chunks"] = counter("parallel.chunks")
    m["parallel.chunk_busy_s"] = busy
    m["parallel.busy_ratio"] = _ratio(busy, capacity)
    m["parallel.useful_match_ratio"] = _ratio(
        attr_sum("merge_chunks", "merged_matches"),
        attr_sum("merge_chunks", "chunk_matches"),
    )
    m["parallel.prep_misses"] = counter("parallel.prep_cache_misses")
    m["parallel.fallbacks"] = sum(
        1 for s in executes if s.attrs.get("error") == "ParallelUnavailable"
    )

    stats = serve.get("stats", {})
    counters = stats.get("counters", {})
    m["serve.queue_ms_p50"] = _pct(serve.get("queue_ms", ()), 50, short, "serve.queue_ms_p50")
    m["serve.queue_ms_p90"] = _pct(serve.get("queue_ms", ()), 90, short, "serve.queue_ms_p90")
    m["serve.execute_ms_p50"] = _pct(serve.get("execute_ms", ()), 50, short, "serve.execute_ms_p50")
    m["serve.wire_ms_p50"] = _pct(serve.get("wire_ms", ()), 50, short, "serve.wire_ms_p50")
    m["serve.coalesced_ratio"] = _ratio(
        counters.get("serve.coalesced", 0), counters.get("serve.admitted", 0)
    )
    m["serve.queue_depth_peak"] = stats.get("queue_depth_peak", 0)

    applies = spans_of("DynamicGraph.apply")
    m["dynamic.apply_s"] = total_s("DynamicGraph.apply")
    m["dynamic.snapshot_s"] = total_s("DynamicGraph.snapshot")
    m["dynamic.ingest_s"] = total_s("MatchSession.ingest")
    last = max(applies, key=lambda s: s.end) if applies else None
    m["dynamic.overlay_size"] = last.attrs.get("overlay_size", 0) if last else 0
    m["dynamic.compactions"] = last.attrs.get("compactions", 0) if last else 0
    m["dynamic.mutate_p50_ms"] = _pct(serve.get("mutate_ms", ()), 50, short, "dynamic.mutate_p50_ms")
    m["dynamic.mutate_p90_ms"] = _pct(serve.get("mutate_ms", ()), 90, short, "dynamic.mutate_p90_ms")

    m["obs.trace_overhead_ratio"] = overhead_ratio
    return {name: float(value) for name, value in m.items()}


def layer_self_times(spans: Sequence[SpanRecord], kernels: Mapping, window) -> Dict[str, float]:
    """Self seconds per layer inside the window (kernels as their own layer)."""
    lo, hi = window
    timed = [s for s in spans if s.start >= lo and s.end <= hi]
    own = self_time_by(timed, LAYER_OF)
    own["utils.kernels"] = kernels.get("seconds", 0.0)
    return {layer: own.get(layer, 0.0) for layer in LAYERS}
