"""The benchmark's own rules on fixed inputs (no clock; one test starts
and stops multiprocessing's resource tracker).

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import pytest

from perfbench import hostref, spec
from perfbench.layers import _hist_percentile, layer_metrics
from perfbench.run import _stop_resource_tracker
from perfbench.spans import SpanRecorder, kernel_delta
from perfbench.stats import (
    BETTER,
    UNRESOLVED,
    WITHIN,
    WORSE,
    SpanRecord,
    Tally,
    percentile,
    quartiles,
    samples_beyond,
    self_time_by,
    self_times,
    spread,
    verdict,
)


# ----------------------------------------------------------------------
# Tail percentiles: at least 10 samples beyond
# ----------------------------------------------------------------------


class TestPercentileRule:
    def test_p90_needs_100_samples(self):
        assert samples_beyond(100, 90) == 10
        assert samples_beyond(99, 90) == 9
        assert percentile(list(range(1, 101)), 90) == 90.0
        assert percentile(list(range(1, 100)), 90) is None

    def test_p99_needs_1000_samples(self):
        assert percentile(list(range(1, 1001)), 99) == 990.0
        assert percentile(list(range(1, 1000)), 99) is None

    def test_median_needs_one_sample(self):
        assert percentile([7.0], 50) == 7.0
        assert percentile([3.0, 1.0, 2.0, 10.0], 50) == 2.5
        assert percentile([], 50) is None

    def test_nearest_rank_on_unsorted_input(self):
        values = [float(x) for x in reversed(range(1, 201))]
        assert percentile(values, 90) == 180.0

    def test_histogram_percentile(self):
        hist = {2: 5, 6: 4, 40: 1}
        assert _hist_percentile(hist, 50) == 2.0
        assert _hist_percentile(hist, 90) == 6.0
        assert _hist_percentile(hist, 100) == 40.0
        assert _hist_percentile({}, 50) == 0.0


class TestQuartiles:
    def test_matches_statistics_quantiles(self):
        q1, med, q3 = quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        assert (q1, med, q3) == (2.75, 5.5, 8.25)
        assert spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx(5.5 / 5.5)

    def test_constant_values_have_no_spread(self):
        assert spread([4.0] * 10) == 0.0
        assert spread([4.0]) == 0.0


class TestHostScale:
    def test_scale_is_nominal_over_median_sample(self):
        ref = hostref.Sampler(width=1)
        assert ref.scale([4e-3, 1e-3, 2e-3]) == pytest.approx(ref.nominal / 2e-3)
        # A host twice as slow as nominal halves every scaled time.
        assert ref.scale([2 * ref.nominal] * 3) == pytest.approx(0.5)


    def test_each_segment_is_scaled_by_its_own_samples(self):
        from perfbench.run import end_to_end
        from perfbench.workloads import Outcome

        out = Outcome()
        nominal = out.ref.nominal
        out.setup_s = [1.0, 3.0, 2.0]
        out.setup_samples = [2 * nominal] * 3  # host twice as slow
        out.latencies = [0.1, 0.1, 0.2, 0.2]
        out.found = [10, 10, 10, 10]
        out.window_samples = [nominal, 2 * nominal]
        # The same two requests at nominal speed, then on a host twice
        # as slow.
        out.segments = [(2, 20, 0.2, nominal), (2, 20, 0.4, 2 * nominal)]
        out.tally.record(True)
        metrics, extra = end_to_end(out)
        assert metrics["setup_s"] == pytest.approx(1.0)
        assert metrics["throughput_qps"] == pytest.approx(10.0)
        assert metrics["matches_per_s"] == pytest.approx(100.0)
        assert metrics["latency_p50_ms"] == pytest.approx(100.0)
        assert extra["wall_throughput_qps"] == pytest.approx((10.0 + 5.0) / 2)
        assert extra["wall_latency_p50_ms"] == pytest.approx(150.0)


# ----------------------------------------------------------------------
# failed_ratio accounting
# ----------------------------------------------------------------------


class TestTally:
    def test_every_failure_kind_counts(self):
        t = Tally()
        assert t.record_response({"ok": True, "status": "ok", "solved": True, "num_matches": 5}, 5)
        assert not t.record_response({"ok": False, "code": "QueueFullError"})
        assert not t.record_response({"ok": True, "status": "expired"})
        assert not t.record_response({"ok": True, "status": "ok", "solved": False})
        assert not t.record_response({"ok": True, "status": "ok", "num_matches": 4}, 5)
        assert not t.record(False, "exception")
        assert t.record(True)
        assert (t.attempted, t.failed) == (7, 5)
        assert t.failed_ratio == pytest.approx(5 / 7)
        assert t.reasons == {
            "error:QueueFullError": 1,
            "expired": 1,
            "unsolved": 1,
            "count differs from cross-check": 1,
            "exception": 1,
        }
        assert not t.correct

    def test_clean_run_is_correct(self):
        t = Tally()
        for _ in range(3):
            t.record(True)
        assert t.correct and t.failed_ratio == 0.0

    def test_merge_adds_operations_and_reasons(self):
        a, b = Tally(), Tally()
        a.record(False, "unsolved")
        b.record(True)
        b.record(False, "unsolved")
        a.merge(b)
        assert (a.attempted, a.failed, a.reasons) == (3, 2, {"unsolved": 2})

    def test_nothing_attempted_is_not_correct(self):
        assert not Tally().correct
        assert Tally().failed_ratio == 0.0


# ----------------------------------------------------------------------
# Self time from nested spans
# ----------------------------------------------------------------------


def _span(i, parent, name, start, end, agg=0.0, **attrs):
    return SpanRecord(i, parent, name, start, end, attrs=attrs, aggregated_s=agg)


class TestSelfTime:
    def test_nested_children_are_subtracted(self):
        spans = [
            _span(1, None, "MatchSession.match", 0.0, 10.0),
            _span(2, 1, "prepare_query", 1.0, 4.0),
            _span(3, 2, "Filter.run", 1.5, 2.5),
            _span(4, 2, "Ordering.order", 2.5, 3.0),
            _span(5, 1, "engine.run", 4.0, 9.0, agg=2.0),
        ]
        own = self_times(spans)
        assert own[1] == pytest.approx(10.0 - 3.0 - 5.0)
        assert own[2] == pytest.approx(3.0 - 1.5)
        assert own[3] == pytest.approx(1.0)
        assert own[5] == pytest.approx(5.0 - 2.0)

    def test_overlapping_children_count_once(self):
        spans = [
            _span(1, None, "MatchService.submit", 0.0, 10.0),
            _span(2, 1, "a", 1.0, 5.0),
            _span(3, 1, "b", 3.0, 7.0),
            _span(4, 1, "c", 9.0, 12.0),  # clipped to the parent
        ]
        assert self_times(spans)[1] == pytest.approx(10.0 - 6.0 - 1.0)

    def test_grouped_by_layer(self):
        spans = [
            _span(1, None, "MatchSession.match", 0.0, 10.0),
            _span(2, 1, "prepare_query", 0.0, 4.0),
            _span(3, 2, "Filter.run", 0.0, 3.0),
        ]
        groups = {"MatchSession.match": "core", "prepare_query": "core", "Filter.run": "filtering"}
        assert self_time_by(spans, groups) == pytest.approx({"core": 7.0, "filtering": 3.0})

    def test_recorder_nests_and_skips_reentry(self):
        rec = SpanRecorder()

        def inner(x):
            return x + 1

        traced_inner = rec.wrap(inner, "inner")

        def outer(x):
            return traced_inner(traced_inner(x))

        traced_outer = rec.wrap(outer, "outer")
        reentrant = rec.wrap(lambda: traced_outer(0), "outer")
        assert reentrant() == 2
        names = sorted(s.name for s in rec.spans)
        assert names == ["inner", "inner", "outer"]
        outer_span = next(s for s in rec.spans if s.name == "outer")
        assert all(s.parent == outer_span.id for s in rec.spans if s.name == "inner")

    def test_kernel_calls_are_aggregated_into_the_open_span(self):
        rec = SpanRecorder()

        class K:
            def multi_intersect(self, lists):
                return [x for x in lists[0] if all(x in other for other in lists[1:])]

        kernel = rec.wrap_kernel(K.multi_intersect, multi=True)
        k = K()
        before = rec.kernels.to_json()
        run = rec.wrap(lambda: (kernel(k, [[1, 2, 3], [2, 3]]), kernel(k, [[1], [2]])), "engine.run")
        run()
        delta = kernel_delta(before, rec.kernels.to_json())
        assert delta["calls"] == 2 and delta["empty"] == 1
        assert delta["operand_lengths"] == {3: 1, 2: 1, 1: 2}
        (span,) = rec.spans
        assert 0.0 < span.aggregated_s <= span.duration

    def test_nested_kernel_calls_are_counted_once(self):
        rec = SpanRecorder()

        class K:
            def intersect(self, a, b):
                return [x for x in a if x in b]

            def multi_intersect(self, lists):
                out = lists[0]
                for other in lists[1:]:
                    out = self.intersect(out, other)
                return out

        K.intersect = rec.wrap_kernel(K.intersect, multi=False)
        K.multi_intersect = rec.wrap_kernel(K.multi_intersect, multi=True)
        k = K()
        run = rec.wrap(lambda: k.multi_intersect([[1, 2, 3], [2, 3], [3, 4]]), "engine.run")
        assert run() == [3]
        assert k.intersect([1, 2], [5]) == []
        tally = rec.kernels
        assert tally.calls == 2 and tally.empty == 1
        assert tally.operand_lengths == {3: 1, 2: 3, 1: 1}
        (span,) = rec.spans
        assert span.aggregated_s <= span.duration


# ----------------------------------------------------------------------
# Per-layer metrics from fixed spans
# ----------------------------------------------------------------------


class TestLayerMetrics:
    def test_every_metric_reported_and_parallel_ratios(self):
        spans = [
            _span(1, None, "MatchSession.match", 1.0, 3.0, num_matches=100,
                  counters={"plan.cache_hit": 1, "plan.cache_miss": 0,
                            "plan.prep_hit": 0, "plan.prep_miss": 1,
                            "enumerate.recursion_calls": 50,
                            "parallel.chunks": 16, "parallel.prep_cache_misses": 2},
                  phase_seconds={"enumerate": 1.5}),
            _span(2, 1, "ParallelContext.execute", 1.5, 2.5, n_workers=2),
            _span(3, 2, "merge_chunks", 2.4, 2.5, chunk_matches=1600,
                  chunk_busy_s=1.8, merged_matches=100),
            _span(4, None, "load_graph", 0.0, 0.5),
            _span(5, 4, "MmapStore.open", 0.1, 0.2, bytes=4096),
            _span(6, None, "MatchSession.match", 9.0, 11.0),  # outside window
        ]
        m = layer_metrics(spans, {"calls": 3, "seconds": 0.3, "empty": 1,
                                  "operand_lengths": {4: 6}}, (1.0, 5.0), {}, 1.25)
        assert set(m) == set(spec.units("per_layer"))
        assert m["core.plan_hit_ratio"] == 1.0
        assert m["core.prep_hit_ratio"] == 0.0
        assert m["parallel.useful_match_ratio"] == pytest.approx(100 / 1600)
        assert m["parallel.busy_ratio"] == pytest.approx(1.8 / (1.0 * 2))
        assert m["parallel.chunks"] == 16 and m["parallel.prep_misses"] == 2
        assert m["enumeration.matches_per_node"] == 2.0
        assert m["store.open_s"] == 0.5 and m["store.bytes"] == 4096
        assert m["serve.queue_ms_p90"] == 0.0  # layer did not run
        assert m["obs.trace_overhead_ratio"] == 1.25
        assert m["kernels.enumeration_share"] == pytest.approx(0.3 / 1.5)


# ----------------------------------------------------------------------
# Compare verdicts
# ----------------------------------------------------------------------


class TestVerdict:
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]

    def test_within_bound(self):
        change = [x * 1.03 for x in self.parent]
        assert verdict(self.parent, change, 0.1, "lower").label == WITHIN

    def test_worse_beyond_bound(self):
        change = [x * 1.2 for x in self.parent]
        v = verdict(self.parent, change, 0.1, "lower")
        assert v.label == WORSE and v.worse_by == pytest.approx(0.2)

    def test_better_needs_gap_beyond_parent_spread_and_nine_in_ten_wins(self):
        change = [x * 0.8 for x in self.parent]
        assert verdict(self.parent, change, 0.1, "lower").label == BETTER
        # Higher-is-better metrics flip the direction.
        assert verdict(self.parent, change, 0.1, "higher").label == WORSE

    def test_small_gain_inside_parent_spread_is_not_better(self):
        change = [x - 0.3 for x in self.parent]
        assert verdict(self.parent, change, 0.1, "lower").label == WITHIN

    def test_unresolved_when_spread_exceeds_bound(self):
        noisy = [50.0, 150.0, 80.0, 120.0, 60.0, 140.0, 100.0, 90.0, 110.0, 70.0]
        assert verdict(self.parent, noisy, 0.1, "lower").label == UNRESOLVED
        assert verdict(noisy, self.parent, 0.1, "higher").label == UNRESOLVED

    def test_unresolved_spread_but_every_run_better(self):
        noisy_low = [10.0, 30.0, 15.0, 25.0, 12.0, 28.0, 20.0, 18.0, 22.0, 14.0]
        assert verdict(self.parent, noisy_low, 0.1, "lower").label == BETTER

    def test_rejects_bad_direction(self):
        with pytest.raises(ValueError):
            verdict([1.0], [1.0], 0.1, "sideways")


# ----------------------------------------------------------------------
# No process outlives a run
# ----------------------------------------------------------------------


def test_resource_tracker_is_stopped_and_reaped():
    import os
    from multiprocessing import resource_tracker, shared_memory

    segment = shared_memory.SharedMemory(create=True, size=8)
    segment.close()
    segment.unlink()
    pid = resource_tracker._resource_tracker._pid
    assert pid is not None
    _stop_resource_tracker()
    assert resource_tracker._resource_tracker._pid is None
    # Reaped, not just signalled: the pid no longer names a child.
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)
