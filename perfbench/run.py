"""End-to-end and per-layer benchmark of the subgraph-matching system.

Run one workload (the last line of output is the result JSON)::

    python3 perfbench/run.py --workload fig16-enum --seed 1 --seconds 25 --trace 0

Run every workload and print each end-to-end metric by name::

    python3 perfbench/run.py --all [--seed 1] [--seconds 25] [--traced]

Compare two result sets (parent against change)::

    python3 perfbench/run.py compare PARENT.jsonl CHANGE.jsonl

``--trace 0`` measures the end-to-end metrics with nothing wrapped. Their
time figures (set-up, throughput, latency, matches/s) are at the
reference host speed: each is the wall figure scaled by a reference task
sampled at idle points of the same run (:mod:`perfbench.hostref`), so a
host that runs everything 30% slower for a while does not read as a
slower program. The wall figures are printed beside them as ``wall_*``.
``--trace 1`` runs the same workload untraced for half the time, then
replays the same number of ops with spans recorded around each layer's
public entry points, and reports the per-layer metrics. Every run
appends its full record (metrics, provenance, failure reasons, per-layer
self time) to ``perfbench/out/results.jsonl``. The exit code is non-zero
when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "out")

#: Seed used when none is given, and the seed held out for re-checking
#: a gain claimed on data not used while the change was written.
DEFAULT_SEED = 1
HOLDOUT_SEED = 90210


def _die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _prepare_imports() -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        _die(f"no repro sources under {os.path.join(ROOT, 'src')}")
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git(*args: str) -> str:
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return done.stdout.strip() if done.returncode == 0 else ""


def cpu_steal_s() -> float:
    """Seconds of CPU the hypervisor gave to others (all CPUs, since boot)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def provenance(seed: int, load_before, steal_before: float) -> dict:
    import numpy

    revision = _git("rev-parse", "HEAD") or "unknown (not a git checkout)"
    dirty = bool(_git("status", "--porcelain")) if revision[0] != "u" else None
    return {
        "label": "measured",
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": revision,
        "git_dirty": dirty,
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "cpu_steal_s": cpu_steal_s() - steal_before,
        "seed": seed,
    }


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------


def _segment_rates(out, scaled: bool = True) -> tuple:
    """Median over segments of (requests/s, matches/s), each segment at
    the reference host speed of its own samples (or as measured).
    Medians over segments: a burst of load from outside the benchmark
    slows one segment, not the figure."""
    rates = []
    for c, m, d, ref in out.segments:
        seconds = d * out.ref.nominal / ref if scaled else d
        rates.append((c / seconds, m / seconds))
    return (
        statistics.median(r[0] for r in rates),
        statistics.median(r[1] for r in rates),
    )


def end_to_end(out) -> tuple:
    """(end-to-end metrics, figures printed but not in BENCHMARK.json).

    Time figures are at the reference host speed: each wall time is
    scaled by the median of the reference samples taken in and around
    its segment, or during the set-ups, or by paired reference process
    starts when set-up is one (:mod:`perfbench.hostref`). The
    ``wall_*`` figures are as measured.
    """
    from perfbench.hostref import IMPORT_NOMINAL_S
    from perfbench.stats import percentile

    if out.setup_ratios:
        setup_s = statistics.median(out.setup_ratios) * IMPORT_NOMINAL_S
    else:
        setup_s = statistics.median(out.setup_s) * out.ref.scale(out.setup_samples)
    wall_ms = [x * 1000.0 for x in out.latencies]
    ms: list = []
    for c, _, _, ref in out.segments:
        ms += [x * out.ref.nominal / ref for x in wall_ms[len(ms) : len(ms) + c]]
    qps, mps = _segment_rates(out)
    wall_qps, wall_mps = _segment_rates(out, scaled=False)
    metrics = {
        "setup_s": setup_s,
        "throughput_qps": qps,
        "latency_p50_ms": statistics.median(ms),
        "matches_per_s": mps,
        "peak_rss_mb": out.peak_rss_mb,
    }
    extra = {
        "latency_p90_ms": percentile(ms, 90),
        "latency_p99_ms": percentile(ms, 99),
        "wall_setup_s": statistics.median(out.setup_s),
        "wall_throughput_qps": wall_qps,
        "wall_latency_p50_ms": statistics.median(wall_ms),
        "wall_matches_per_s": wall_mps,
        "host_ref_ms": statistics.median(out.window_samples) * 1000.0,
        "segments": len(out.segments),
        "failed_ratio": out.tally.failed_ratio,
        "cut_at_window_end": out.cut,
    }
    if out.mutate_latencies:
        scale = out.ref.scale(out.window_samples)
        mut = [x * 1000.0 * scale for x in out.mutate_latencies]
        extra["mutate_p50_ms"] = percentile(mut, 50)
        extra["mutate_p90_ms"] = percentile(mut, 90)
    return metrics, extra


EXTRA_UNITS = {
    "latency_p90_ms": "ms",
    "latency_p99_ms": "ms",
    "wall_setup_s": "s",
    "wall_throughput_qps": "1/s",
    "wall_latency_p50_ms": "ms",
    "wall_matches_per_s": "1/s",
    "host_ref_ms": "ms",
    "segments": "count",
    "failed_ratio": "ratio",
    "cut_at_window_end": "count",
    "mutate_p50_ms": "ms",
    "mutate_p90_ms": "ms",
}


def run_traced(fn, seed: int, seconds: float, work_dir: str, in_process: bool):
    """Untraced for half the time, then the same op counts with spans.

    Returns (per-layer metrics, extra figures, merged tally, per-layer
    self seconds, spans file, names of metrics short of samples).
    """
    from perfbench import spans as spanlib
    from perfbench.layers import layer_metrics, layer_self_times
    from perfbench.stats import SpanRecord, percentile
    from perfbench.workloads import Run

    first = fn(Run(ROOT, seed, seconds / 2.0, work_dir))
    replay = Run(ROOT, seed, seconds, work_dir, op_counts=first.op_counts)
    if in_process:
        recorder = spanlib.SpanRecorder()
        spanlib.install(recorder)
        kernel_window = {}

        def mark(event: str) -> None:
            kernel_window[event] = recorder.kernels.to_json()

        replay.mark = mark
    else:
        replay.spans_path = os.path.join(work_dir, "spans.json")
    out = fn(replay)
    if in_process:
        spans = list(recorder.spans)
        kernels = spanlib.kernel_delta(kernel_window["start"], kernel_window["end"])
    else:
        spans, kernels = spanlib.load(replay.spans_path)
    first_id = max((s.id for s in spans), default=0) + 1
    spans += [
        SpanRecord(first_id + k, None, "client.request", t0, t1,
                   attrs={"id": wire_id, "op": op})
        for k, (wire_id, op, t0, t1) in enumerate(out.client_spans)
    ]
    os.makedirs(OUT, exist_ok=True)
    spans_file = os.path.join(OUT, f"spans-{os.path.basename(work_dir)}.json")
    spanlib.write(spans_file, spans, kernels)

    serve = {
        "queue_ms": out.queue_ms,
        "execute_ms": out.execute_ms,
        "wire_ms": out.wire_ms,
        "mutate_ms": [x * 1000.0 for x in out.mutate_latencies],
        "stats": out.server_stats,
    }
    # Untraced throughput over traced, both at the reference host speed.
    overhead = _segment_rates(first)[0] / _segment_rates(out)[0]
    short: list = []
    metrics = layer_metrics(spans, kernels, out.window, serve, overhead, short)
    extra = {"serve.queue_ms_p99": percentile(out.queue_ms, 99)}
    first.tally.merge(out.tally)
    self_s = layer_self_times(spans, kernels, out.window)
    return metrics, extra, first.tally, self_s, spans_file, short


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    _prepare_imports()
    from perfbench import spec
    from perfbench.workloads import WORKLOADS, Run

    if name not in WORKLOADS:
        _die(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    load_before = os.getloadavg()
    steal_before = cpu_steal_s()
    work_dir = os.path.join(OUT, f"{name}-{seed}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    fn = WORKLOADS[name]

    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace}
    #: Metrics whose percentile lacks samples (reported as 0, shown n/a).
    short: list = []
    try:
        if not trace:
            out = fn(Run(ROOT, seed, seconds, work_dir))
            metrics, extra = end_to_end(out)
            units = spec.units("end_to_end", ROOT)
            tally = out.tally
            # (requests, matches, wall seconds, median reference sample)
            # per segment.
            record["segments"] = out.segments
        else:
            metrics, extra, tally, self_s, spans_file, short = run_traced(
                fn, seed, seconds, work_dir, in_process=name.startswith("fig16")
            )
            record.update(layer_self_s=self_s, spans_file=spans_file)
            units = spec.units("per_layer", ROOT)
    finally:
        _stop_resource_tracker()
        _clean(work_dir)

    missing = sorted(set(units) - set(metrics))
    if missing:
        _die(f"BENCHMARK.json lists metrics this run does not compute: {missing}")
    metrics = {k: metrics[k] for k in units}
    record.update(
        provenance=provenance(seed, load_before, steal_before),
        attempted=tally.attempted,
        failed=tally.failed,
        failed_ratio=tally.failed_ratio,
        failure_reasons=tally.reasons,
        metrics=metrics,
        extra=extra,
        short_samples=short,
    )
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "results.jsonl"), "a") as fh:
        fh.write(json.dumps(record) + "\n")

    prov = record["provenance"]
    print(
        f"# {name} seed={seed} trace={int(trace)} measured on nproc={prov['nproc']} "
        f"cpu={prov['cpu_model']!r} python={prov['python']} numpy={prov['numpy']} "
        f"rev={prov['git_revision'][:12]} dirty={prov['git_dirty']} "
        f"load={prov['loadavg_before'][0]:.2f}->{prov['loadavg_after'][0]:.2f} "
        f"steal={prov['cpu_steal_s']:.2f}s"
    )
    for key, value in list(metrics.items()) + list(extra.items()):
        unit = units.get(key) or EXTRA_UNITS.get(key, "ms")
        if value is None or key in short:
            shown = "n/a (too few samples, or the layer did not run)"
        else:
            shown = f"{value:.6g} {unit}"
        print(f"{key:34s} {shown}")
    if tally.reasons:
        print(f"# failures: {json.dumps(tally.reasons)}")
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if tally.correct else 1


def _clean(work_dir: str) -> None:
    for entry in os.listdir(work_dir):
        os.remove(os.path.join(work_dir, entry))
    os.rmdir(work_dir)


def _stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to end.

    Creating shared memory (the parallel pool's cancel flags and graph
    segment) starts the tracker as a child process that only exits once
    this process has, so without this it outlives the run. The pools
    are shut down first: the tracker ends only when the last process
    holding its pipe, pool workers included, has.
    """
    from multiprocessing import resource_tracker

    pool = sys.modules.get("repro.parallel.pool")
    if pool is not None:
        pool.shutdown_pools()
    resource_tracker._resource_tracker._stop()


# ----------------------------------------------------------------------
# Every workload, one command
# ----------------------------------------------------------------------


def run_all(seed: int, seconds: float, traced: bool) -> int:
    _prepare_imports()
    from perfbench.workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        for trace in (0, 1) if traced else (0,):
            cmd = [
                sys.executable, os.path.abspath(__file__),
                "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace),
            ]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                print(f"# {name} trace={trace}: FAILED (exit {done.returncode})")
                status = 1
    return status


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        _prepare_imports()
        from perfbench.compare import main as compare_main

        return compare_main(argv[1:], ROOT)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--traced", action="store_true", help="with --all: traced runs too")
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"workload seed (default {DEFAULT_SEED}; re-check gains on "
        f"the holdout seed {HOLDOUT_SEED})",
    )
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args.seed, args.seconds, args.traced)
    if not args.workload:
        parser.error("--workload or --all is required")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
