"""Compare two result sets: ``run.py compare PARENT.jsonl CHANGE.jsonl``.

Each file holds the run records ``run.py`` appends to
``perfbench/out/results.jsonl``. Untraced runs are grouped per workload;
for each end-to-end metric of ``BENCHMARK.json`` the report gives both
sides' median and quartiles and a verdict (better, worse, within bound,
unresolved). Traced runs give the per-layer self-time deltas.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import List

from perfbench import spec
from perfbench.spans import LAYERS
from perfbench.stats import verdict


def load_records(path: str) -> List[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _by_seed(records: List[dict]) -> List[dict]:
    # Pair runs across the two sides by seed order, whatever the file order.
    return sorted(records, key=lambda r: r["seed"])


def compare(parent: List[dict], change: List[dict], bench: dict) -> List[str]:
    lines: List[str] = []
    workloads = [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        p_runs = _by_seed([r for r in parent if r["workload"] == workload and not r["trace"]])
        c_runs = _by_seed([r for r in change if r["workload"] == workload and not r["trace"]])
        lines.append(f"== {workload}: {len(p_runs)} parent runs, {len(c_runs)} change runs")
        if not p_runs or not c_runs:
            lines.append("   (no untraced runs on one side)")
        else:
            lines.append(
                f"   {'metric':18s} {'parent q1/med/q3':>30s} {'change q1/med/q3':>30s}"
                f" {'worse by':>9s}  verdict"
            )
            for m in bench["end_to_end"]:
                name = m["name"]
                pv = [r["metrics"][name] for r in p_runs]
                cv = [r["metrics"][name] for r in c_runs]
                v = verdict(pv, cv, m["bound"], m["better"])
                fmt = lambda q: "/".join(f"{x:.4g}" for x in q)  # noqa: E731
                lines.append(
                    f"   {name:18s} {fmt(v.parent):>30s} {fmt(v.change):>30s}"
                    f" {v.worse_by:+9.1%}  {v.label} (bound {m['bound']:.0%})"
                )
        p_tr = [r for r in parent if r["workload"] == workload and r["trace"]]
        c_tr = [r for r in change if r["workload"] == workload and r["trace"]]
        if p_tr and c_tr:
            lines.append("   per-layer self time (median of traced runs, s):")
            for layer in LAYERS:
                p = statistics.median(r["layer_self_s"].get(layer, 0.0) for r in p_tr)
                c = statistics.median(r["layer_self_s"].get(layer, 0.0) for r in c_tr)
                if p or c:
                    lines.append(f"     {layer:14s} {p:10.4f} -> {c:10.4f}  ({c - p:+.4f})")
    return lines


def main(argv: List[str], root: str) -> int:
    if len(argv) != 2:
        print("usage: run.py compare PARENT.jsonl CHANGE.jsonl", file=sys.stderr)
        return 2
    lines = compare(load_records(argv[0]), load_records(argv[1]), spec.load(root))
    print("\n".join(lines))
    return 0
