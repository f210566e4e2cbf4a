"""The metric lists of ``BENCHMARK.json``, the one place they are named.

``run.py`` reports, and ``compare.py`` judges, exactly the metrics the
file lists; the code only computes them.
"""

from __future__ import annotations

import json
import os
from typing import Dict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(root: str = ROOT) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def units(section: str, root: str = ROOT) -> Dict[str, str]:
    """Metric name -> unit of ``section`` ("end_to_end" or "per_layer"),
    in the file's order."""
    return {m["name"]: m["unit"] for m in load(root)[section]}
