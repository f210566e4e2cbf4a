"""Pure statistics the benchmark reports: no clock, no I/O.

Everything here takes plain numbers or span records, so the rules the
benchmark applies (tail percentiles, failure accounting, self time,
compare verdicts) are tested on fixed inputs.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: A tail percentile is reported only when at least this many samples
#: lie beyond it.
MIN_BEYOND = 10


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` ranked samples lie above the ``pct`` percentile.

    Nearest-rank: the percentile is the sample at rank ``ceil(pct/100*n)``,
    so ``n - rank`` samples lie beyond it.
    """
    if n <= 0:
        return 0
    rank = math.ceil(pct / 100.0 * n - 1e-9)
    return n - max(rank, 1)


def percentile(values: Sequence[float], pct: float) -> Optional[float]:
    """Nearest-rank percentile, or None when too few samples lie beyond.

    ``pct == 50`` is the median (statistics.median) and needs one sample.
    """
    if not values:
        return None
    if pct == 50:
        return float(statistics.median(values))
    if samples_beyond(len(values), pct) < MIN_BEYOND:
        return None
    ranked = sorted(values)
    rank = max(math.ceil(pct / 100.0 * len(ranked) - 1e-9), 1)
    return float(ranked[rank - 1])


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, float(statistics.median(values)), q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for one value)."""
    q1, med, q3 = quartiles(values)
    if med == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(med)


# ----------------------------------------------------------------------
# Failure accounting
# ----------------------------------------------------------------------


@dataclass
class Tally:
    """Attempted and failed operations, with the reason for each failure.

    An operation is one timed request or one output check. It fails when
    the response is ``ok: false`` or ``expired``, the result is unsolved
    under its budget, the call raised, or an output check disagreed.
    """

    attempted: int = 0
    failed: int = 0
    reasons: Dict[str, int] = field(default_factory=dict)

    def record(self, ok: bool, reason: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            key = reason or "unspecified"
            self.reasons[key] = self.reasons.get(key, 0) + 1
        return ok

    def record_response(
        self, response: Mapping, expected: Optional[int] = None
    ) -> bool:
        """Classify one wire response (``ok``/``status``/``solved``).

        With ``expected``, a ``num_matches`` that differs from it fails
        the op as an output-check mismatch.
        """
        if not response.get("ok"):
            return self.record(False, "error:" + str(response.get("code")))
        if response.get("status", "ok") != "ok":
            return self.record(False, str(response.get("status")))
        if response.get("solved") is False:
            return self.record(False, "unsolved")
        if expected is not None and response.get("num_matches") != expected:
            return self.record(False, "count differs from cross-check")
        return self.record(True)

    def merge(self, other: "Tally") -> None:
        """Add another tally's operations to this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        for reason, n in other.reasons.items():
            self.reasons[reason] = self.reasons.get(reason, 0) + n

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0


# ----------------------------------------------------------------------
# Spans and self time
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SpanRecord:
    """One finished span: ``parent`` is the id of the enclosing span.

    ``aggregated_s`` is time spent in children too small and too many to
    record one by one (kernel calls); it counts as child time.
    """

    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    thread: int = 0
    attrs: Mapping = field(default_factory=dict)
    aggregated_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``[start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[SpanRecord]) -> Dict[int, float]:
    """Span id -> its duration minus the part its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out: Dict[int, float] = {}
    for s in spans:
        clipped = [
            (max(a, s.start), min(b, s.end))
            for a, b in children.get(s.id, ())
            if min(b, s.end) > max(a, s.start)
        ]
        own = s.duration - _covered(clipped) - s.aggregated_s
        out[s.id] = max(own, 0.0)
    return out


def self_time_by(
    spans: Sequence[SpanRecord], group: Mapping[str, str]
) -> Dict[str, float]:
    """Self time summed per group (``span name -> group`` mapping).

    Spans whose name is not in ``group`` are skipped.
    """
    own = self_times(spans)
    out: Dict[str, float] = {}
    for s in spans:
        key = group.get(s.name)
        if key is not None:
            out[key] = out.get(key, 0.0) + own[s.id]
    return out


# ----------------------------------------------------------------------
# Compare verdicts
# ----------------------------------------------------------------------

BETTER = "better"
WORSE = "worse"
WITHIN = "within bound"
UNRESOLVED = "unresolved"


@dataclass(frozen=True)
class Verdict:
    label: str
    parent: Tuple[float, float, float]
    change: Tuple[float, float, float]
    #: Median change as a share of the parent median; positive is worse.
    worse_by: float


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    bound: float,
    better: str,
) -> Verdict:
    """Judge one metric of one workload, parent runs against change runs.

    * *unresolved* when either side's interquartile spread exceeds the
      bound, unless every change run beats every parent run;
    * *worse* when the change median is worse by more than the bound;
    * *better* when the change median is better by more than the
      parent's own interquartile distance and the change wins at least
      nine of every ten runs paired in order;
    * otherwise *within bound*.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    if not parent or not change:
        raise ValueError("both sides need at least one run")
    sign = 1.0 if better == "lower" else -1.0
    pq = quartiles(parent)
    cq = quartiles(change)
    base = abs(pq[1]) or 1e-12
    worse_by = sign * (cq[1] - pq[1]) / base

    def beats(c: float, p: float) -> bool:
        return sign * (c - p) < 0

    if max(spread(parent), spread(change)) > bound:
        if all(beats(c, p) for c in change for p in parent):
            return Verdict(BETTER, pq, cq, worse_by)
        return Verdict(UNRESOLVED, pq, cq, worse_by)
    if worse_by > bound:
        return Verdict(WORSE, pq, cq, worse_by)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if beats(c, p))
    if -worse_by * base > (pq[2] - pq[0]) and wins >= 0.9 * len(pairs):
        return Verdict(BETTER, pq, cq, worse_by)
    return Verdict(WITHIN, pq, cq, worse_by)
