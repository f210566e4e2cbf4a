"""A fixed reference task that measures how fast the host is right now.

On a shared virtual machine the same deterministic work can take 30%
longer for minutes at a time (other tenants' load on the physical
cores), which moves every wall-clock figure of a run by as much as a
real change to the program would. The benchmark therefore samples this
reference task at idle points of each run -- before every Fig 16
request, between load blocks of the serve workloads with no request in
flight, before every set-up -- and reports each time figure both as
measured (``wall_*``) and scaled to the reference speed:

    scaled time = wall time * REF_NOMINAL_S / (median reference sample)

Figures measured in the same stretch of time share one scale.

Starting a process is the exception: how long a fresh interpreter takes
to start and import its libraries swings by up to half from one second to
the next with no sign of it in the task above. A set-up that is one
process start is therefore paired with a start that imports numpy
alone (:func:`import_sample`), and reported as

    scaled time = median(wall time / paired import_sample) * IMPORT_NOMINAL_S

The task uses no ``repro`` code, so a change to the program cannot
change the reference; it mixes small numpy set operations and
interpreter-bound dict updates, the two kinds of work the engine does.
"""

from __future__ import annotations

import multiprocessing
import statistics
import subprocess
import sys
import time
from typing import List, Sequence

import numpy as np

#: Typical seconds of one :meth:`Sampler.sample` of each width on the
#: host the bounds were set on (2-vCPU Intel Xeon VM, Python 3.11, numpy
#: 2.4); the scaled figures read as wall figures on that host at its
#: typical speed.
REF_NOMINAL_S = {1: 2.8e-3, 2: 3.4e-3}
#: Typical seconds of one :func:`import_sample` on the same host.
IMPORT_NOMINAL_S = 0.15

_rng = np.random.default_rng(20200614)
_LISTS = [np.unique(_rng.integers(0, 4000, 40)) for _ in range(200)]


def sample() -> float:
    """Seconds the reference task takes once (about 2.5 ms)."""
    t0 = time.perf_counter()
    counts: dict = {}
    for i in range(len(_LISTS)):
        a, b = _LISTS[i], _LISTS[(i * 7) % len(_LISTS)]
        common = np.intersect1d(a, b, assume_unique=True)
        for x in a.tolist():
            counts[x] = counts.get(x, 0) + len(common)
    return time.perf_counter() - t0


def import_sample(cwd: str) -> float:
    """Seconds a fresh interpreter takes to start and import numpy."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=cwd, check=True)
    return time.perf_counter() - t0


class Sampler:
    """Takes reference samples on ``width`` CPUs at once.

    A single-threaded workload is sampled with ``width`` 1. A workload
    that keeps every CPU busy is sampled with as many processes running
    the task together (this one plus ``width - 1`` helpers), since a
    host's speed with all its CPUs busy differs from its speed with one.
    :meth:`close` stops and waits for the helpers.
    """

    def __init__(self, width: int = 1) -> None:
        self.nominal = REF_NOMINAL_S[width]
        self._peers = []
        for _ in range(width - 1):
            here, there = multiprocessing.Pipe()
            proc = multiprocessing.Process(target=_helper, args=(there,), daemon=True)
            proc.start()
            there.close()
            self._peers.append((proc, here))

    @property
    def pids(self) -> List[int]:
        return [proc.pid for proc, _ in self._peers]

    def sample(self) -> float:
        """Mean seconds of the task run once on each of the CPUs at once."""
        for _, conn in self._peers:
            conn.send(True)
        times = [sample()] + [conn.recv() for _, conn in self._peers]
        return statistics.fmean(times)

    def burst(self, n: int) -> List[float]:
        return [self.sample() for _ in range(n)]

    def scale(self, samples: Sequence[float]) -> float:
        """The nominal sample time over the samples' median: multiply a
        wall time measured while they were taken by it to get the time
        at the reference speed."""
        return self.nominal / statistics.median(samples)

    def close(self) -> None:
        for proc, conn in self._peers:
            conn.send(False)
            proc.join()
            conn.close()
        self._peers = []


def _helper(conn) -> None:
    while conn.recv():
        conn.send(sample())
