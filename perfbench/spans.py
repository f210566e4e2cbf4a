"""In-memory spans around the public entry points of each layer.

The traced run calls :func:`install`, which wraps the functions below in
place (class attributes and module globals), records one span per
outermost call and keeps everything in memory until :meth:`dump`.
Nothing inside ``src/`` changes: the wrappers only time calls and read
what the calls return.

Kernel calls are too many and too short for one span each; their time,
count and operand sizes are aggregated, and their time is charged as
child time of the innermost open span.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from perfbench.stats import SpanRecord

#: Span name -> layer (the repo's module names).
LAYER_OF = {
    "match": "core",
    "MatchSession.match": "core",
    "prepare_query": "core",
    "Filter.run": "filtering",
    "AuxiliaryStructure.build": "filtering",
    "Ordering.order": "ordering",
    "Ordering.adaptive_state": "ordering",
    "engine.run": "enumeration",
    "load_graph": "graph.store",
    "MmapStore.open": "graph.store",
    "ParallelContext.execute": "parallel",
    "merge_chunks": "parallel",
    "MatchService.submit": "serve",
    "MatchService.mutate": "serve",
    "MatchSession.ingest": "dynamic",
    "DynamicGraph.apply": "dynamic",
    "DynamicGraph.snapshot": "dynamic",
}

LAYERS = (
    "core",
    "filtering",
    "ordering",
    "enumeration",
    "utils.kernels",
    "graph.store",
    "parallel",
    "serve",
    "dynamic",
)


class _Open:
    __slots__ = ("id", "name", "start", "aggregated")

    def __init__(self, span_id: int, name: str, start: float) -> None:
        self.id = span_id
        self.name = name
        self.start = start
        self.aggregated = 0.0


class KernelTally:
    """Aggregate of every intersection-kernel call."""

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.empty = 0
        #: operand length -> number of operands of that length
        self.operand_lengths: Dict[int, int] = {}

    def to_json(self) -> dict:
        """A copy of the aggregate (operand lengths keyed by string)."""
        return {
            "calls": self.calls,
            "seconds": self.seconds,
            "empty": self.empty,
            "operand_lengths": {str(k): v for k, v in self.operand_lengths.items()},
        }


class SpanRecorder:
    """Thread-safe in-memory span store."""

    def __init__(self) -> None:
        self.spans: List[SpanRecord] = []
        self.kernels = KernelTally()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[_Open]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        fn: Callable,
        name: str,
        annotate: Optional[Callable[[Any, tuple], dict]] = None,
    ) -> Callable:
        """``fn`` recording one span per outermost call under ``name``.

        ``annotate(result, args)`` returns attributes for the span. A
        call nested inside an open span of the same name (a subclass
        calling its base) is not recorded again.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            if any(o.name == name for o in stack):
                return fn(*args, **kwargs)
            parent = stack[-1].id if stack else None
            opened = _Open(next(recorder._ids), name, time.perf_counter())
            stack.append(opened)
            attrs: dict = {}
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                attrs["error"] = type(exc).__name__
                raise
            else:
                if annotate is not None:
                    attrs.update(annotate(result, args))
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                record = SpanRecord(
                    id=opened.id,
                    parent=parent,
                    name=name,
                    start=opened.start,
                    end=end,
                    thread=threading.get_ident(),
                    attrs=attrs,
                    aggregated_s=opened.aggregated,
                )
                with recorder._lock:
                    recorder.spans.append(record)

        return wrapper

    def wrap_kernel(self, fn: Callable, multi: bool) -> Callable:
        """An intersection kernel method, aggregated instead of spanned.

        A kernel call made inside another (``multi_intersect`` folding
        its lists with ``self.intersect``) is not counted again: only
        the outermost call's time, operands and result are recorded.
        """
        recorder = self
        tally = self.kernels
        lengths = tally.operand_lengths
        local = self._local
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(self_, *args):
            if getattr(local, "in_kernel", False):
                return fn(self_, *args)
            local.in_kernel = True
            t0 = perf()
            try:
                out = fn(self_, *args)
            finally:
                local.in_kernel = False
            dt = perf() - t0
            operands = args[0] if multi else args
            with recorder._lock:
                tally.calls += 1
                tally.seconds += dt
                if len(out) == 0:
                    tally.empty += 1
                for operand in operands:
                    n = len(operand)
                    lengths[n] = lengths.get(n, 0) + 1
            stack = getattr(recorder._local, "stack", None)
            if stack:
                stack[-1].aggregated += dt
            return out

        return wrapper

    def dump(self, path: str) -> None:
        """Write every span and the kernel aggregate as one JSON file."""
        with self._lock:
            spans = list(self.spans)
            kernels = self.kernels.to_json()
        write(path, spans, kernels)


def write(path: str, spans, kernels: dict) -> None:
    """Write spans (name, start, end, parent, thread, attrs) and kernels."""
    payload = {
        "spans": [
            {
                "id": s.id,
                "parent": s.parent,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "thread": s.thread,
                "attrs": s.attrs,
                "aggregated_s": s.aggregated_s,
            }
            for s in spans
        ],
        "kernels": kernels,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def kernel_delta(before: dict, after: dict) -> dict:
    """The kernel calls made between two :meth:`KernelTally.to_json` reads."""
    old = before["operand_lengths"]
    lengths = {}
    for k, v in after["operand_lengths"].items():
        if v - old.get(k, 0):
            lengths[int(k)] = v - old.get(k, 0)
    return {
        "calls": after["calls"] - before["calls"],
        "seconds": after["seconds"] - before["seconds"],
        "empty": after["empty"] - before["empty"],
        "operand_lengths": lengths,
    }


def load(path: str) -> tuple:
    """(spans, kernel aggregate dict) from a :meth:`SpanRecorder.dump` file."""
    with open(path) as fh:
        payload = json.load(fh)
    spans = [SpanRecord(**s) for s in payload["spans"]]
    kernels = payload["kernels"]
    kernels["operand_lengths"] = {
        int(k): v for k, v in kernels["operand_lengths"].items()
    }
    return spans, kernels


# ----------------------------------------------------------------------
# Annotations: read what the public calls return
# ----------------------------------------------------------------------


def _match_attrs(result, args) -> dict:
    counters = result.metrics.counters
    return {
        "num_matches": result.num_matches,
        "solved": result.solved,
        "candidate_average": result.candidate_average,
        "counters": dict(counters),
        "phase_seconds": dict(result.metrics.phase_seconds),
    }


def _filter_attrs(result, args) -> dict:
    avg = getattr(result, "average_size", None)
    return {"candidates_avg": float(avg)} if avg is not None else {}


def _merge_attrs(result, args) -> dict:
    chunks = args[0]
    return {
        "chunk_matches": sum(c.num_matches for c in chunks),
        "chunk_busy_s": sum(c.elapsed for c in chunks),
        "merged_matches": result.num_matches,
    }


def _execute_attrs(result, args) -> dict:
    return {"n_workers": args[0].n_workers}


def _apply_attrs(result, args) -> dict:
    graph = args[0]
    return {
        "epoch": result.epoch,
        "overlay_size": graph.overlay_size,
        "compactions": graph.compactions,
    }


def _mmap_attrs(result, args) -> dict:
    return {"bytes": os.path.getsize(args[0].path)}


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------


def _subclasses(cls) -> list:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def _patch_method(cls, attr: str, make: Callable[[Callable], Callable]) -> None:
    """Replace ``cls.attr`` (if defined on ``cls`` itself), keeping its kind."""
    raw = cls.__dict__.get(attr)
    if raw is None:
        return
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make(raw.__func__)))
    elif isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(make(raw.__func__)))
    elif not getattr(raw, "__isabstractmethod__", False):
        setattr(cls, attr, make(raw))


def install(recorder: SpanRecorder) -> None:
    """Wrap every traced entry point of the ``repro`` package in place."""
    import repro
    import repro.cli
    import repro.core.api
    import repro.core.plan
    import repro.filtering  # noqa: F401  (registers every filter)
    import repro.graph.io
    import repro.ordering  # noqa: F401  (registers every ordering)
    import repro.parallel.executor
    from repro.core.session import MatchSession
    from repro.dynamic.overlay import DynamicGraph
    from repro.enumeration.frames import FrameMachine
    from repro.filtering.auxiliary import AuxiliaryStructure
    from repro.filtering.base import Filter
    from repro.graph.store import MmapStore
    from repro.ordering.base import Ordering
    from repro.ordering.dpiso import DPisoOrdering
    from repro.parallel.executor import ParallelContext
    from repro.serve.service import MatchService
    from repro.utils.kernels import KernelBackend

    wrap = recorder.wrap

    traced_match = wrap(repro.core.api.match, "match")
    repro.match = traced_match
    repro.core.match = traced_match
    repro.core.api.match = traced_match

    _patch_method(
        MatchSession, "match", lambda f: wrap(f, "MatchSession.match", _match_attrs)
    )
    _patch_method(MatchSession, "ingest", lambda f: wrap(f, "MatchSession.ingest"))
    repro.core.plan.prepare_query = wrap(
        repro.core.plan.prepare_query, "prepare_query"
    )
    for cls in _subclasses(Filter):
        _patch_method(cls, "run", lambda f: wrap(f, "Filter.run", _filter_attrs))
    _patch_method(
        AuxiliaryStructure, "build", lambda f: wrap(f, "AuxiliaryStructure.build")
    )
    for cls in _subclasses(Ordering):
        _patch_method(cls, "order", lambda f: wrap(f, "Ordering.order"))
    _patch_method(
        DPisoOrdering,
        "adaptive_state",
        lambda f: wrap(f, "Ordering.adaptive_state"),
    )
    _patch_method(FrameMachine, "run", lambda f: wrap(f, "engine.run"))
    for cls in _subclasses(KernelBackend):
        _patch_method(cls, "intersect", lambda f: recorder.wrap_kernel(f, False))
        _patch_method(
            cls, "multi_intersect", lambda f: recorder.wrap_kernel(f, True)
        )

    traced_load = wrap(repro.graph.io.load_graph, "load_graph")
    repro.graph.io.load_graph = traced_load
    repro.cli.load_graph = traced_load
    _patch_method(
        MmapStore, "__init__", lambda f: wrap(f, "MmapStore.open", _mmap_attrs)
    )

    _patch_method(
        ParallelContext,
        "execute",
        lambda f: wrap(f, "ParallelContext.execute", _execute_attrs),
    )
    repro.parallel.executor.merge_chunks = wrap(
        repro.parallel.executor.merge_chunks, "merge_chunks", _merge_attrs
    )

    _patch_method(MatchService, "submit", lambda f: wrap(f, "MatchService.submit"))
    _patch_method(MatchService, "mutate", lambda f: wrap(f, "MatchService.mutate"))
    _patch_method(
        DynamicGraph, "apply", lambda f: wrap(f, "DynamicGraph.apply", _apply_attrs)
    )
    _patch_method(
        DynamicGraph, "snapshot", lambda f: wrap(f, "DynamicGraph.snapshot")
    )
