"""ComputeLC: the local-candidate computation methods (Algorithms 2–5).

Section 3.3 is the study's third axis. All algorithms share the recursive
backtracking of Algorithm 1 but compute ``LC(u, M)`` differently:

* :class:`NeighborScanLC` — Algorithm 2 (QuickSI, RI): scan the data
  neighbors of ``M[u.p]``, check LDF and the remaining backward edges.
  Cost ``O(d_G · (α-1) · β)``.
* :class:`VF2ppLC` — Algorithm 2 plus VF2++'s extra label-count lookahead,
  whose overhead the paper finds exceeds its benefit (Figure 9).
* :class:`CandidateScanLC` — Algorithm 3 (GraphQL): scan the whole
  ``C(u)``, check all backward edges. Cost ``O(|C(u)| · α · β)``.
* :class:`TreeAdjacencyLC` — Algorithm 4 (CFL): read ``A_u^{u.p}(M[u.p])``
  from the tree-scoped index, verify the other backward edges.
* :class:`IntersectionLC` — Algorithm 5 (CECI, DP-iso, and every
  "optimized" variant): intersect ``A_u^{u'}(M[u'])`` over all backward
  neighbors. The paper's conclusion: this is the most efficient method,
  and retrofitting it onto QSI/GQL/CFL/2PP yields the Figure 9 speedups.

Each method receives the immutable :class:`LCContext` once and is then
called per search-tree node with the current partial embedding.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.filtering.auxiliary import AuxiliaryStructure
from repro.filtering.base import ldf_check
from repro.filtering.candidates import CandidateSets
from repro.graph.graph import Graph
from repro.utils.kernels import KernelLike, ScalarKernel, get_kernel

__all__ = [
    "LCContext",
    "LocalCandidateMethod",
    "NeighborScanLC",
    "VF2ppLC",
    "CandidateScanLC",
    "TreeAdjacencyLC",
    "IntersectionLC",
]


@dataclass
class LCContext:
    """Everything a ComputeLC method may consult.

    ``mapping[u]`` is the data vertex mapped to query vertex ``u`` (or -1);
    it is mutated by the engine as the search proceeds. ``candidates`` /
    ``auxiliary`` may be ``None`` for direct-enumeration algorithms.
    """

    query: Graph
    data: Graph
    candidates: Optional[CandidateSets]
    auxiliary: Optional[AuxiliaryStructure]
    mapping: List[int]
    #: Data vertices currently used, mapped back to their query vertex.
    used: Dict[int, int]


class LocalCandidateMethod(ABC):
    """One ComputeLC strategy. Stateless across runs; bound via prepare()."""

    #: Short name for reports.
    name: str = "?"

    #: Whether this method needs candidate sets / an auxiliary structure.
    needs_candidates: bool = False
    needs_auxiliary: bool = False

    #: Whether ``compute(ctx, u, backward, parent)`` is fully determined
    #: by the current mappings of ``backward`` (plus the immutable
    #: context). True for Algorithms 2–5; methods that also consult
    #: ``ctx.used`` (the whole partial embedding) must set this False so
    #: the adaptive selector never serves them a stale memoized list.
    mapping_determined: bool = True

    def prepare(self, ctx: LCContext) -> None:
        """Validate wiring before a run starts."""
        if self.needs_candidates and ctx.candidates is None:
            raise ConfigurationError(f"{self.name} requires candidate sets")
        if self.needs_auxiliary and (
            ctx.auxiliary is None or ctx.auxiliary.scope == "none"
        ):
            raise ConfigurationError(
                f"{self.name} requires an auxiliary structure"
            )

    @abstractmethod
    def compute(
        self,
        ctx: LCContext,
        u: int,
        backward: Sequence[int],
        parent: int,
    ) -> Sequence[int]:
        """``LC(u, M)`` given the backward neighbors of ``u`` in φ.

        ``parent`` is ``u.p`` (one designated backward neighbor; -1 when
        ``backward`` is empty, i.e. at the first position or a disconnected
        spectrum order). Injectivity (``v ∉ M``) is the engine's job.
        """

    # Shared fallbacks -------------------------------------------------

    def _start_candidates(self, ctx: LCContext, u: int) -> Sequence[int]:
        """LC at a position with no backward neighbors."""
        if ctx.candidates is not None:
            return ctx.candidates[u]
        query, data = ctx.query, ctx.data
        pool = data.vertices_with_label(query.label(u))
        return pool[data.degrees[pool] >= query.degree(u)]

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class NeighborScanLC(LocalCandidateMethod):
    """Algorithm 2: scan ``N(M[u.p])`` with LDF + backward-edge checks."""

    name = "ALG2"

    def compute(
        self,
        ctx: LCContext,
        u: int,
        backward: Sequence[int],
        parent: int,
    ) -> Sequence[int]:
        if parent < 0:
            return self._start_candidates(ctx, u)
        query, data, mapping = ctx.query, ctx.data, ctx.mapping
        anchor_sets = [
            data.neighbor_set(mapping[w]) for w in backward if w != parent
        ]
        result = []
        for v in data.neighbors(mapping[parent]).tolist():
            if not ldf_check(query, u, data, v):
                continue
            if all(v in s for s in anchor_sets):
                result.append(v)
        return result


class VF2ppLC(NeighborScanLC):
    """Algorithm 2 + VF2++'s forward label-count lookahead.

    Requires, for each label ``l`` among the *forward* neighbors of ``u``,
    at least as many unmapped neighbors of ``v`` with that label:
    ``∀l ∈ L(N_-^φ(u)): |N_-^φ(u, l)| ≤ |X(v, l)|``. The per-candidate cost
    is ``O(d(v))`` — the overhead Figure 9 shows outweighing the pruning.
    """

    name = "2PP-LC"
    #: The lookahead counts *unmapped* data neighbors, so the result
    #: depends on the whole partial embedding, not just the backward
    #: neighbors' mappings — it must not be memoized by backward key.
    mapping_determined = False

    def compute(
        self,
        ctx: LCContext,
        u: int,
        backward: Sequence[int],
        parent: int,
    ) -> Sequence[int]:
        base = super().compute(ctx, u, backward, parent)
        query, data, used = ctx.query, ctx.data, ctx.used
        backward_set = set(backward)
        forward_label_counts: Dict[int, int] = {}
        for w in query.neighbors(u).tolist():
            if w not in backward_set:
                label = query.label(w)
                forward_label_counts[label] = (
                    forward_label_counts.get(label, 0) + 1
                )
        if not forward_label_counts:
            return base
        result = []
        for v in base:
            free_counts: Dict[int, int] = {}
            for w in data.neighbors(v).tolist():
                if w not in used:
                    label = data.label(w)
                    free_counts[label] = free_counts.get(label, 0) + 1
            if all(
                free_counts.get(label, 0) >= needed
                for label, needed in forward_label_counts.items()
            ):
                result.append(v)
        return result


class CandidateScanLC(LocalCandidateMethod):
    """Algorithm 3: scan the whole ``C(u)``, verify every backward edge."""

    name = "ALG3"
    needs_candidates = True

    def compute(
        self,
        ctx: LCContext,
        u: int,
        backward: Sequence[int],
        parent: int,
    ) -> Sequence[int]:
        candidates = ctx.candidates[u]  # type: ignore[index]
        if parent < 0:
            return candidates
        data, mapping = ctx.data, ctx.mapping
        anchor_sets = [data.neighbor_set(mapping[w]) for w in backward]
        return [v for v in candidates if all(v in s for s in anchor_sets)]


class TreeAdjacencyLC(LocalCandidateMethod):
    """Algorithm 4: tree-edge adjacency lookup + residual edge checks."""

    name = "ALG4"
    needs_candidates = True
    needs_auxiliary = True

    def compute(
        self,
        ctx: LCContext,
        u: int,
        backward: Sequence[int],
        parent: int,
    ) -> Sequence[int]:
        if parent < 0:
            return ctx.candidates[u]  # type: ignore[index]
        data, mapping = ctx.data, ctx.mapping
        base = ctx.auxiliary.neighbors(parent, u, mapping[parent])  # type: ignore[union-attr]
        if len(backward) == 1:
            return base
        anchor_sets = [
            data.neighbor_set(mapping[w]) for w in backward if w != parent
        ]
        return [v for v in base if all(v in s for s in anchor_sets)]


class IntersectionLC(LocalCandidateMethod):
    """Algorithm 5: intersect candidate adjacency over all backward neighbors.

    ``kernel`` selects the :class:`~repro.utils.kernels.KernelBackend`:

    * ``None`` (default) — the paper's scalar hybrid merge/galloping
      method (:class:`~repro.utils.kernels.ScalarKernel`).
      :func:`repro.core.api.match` swaps in the session's resolved
      backend for this default; an explicitly passed kernel is never
      overridden.
    * a registered backend name (``"scalar"``, ``"numpy"``, ``"bitset"``,
      ``"qfilter"``, ``"auto"``) or a backend instance — resolved via
      :func:`repro.utils.kernels.get_kernel`. Caching backends intersect
      in their packed domain and encode-cache the long-lived auxiliary
      lists, which is how Figure 10 models QFilter's one-time layout
      conversion.
    """

    name = "ALG5"
    needs_candidates = True
    needs_auxiliary = True

    def __init__(self, kernel: KernelLike = None) -> None:
        #: True when no kernel was requested, letting ``match(kernel=...)``
        #: substitute the session backend without clobbering an explicit
        #: choice.
        self.uses_default_kernel = kernel is None
        self.kernel = ScalarKernel() if kernel is None else get_kernel(kernel)

    def compute(
        self,
        ctx: LCContext,
        u: int,
        backward: Sequence[int],
        parent: int,
    ) -> Sequence[int]:
        if parent < 0:
            return ctx.candidates[u]  # type: ignore[index]
        mapping = ctx.mapping
        aux = ctx.auxiliary
        if len(backward) == 1:
            return aux.neighbors(parent, u, mapping[parent])  # type: ignore[union-attr]
        lists = [
            aux.neighbors(w, u, mapping[w])  # type: ignore[union-attr]
            for w in backward
        ]
        return self.kernel.multi_intersect(lists)
