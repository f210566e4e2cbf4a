"""Query-graph compression via neighborhood equivalence classes (NEC).

TurboIso's optimization (paper Section 3.4): query vertices that are
*interchangeable* — same label and same neighborhood — can be matched as a
group. Two flavours:

* **false twins** — ``L(u) = L(u')``, ``u ̸~ u'`` and ``N(u) = N(u')``
  (e.g. the leaves of a star);
* **true twins** — ``L(u) = L(u')``, ``u ~ u'`` and
  ``N(u) ∪ {u} = N(u') ∪ {u'}`` (e.g. the vertices of a same-label clique).

The compressed query has one vertex per class. Enumeration assigns each
class an (unordered) set of distinct data vertices — adjacent to every
vertex assigned to neighboring classes, and mutually adjacent for
true-twin classes — and every assignment then expands to ``Π |class|!``
original embeddings by permuting the interchangeable members.

The paper's finding to verify (Section 3.4, quoting the CFL study): "only
a small number of query vertices could be compressed by the query graph
compression method" on random-walk queries — the ablation bench
``bench_ablation_compression.py`` measures class sizes and the speedup on
compression-friendly shapes (stars, cliques).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.result import MatchResult
from repro.enumeration.support import DEADLINE_STRIDE
from repro.errors import BudgetExceeded
from repro.filtering.base import ldf_candidates_for, nlf_check
from repro.graph.graph import Graph
from repro.utils.timer import Deadline, Timer

__all__ = [
    "CompressedQuery",
    "neighborhood_equivalence_classes",
    "compress_query",
    "count_matches_compressed",
    "match_compressed",
]


def neighborhood_equivalence_classes(query: Graph) -> List[List[int]]:
    """Partition ``V(q)`` into NEC classes (sorted, deterministic).

    >>> star = Graph(labels=[0, 1, 1, 1], edges=[(0, 1), (0, 2), (0, 3)])
    >>> neighborhood_equivalence_classes(star)
    [[0], [1, 2, 3]]
    """
    signature_to_class: Dict[Tuple, List[int]] = {}
    for u in query.vertices():
        open_nb: FrozenSet[int] = query.neighbor_set(u)
        closed_nb = frozenset(open_nb | {u})
        # One signature covers both twin kinds: the closed neighborhood of
        # true twins coincides; for false twins the open one does. Key on
        # (label, closed-neighborhood-without-self-distinction) by trying
        # the closed form: two true twins share closed_nb; two false twins
        # share open_nb but differ in closed_nb, so key both.
        key_true = (query.label(u), "t", closed_nb)
        key_false = (query.label(u), "f", open_nb)
        # Prefer merging under whichever key already exists.
        if key_true in signature_to_class and _is_true_twin(
            query, u, signature_to_class[key_true][0]
        ):
            signature_to_class[key_true].append(u)
        elif key_false in signature_to_class and _is_false_twin(
            query, u, signature_to_class[key_false][0]
        ):
            signature_to_class[key_false].append(u)
        else:
            signature_to_class[key_true] = [u]
            signature_to_class[key_false] = signature_to_class[key_true]

    seen: set = set()
    classes: List[List[int]] = []
    for members in signature_to_class.values():
        marker = id(members)
        if marker not in seen:
            seen.add(marker)
            classes.append(sorted(members))
    classes.sort()
    return classes


def _is_true_twin(query: Graph, a: int, b: int) -> bool:
    if a == b:
        return True
    return (
        query.label(a) == query.label(b)
        and query.has_edge(a, b)
        and query.neighbor_set(a) | {a} == query.neighbor_set(b) | {b}
    )


def _is_false_twin(query: Graph, a: int, b: int) -> bool:
    if a == b:
        return True
    return (
        query.label(a) == query.label(b)
        and not query.has_edge(a, b)
        and query.neighbor_set(a) == query.neighbor_set(b)
    )


@dataclass(frozen=True)
class CompressedQuery:
    """A query graph folded along its NEC classes.

    ``classes[i]`` lists the original vertices represented by compressed
    vertex ``i``; ``clique[i]`` marks true-twin classes (members mutually
    adjacent); ``edges`` connect classes whose members are adjacent;
    ``labels[i]`` is the shared label.
    """

    original: Graph
    classes: Tuple[Tuple[int, ...], ...]
    labels: Tuple[int, ...]
    edges: Tuple[Tuple[int, int], ...]
    clique: Tuple[bool, ...]

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def compression_ratio(self) -> float:
        """``|V(q)| / #classes`` — 1.0 means nothing compressed."""
        return self.original.num_vertices / max(1, self.num_classes)

    @property
    def expansion_factor(self) -> int:
        """``Π |class|!`` — original embeddings per compressed assignment."""
        factor = 1
        for members in self.classes:
            for k in range(2, len(members) + 1):
                factor *= k
        return factor

    def neighbor_classes(self, index: int) -> List[int]:
        result = []
        for a, b in self.edges:
            if a == index:
                result.append(b)
            elif b == index:
                result.append(a)
        return sorted(set(result))


def compress_query(query: Graph) -> CompressedQuery:
    """Fold ``query`` along its NEC classes."""
    classes = neighborhood_equivalence_classes(query)
    index_of = {}
    for i, members in enumerate(classes):
        for u in members:
            index_of[u] = i
    edges = set()
    for u, v in query.edges():
        a, b = index_of[u], index_of[v]
        if a != b:
            edges.add((min(a, b), max(a, b)))
    clique = tuple(
        len(members) > 1 and query.has_edge(members[0], members[1])
        for members in classes
    )
    return CompressedQuery(
        original=query,
        classes=tuple(tuple(m) for m in classes),
        labels=tuple(query.label(members[0]) for members in classes),
        edges=tuple(sorted(edges)),
        clique=clique,
    )


class _CompressedEnumerator:
    """Backtracking over class assignments (sets of data vertices)."""

    def __init__(
        self,
        compressed: CompressedQuery,
        data: Graph,
        match_limit: Optional[int],
        time_limit: Optional[float],
        store_limit: int,
    ) -> None:
        self.c = compressed
        self.data = data
        self.match_limit = match_limit
        self.store_limit = store_limit
        self.deadline = Deadline(time_limit) if time_limit else None
        self.num_matches = 0
        self.embeddings: List[Tuple[int, ...]] = []
        self.solved = True

    def run(self) -> None:
        c = self.c
        candidates = [
            self._base_candidates(i) for i in range(c.num_classes)
        ]
        if any(
            len(candidates[i]) < len(c.classes[i])
            for i in range(c.num_classes)
        ):
            return
        order = self._class_order(candidates)
        try:
            self._extend(order, 0, candidates, [None] * c.num_classes, set())
        except _Stop:
            pass
        except BudgetExceeded:
            self.solved = False

    # ------------------------------------------------------------------

    def _class_order(self, candidates: List[List[int]]) -> List[int]:
        """Connected order over compressed vertices, cheapest class first.

        A class of size k fans out over ``C(|local|, k)`` combinations, so
        the start (and every frontier pick) minimizes ``k · log|base|`` —
        putting a star's center before its leaf class, for example.
        """
        import math

        c = self.c
        if c.num_classes == 0:
            return []

        def cost(i: int) -> float:
            size = len(c.classes[i])
            return size * math.log2(max(2, len(candidates[i])))

        start = min(range(c.num_classes), key=lambda i: (cost(i), i))
        order = [start]
        placed = {start}
        while len(order) < c.num_classes:
            frontier = [
                j
                for i in placed
                for j in c.neighbor_classes(i)
                if j not in placed
            ]
            if not frontier:  # disconnected compressed query
                frontier = [j for j in range(c.num_classes) if j not in placed]
            nxt = min(frontier, key=lambda j: (cost(j), j))
            order.append(nxt)
            placed.add(nxt)
        return order

    def _base_candidates(self, index: int) -> List[int]:
        """LDF + NLF candidates of the class representative."""
        rep = self.c.classes[index][0]
        query = self.c.original
        return [
            v
            for v in ldf_candidates_for(query, rep, self.data)
            if nlf_check(query, rep, self.data, v)
        ]

    def _extend(
        self,
        order: List[int],
        depth: int,
        candidates: List[List[int]],
        assignment: List[Optional[Tuple[int, ...]]],
        used: set,
    ) -> None:
        if self.deadline is not None and self.deadline.expired():
            raise BudgetExceeded
        c = self.c
        if depth == len(order):
            self._record(assignment)
            return
        index = order[depth]
        size = len(c.classes[index])

        # Local candidates: base ∩ adjacency to every assigned neighbor
        # class member, minus used vertices.
        anchor_sets = [
            self.data.neighbor_set(v)
            for j in c.neighbor_classes(index)
            if assignment[j] is not None
            for v in assignment[j]
        ]
        local = [
            v
            for v in candidates[index]
            if v not in used and all(v in s for s in anchor_sets)
        ]
        if len(local) < size:
            return

        # A clique class walks C(|local|, size) subsets and may reject
        # nearly all of them, so poll inside the walk, not just on entry.
        for step, chosen in enumerate(combinations(local, size), 1):
            if (
                step % DEADLINE_STRIDE == 0
                and self.deadline is not None
                and self.deadline.expired()
            ):
                raise BudgetExceeded
            if c.clique[index] and not self._mutually_adjacent(chosen):
                continue
            assignment[index] = chosen
            used.update(chosen)
            self._extend(order, depth + 1, candidates, assignment, used)
            used.difference_update(chosen)
            assignment[index] = None

    def _mutually_adjacent(self, vertices: Sequence[int]) -> bool:
        for i, a in enumerate(vertices):
            nb = self.data.neighbor_set(a)
            for b in vertices[i + 1:]:
                if b not in nb:
                    return False
        return True

    def _record(self, assignment: List[Optional[Tuple[int, ...]]]) -> None:
        c = self.c
        expansion = c.expansion_factor
        self.num_matches += expansion

        # Materialize original embeddings (up to the store limit) by
        # permuting class members over the chosen vertex sets.
        if len(self.embeddings) < self.store_limit:
            self._expand_embeddings(assignment)

        if (
            self.match_limit is not None
            and self.num_matches >= self.match_limit
        ):
            raise _Stop

    def _expand_embeddings(
        self, assignment: List[Optional[Tuple[int, ...]]]
    ) -> None:
        c = self.c
        partial: List[Dict[int, int]] = [dict()]
        for index, members in enumerate(c.classes):
            chosen = assignment[index]
            assert chosen is not None
            new_partial = []
            for base in partial:
                for perm in permutations(chosen):
                    extended = dict(base)
                    for u, v in zip(members, perm):
                        extended[u] = v
                    new_partial.append(extended)
            partial = new_partial
        for mapping in partial:
            if len(self.embeddings) >= self.store_limit:
                break
            self.embeddings.append(
                tuple(mapping[u] for u in range(c.original.num_vertices))
            )


class _Stop(Exception):
    """Match cap reached."""


def match_compressed(
    query: Graph,
    data: Graph,
    match_limit: Optional[int] = 100_000,
    time_limit: Optional[float] = None,
    store_limit: int = 10_000,
) -> MatchResult:
    """Enumerate matches through NEC compression.

    Returns a regular :class:`MatchResult`; ``num_matches`` counts
    *original* embeddings (each compressed assignment contributes
    ``Π |class|!``).
    """
    with Timer() as prep_timer:
        compressed = compress_query(query)
    enumerator = _CompressedEnumerator(
        compressed, data, match_limit, time_limit, store_limit
    )
    with Timer() as enum_timer:
        enumerator.run()
    return MatchResult(
        algorithm="NEC",
        num_matches=enumerator.num_matches,
        solved=enumerator.solved,
        embeddings=enumerator.embeddings,
        order=None,
        preprocessing_seconds=prep_timer.elapsed,
        enumeration_seconds=enum_timer.elapsed,
    )


def count_matches_compressed(
    query: Graph,
    data: Graph,
    time_limit: Optional[float] = None,
) -> int:
    """Exact match count through compression (no embeddings stored)."""
    return match_compressed(
        query, data, match_limit=None, time_limit=time_limit, store_limit=0
    ).num_matches
