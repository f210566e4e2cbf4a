"""Set-intersection kernels for sorted integer arrays, and their registry.

Section 3.3.2 of the paper: "We implement a hybrid set intersection method:
if the cardinalities of two sets are similar, we use the merge-based method;
otherwise, we adopt the Galloping algorithm." Figure 10 further compares the
hybrid method against QFilter, a SIMD method with a compact bitmap-like
layout that wins on dense graphs but pays a conversion overhead on sparse
ones. Once Algorithm 5 is in place these kernels dominate enumeration time.

Every kernel is a :class:`KernelBackend`; the enumeration engine only calls
``multi_intersect``:

* :class:`ScalarKernel` — the paper's hybrid merge/galloping kernel over
  Python lists (the reference semantics), built on the pairwise functions
  :func:`intersect_merge`, :func:`intersect_galloping` and
  :func:`intersect_hybrid`;
* :class:`NumpyKernel` — ``np.intersect1d`` on contiguous sorted arrays
  when cardinalities are similar, a ``np.searchsorted``-based vectorized
  galloping pass when they are skewed;
* :class:`BitsetKernel` — packed-``uint64`` bitmaps over the data-vertex
  universe; intersection is a word-wise ``&``, decoding is one
  ``np.unpackbits`` pass.  Wins when candidate sets are dense, pays the
  encode/decode overhead when they are sparse — the same trade-off the
  paper reports for QFilter;
* :class:`QFilterKernel` — the faithful QFilter model: base-and-state
  blocks, merged base arrays, per-block state ANDs — wins when values
  cluster, pays block overhead when they scatter (Figure 10's trade-off);
* :class:`BitmapKernel` — a simpler big-int bitmap kernel (one ``&`` over
  the whole universe), kept for Figure 10 and the kernel micro-benchmarks.
  It is not registered; callers pass an instance.

Registered backends are resolved by name through :func:`get_kernel`;
``"auto"`` (the default, also the ``REPRO_KERNEL`` environment fallback)
picks the bitset kernel when the candidate sets are dense relative to the
data graph and the numpy hybrid otherwise.

All kernels expect **sorted, duplicate-free arrays (or lists) of
non-negative ints** and return sorted results; numpy-backed kernels
return ``np.ndarray`` views/arrays of dtype ``int64``, the others lists.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from bisect import bisect_left
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "intersect_merge",
    "intersect_galloping",
    "intersect_hybrid",
    "KernelBackend",
    "KernelLike",
    "ScalarKernel",
    "NumpyKernel",
    "BitsetKernel",
    "BitmapKernel",
    "QFilterKernel",
    "available_kernels",
    "get_kernel",
    "register_kernel",
    "AUTO_DENSITY_THRESHOLD",
]

#: Cardinality ratio above which the hybrid method switches from merge to
#: galloping. 32 is the conventional crossover for scalar implementations.
GALLOP_RATIO = 32

#: Average candidate density (``avg |C(u)| / |V(G)|``) above which the auto
#: heuristic switches from the numpy hybrid to the bitset kernel. Word-wise
#: AND touches ``|V(G)|/64`` words and decoding ``|V(G)|/8`` bytes, so the
#: bitset only wins once the lists it replaces are a comparable fraction of
#: the universe.
AUTO_DENSITY_THRESHOLD = 1.0 / 16.0

_EMPTY_I64 = np.empty(0, dtype=np.int64)

#: Default byte budget for the bitset kernel's cached encodings, in MB.
#: Overridable via the ``REPRO_BITSET_CACHE_MB`` environment variable —
#: the out-of-core regime (memmap-backed graphs larger than RAM) needs
#: this one unbounded per-graph cache to stop growing with the graph.
DEFAULT_BITSET_CACHE_MB = 64.0


# ----------------------------------------------------------------------
# Pairwise scalar kernels (the paper's §3.3.2 methods)
# ----------------------------------------------------------------------


def intersect_merge(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Two-pointer merge intersection; O(|a| + |b|).

    >>> intersect_merge([1, 3, 5, 7], [3, 4, 5, 6])
    [3, 5]
    """
    result: List[int] = []
    i = j = 0
    len_a, len_b = len(a), len(b)
    while i < len_a and j < len_b:
        x, y = a[i], b[j]
        if x == y:
            result.append(x)
            i += 1
            j += 1
        elif x < y:
            i += 1
        else:
            j += 1
    return result


def _gallop(haystack: Sequence[int], needle: int, lo: int) -> int:
    """Exponential probe then binary search: first index ≥ needle from lo."""
    hi = lo + 1
    n = len(haystack)
    while hi < n and haystack[hi] < needle:
        lo = hi
        hi = min(n, hi * 2)
    return bisect_left(haystack, needle, lo, min(hi + 1, n))


def intersect_galloping(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Galloping intersection; O(|small| · log |large|).

    The smaller input drives the search regardless of argument order.

    >>> intersect_galloping([5], list(range(0, 100, 5)))
    [5]
    """
    if len(a) > len(b):
        a, b = b, a
    result: List[int] = []
    pos = 0
    len_b = len(b)
    for x in a:
        pos = _gallop(b, x, pos)
        if pos >= len_b:
            break
        if b[pos] == x:
            result.append(x)
            pos += 1
    return result


def intersect_hybrid(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """The paper's hybrid kernel: merge when sizes are similar, else gallop.

    >>> intersect_hybrid([2, 4, 6], [1, 2, 3, 4])
    [2, 4]
    """
    if len(a) == 0 or len(b) == 0:
        return []
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    if len(large) > GALLOP_RATIO * len(small):
        return intersect_galloping(small, large)
    return intersect_merge(small, large)


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------


def _bitset_cache_budget() -> int:
    """Resolve the encode-cache byte budget from the environment."""
    raw = os.environ.get("REPRO_BITSET_CACHE_MB")
    if raw is None:
        mb = DEFAULT_BITSET_CACHE_MB
    else:
        try:
            mb = float(raw)
        except ValueError:
            raise ConfigurationError(
                f"REPRO_BITSET_CACHE_MB must be a number, got {raw!r}"
            ) from None
        if mb < 0:
            raise ConfigurationError(
                f"REPRO_BITSET_CACHE_MB must be >= 0, got {raw!r}"
            )
    return int(mb * 1024 * 1024)


def _as_i64(values: Sequence[int]) -> np.ndarray:
    """View ``values`` as an int64 array without copying when possible."""
    if isinstance(values, np.ndarray):
        if values.dtype == np.int64:
            return values
        return values.astype(np.int64)
    return np.asarray(values, dtype=np.int64)


class KernelBackend(ABC):
    """One pairwise/multiway set-intersection implementation.

    The enumeration engine only needs ``multi_intersect``; ``intersect``
    is the pairwise primitive the property suite cross-checks. Inputs are
    sorted duplicate-free int sequences; outputs are sorted.
    """

    #: Registry name, also reported in :class:`~repro.core.result.MatchResult`.
    name: str = "?"

    @abstractmethod
    def intersect(self, a: Sequence[int], b: Sequence[int]) -> Sequence[int]:
        """Pairwise sorted-set intersection."""

    def multi_intersect(self, lists: Sequence[Sequence[int]]) -> Sequence[int]:
        """Intersect several sorted sets, smallest-first.

        Folds pairwise, and short-circuits as soon as an intermediate
        result is empty — the remaining kernel calls are skipped.
        """
        if not lists:
            raise ValueError("multi_intersect requires at least one list")
        ordered = sorted(lists, key=len)
        result: Sequence[int] = ordered[0]
        for other in ordered[1:]:
            if len(result) == 0:
                break
            result = self.intersect(result, other)
        return result

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class _IdentityCachedKernel(KernelBackend):
    """A backend that packs each input once, memoized by object identity.

    Candidate adjacency lists are immutable once built, so identity
    caching is sound and models QFilter's one-time layout conversion.
    Pass long-lived lists (e.g. candidate adjacency arrays), not
    temporaries: the cache keeps every keyed object referenced until
    :meth:`clear`. That reference is also what makes the key safe —
    CPython recycles the ids of collected objects, so a bare id key could
    silently alias a dead list's encoding.

    Ids mean nothing in another process, and a recycled id there would
    alias a different list, so pickling ships only the constructor
    arguments (:meth:`_init_args`) and the clone starts with an empty
    cache.
    """

    def __init__(self) -> None:
        # id -> (keyed object, encoding).
        self._cache: Dict[int, Tuple[Sequence[int], Any]] = {}

    @abstractmethod
    def encode(self, values: Sequence[int]) -> Any:
        """Pack a sorted set into this kernel's layout (uncached)."""

    def encode_cached(self, values: Sequence[int]) -> Any:
        """Pack with memoization keyed on object identity."""
        entry = self._cache.get(id(values))
        if entry is None:
            packed = self.encode(values)
            self._cache[id(values)] = (values, packed)
            return packed
        return entry[1]

    def clear(self) -> None:
        """Drop all cached encodings."""
        self._cache.clear()

    def _init_args(self) -> tuple:
        """The constructor arguments a pickled clone is rebuilt from."""
        return ()

    def __reduce__(self):
        return type(self), self._init_args()


class ScalarKernel(KernelBackend):
    """The paper's scalar hybrid kernel; the reference semantics.

    >>> ScalarKernel().multi_intersect([[1, 2, 3, 4], [2, 4, 6], [0, 2, 4, 8]])
    [2, 4]
    """

    name = "scalar"

    def intersect(self, a: Sequence[int], b: Sequence[int]) -> List[int]:
        return intersect_hybrid(a, b)

    def multi_intersect(self, lists: Sequence[Sequence[int]]) -> List[int]:
        """Fold pairwise from a list copy of the smallest input.

        The cost is proportional to the smallest input, matching the
        analysis of Algorithm 5 in Section 3.3.2; the result is always a
        fresh list, never one of the inputs.
        """
        if not lists:
            raise ValueError("multi_intersect requires at least one list")
        ordered = sorted(lists, key=len)
        result = list(ordered[0])
        for other in ordered[1:]:
            if not result:
                break
            result = self.intersect(result, other)
        return result


class NumpyKernel(KernelBackend):
    """Vectorized merge/galloping hybrid over contiguous sorted arrays.

    Similar cardinalities use ``np.intersect1d(assume_unique=True)`` (a
    vectorized sort-merge); skewed pairs probe the smaller array into the
    larger with one batched ``np.searchsorted`` — the galloping regime,
    executed as a single vectorized binary-search pass.

    >>> NumpyKernel().intersect([2, 4, 6], [1, 2, 3, 4]).tolist()
    [2, 4]
    """

    name = "numpy"

    def intersect(self, a: Sequence[int], b: Sequence[int]) -> np.ndarray:
        a = _as_i64(a)
        b = _as_i64(b)
        if a.size == 0 or b.size == 0:
            return _EMPTY_I64
        small, large = (a, b) if a.size <= b.size else (b, a)
        if large.size > GALLOP_RATIO * small.size:
            return self._gallop(small, large)
        return np.intersect1d(small, large, assume_unique=True)

    @staticmethod
    def _gallop(small: np.ndarray, large: np.ndarray) -> np.ndarray:
        """Batched binary search of ``small`` into ``large``."""
        pos = np.searchsorted(large, small)
        in_range = pos < large.size
        hit = np.zeros(small.size, dtype=bool)
        hit[in_range] = large[pos[in_range]] == small[in_range]
        return small[hit]

    def multi_intersect(self, lists: Sequence[Sequence[int]]) -> np.ndarray:
        if not lists:
            raise ValueError("multi_intersect requires at least one list")
        ordered = sorted((_as_i64(lst) for lst in lists), key=lambda arr: arr.size)
        result = ordered[0]
        for other in ordered[1:]:
            if result.size == 0:
                break
            result = self.intersect(result, other)
        return result


class BitsetKernel(_IdentityCachedKernel):
    """Packed-uint64 bitset intersection over the vertex universe.

    Each input is encoded once (cached by object identity, mirroring
    QFilter's one-time layout conversion) as a ``uint64`` word array with
    bit ``v`` set for each member ``v``. Intersection ANDs the word arrays
    — 64 members per instruction — and decoding is one ``np.unpackbits``
    pass over the surviving words. Dense candidate sets amortize the
    encode/decode overhead; sparse ones do not, which is why the auto
    heuristic gates this backend on candidate density.

    >>> BitsetKernel().multi_intersect([[1, 3, 65], [3, 65, 70], [0, 3, 65]]).tolist()
    [3, 65]
    """

    name = "bitset"

    __slots__ = ("_cache", "_budget_bytes", "_cached_bytes")

    def __init__(self, budget_bytes: Optional[int] = None) -> None:
        super().__init__()
        # Ordered so the byte-budgeted eviction below can drop
        # least-recently-used encodings first — without a bound this
        # cache grows with the number of distinct candidate arrays, i.e.
        # with the graph, which the out-of-core regime cannot afford.
        self._cache: "OrderedDict[int, Tuple[Sequence[int], np.ndarray]]" = (
            OrderedDict()
        )
        self._budget_bytes = (
            _bitset_cache_budget() if budget_bytes is None else budget_bytes
        )
        self._cached_bytes = 0

    @staticmethod
    def encode(values: Sequence[int]) -> np.ndarray:
        """Pack a sorted set into a uint64 word array (uncached)."""
        arr = _as_i64(values)
        if arr.size == 0:
            return np.empty(0, dtype=np.uint64)
        nwords = (int(arr[-1]) >> 6) + 1
        words = np.zeros(nwords, dtype=np.uint64)
        bits = np.left_shift(np.uint64(1), (arr & 63).astype(np.uint64))
        np.bitwise_or.at(words, arr >> 6, bits)
        return words

    @staticmethod
    def decode(words: np.ndarray) -> np.ndarray:
        """Unpack a word array into a sorted int64 array."""
        if words.size == 0:
            return _EMPTY_I64
        bits = np.unpackbits(words.view(np.uint8), bitorder="little")
        return np.nonzero(bits)[0].astype(np.int64)

    def encode_cached(self, values: Sequence[int]) -> np.ndarray:
        """Pack with memoization keyed on object identity.

        The cache holds at most ``REPRO_BITSET_CACHE_MB`` of encodings,
        evicting least-recently-used entries past the budget; an
        encoding alone larger than the whole budget is returned uncached.
        """
        key = id(values)
        entry = self._cache.get(key)
        if entry is not None:
            self._cache.move_to_end(key)
            return entry[1]
        words = self.encode(values)
        nbytes = int(words.nbytes)
        if nbytes > self._budget_bytes:
            return words
        while self._cache and self._cached_bytes + nbytes > self._budget_bytes:
            _, (_, evicted) = self._cache.popitem(last=False)
            self._cached_bytes -= int(evicted.nbytes)
        self._cache[key] = (values, words)
        self._cached_bytes += nbytes
        return words

    def intersect(self, a: Sequence[int], b: Sequence[int]) -> np.ndarray:
        wa = self.encode_cached(a)
        wb = self.encode_cached(b)
        n = min(wa.size, wb.size)
        if n == 0:
            return _EMPTY_I64
        return self.decode(wa[:n] & wb[:n])

    def multi_intersect(self, lists: Sequence[Sequence[int]]) -> np.ndarray:
        """Fold ANDs in the packed domain; decode once at the end.

        Short-circuits (skipping the remaining word ANDs) as soon as the
        accumulator has no bits set.
        """
        if not lists:
            raise ValueError("multi_intersect requires at least one list")
        ordered = sorted(lists, key=len)
        acc = self.encode_cached(ordered[0])
        for other in ordered[1:]:
            if acc.size == 0 or not acc.any():
                return _EMPTY_I64
            words = self.encode_cached(other)
            n = min(acc.size, words.size)
            acc = acc[:n] & words[:n]
        return self.decode(acc)

    def clear(self) -> None:
        """Drop all cached encodings."""
        self._cache.clear()
        self._cached_bytes = 0

    def cache_info(self) -> dict:
        """Entries, bytes held, and the byte budget of the encode cache."""
        return {
            "entries": len(self._cache),
            "bytes": self._cached_bytes,
            "budget_bytes": self._budget_bytes,
        }

    def _init_args(self) -> tuple:
        return (self._budget_bytes,)


class BitmapKernel(_IdentityCachedKernel):
    """Big-int bitmap (QFilter-analog) intersection over the vertex universe.

    Each input is encoded once as a Python big-int with bit ``v`` set for
    each member ``v``. Intersection is then a single ``&`` — the
    per-element cost is near zero, like QFilter's SIMD lanes — but
    encoding and decoding are linear passes, modelling the layout overhead
    that makes QFilter lose to the hybrid kernel on sparse graphs (paper
    Figure 10). Not registered: Figure 10 passes an instance.

    >>> BitmapKernel().intersect([1, 3, 5], [3, 4, 5])
    [3, 5]
    """

    name = "bitmap"

    def encode(self, values: Sequence[int]) -> int:
        """Pack a set of ints into a bitmap (uncached)."""
        bits = 0
        for v in values:
            # int() guards against numpy scalars: np.int64 << would
            # overflow past bit 62, Python ints are arbitrary precision.
            bits |= 1 << int(v)
        return bits

    @staticmethod
    def decode(bits: int) -> List[int]:
        """Unpack a bitmap into a sorted list of ints."""
        result: List[int] = []
        while bits:
            low = bits & -bits
            result.append(low.bit_length() - 1)
            bits ^= low
        return result

    def intersect(self, a: Sequence[int], b: Sequence[int]) -> List[int]:
        """Intersect two sorted lists through their bitmap encodings."""
        return self.decode(self.encode_cached(a) & self.encode_cached(b))

    def multi_intersect(self, lists: Sequence[Sequence[int]]) -> List[int]:
        """Intersect several sorted lists through bitmaps."""
        if not lists:
            raise ValueError("multi_intersect requires at least one list")
        bits = self.encode_cached(lists[0])
        for other in lists[1:]:
            if not bits:
                break
            bits &= self.encode_cached(other)
        return self.decode(bits)


_Packed = Tuple[List[int], List[int]]


class QFilterKernel(_IdentityCachedKernel):
    """Base-and-state (BSR) intersection — the closest Python model of QFilter.

    QFilter (Han, Zou & Yu, SIGMOD'18) packs a sorted set into blocks:
    per block a *base* (the high bits) and a *state* bitmap of which of
    the next ``block_bits`` values are present; intersection merges the
    base arrays and ANDs the states of matching blocks.

    This reproduces QFilter's *trade-off*, not just its wins: when
    values cluster (dense neighborhoods), each base comparison covers
    many elements and the kernel beats element-wise merging; when values
    are scattered (sparse graphs), blocks hold ~1 element each and the
    base merge plus mask decoding is pure overhead — the crossover the
    paper's Figure 10 reports.

    >>> QFilterKernel().intersect([1, 3, 5, 200], [3, 5, 6, 200])
    [3, 5, 200]
    """

    name = "qfilter"

    def __init__(self, block_bits: int = 64) -> None:
        if block_bits < 2 or block_bits & (block_bits - 1):
            raise ValueError("block_bits must be a power of two >= 2")
        super().__init__()
        self.block_bits = block_bits

    def _init_args(self) -> tuple:
        return (self.block_bits,)

    def encode(self, values: Sequence[int]) -> _Packed:
        """Pack a sorted list into parallel (bases, states) arrays."""
        shift = self.block_bits.bit_length() - 1
        mask = self.block_bits - 1
        bases: List[int] = []
        states: List[int] = []
        for v in values:
            v = int(v)  # numpy scalars would overflow the state shifts
            base = v >> shift
            if bases and bases[-1] == base:
                states[-1] |= 1 << (v & mask)
            else:
                bases.append(base)
                states.append(1 << (v & mask))
        return bases, states

    @staticmethod
    def _intersect_packed(a: _Packed, b: _Packed) -> _Packed:
        """Merge two BSR encodings without decoding (the QFilter inner loop)."""
        bases_a, states_a = a
        bases_b, states_b = b
        out_bases: List[int] = []
        out_states: List[int] = []
        i = j = 0
        len_a, len_b = len(bases_a), len(bases_b)
        while i < len_a and j < len_b:
            base_a, base_b = bases_a[i], bases_b[j]
            if base_a == base_b:
                bits = states_a[i] & states_b[j]
                if bits:
                    out_bases.append(base_a)
                    out_states.append(bits)
                i += 1
                j += 1
            elif base_a < base_b:
                i += 1
            else:
                j += 1
        return out_bases, out_states

    def decode(self, packed: _Packed) -> List[int]:
        """Unpack a BSR encoding into a sorted list."""
        shift = self.block_bits.bit_length() - 1
        result: List[int] = []
        for base, bits in zip(*packed):
            prefix = base << shift
            while bits:
                low = bits & -bits
                result.append(prefix | (low.bit_length() - 1))
                bits ^= low
        return result

    def intersect(self, a: Sequence[int], b: Sequence[int]) -> List[int]:
        """Intersect two sorted lists through their BSR encodings."""
        return self.decode(
            self._intersect_packed(
                self.encode_cached(a), self.encode_cached(b)
            )
        )

    def multi_intersect(self, lists: Sequence[Sequence[int]]) -> List[int]:
        """Intersect several sorted lists entirely in the packed domain.

        Only the *input* lists are encode-cached; intermediates never
        leave BSR form, so nothing short-lived enters the cache.
        """
        if not lists:
            raise ValueError("multi_intersect requires at least one list")
        ordered = sorted(lists, key=len)
        packed = self.encode_cached(ordered[0])
        for other in ordered[1:]:
            if not packed[0]:
                break
            packed = self._intersect_packed(packed, self.encode_cached(other))
        return self.decode(packed)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

#: Factories, not instances: caching backends (bitset, qfilter) key their
#: encodings on object identity, so each match run gets a fresh cache.
_REGISTRY: Dict[str, Callable[[], KernelBackend]] = {}


def register_kernel(name: str, factory: Callable[[], KernelBackend]) -> None:
    """Register a backend factory under ``name`` (lower-cased)."""
    _REGISTRY[name.lower()] = factory


register_kernel("scalar", ScalarKernel)
register_kernel("numpy", NumpyKernel)
register_kernel("bitset", BitsetKernel)
register_kernel("qfilter", QFilterKernel)


def available_kernels() -> List[str]:
    """All registered backend names, plus the ``"auto"`` selector."""
    return sorted(_REGISTRY) + ["auto"]


def _auto_backend(data=None, candidates=None) -> KernelBackend:
    """The auto heuristic: bitset on dense candidate sets, numpy otherwise.

    ``data`` needs ``num_vertices``; ``candidates`` needs ``average_size``
    (duck-typed so this module stays below the graph/filtering layers).
    """
    if data is not None and candidates is not None:
        universe = getattr(data, "num_vertices", 0)
        avg = getattr(candidates, "average_size", 0.0)
        if universe and avg / universe >= AUTO_DENSITY_THRESHOLD:
            return BitsetKernel()
    return NumpyKernel()


#: What every ``kernel=`` parameter accepts: a registry name, a backend
#: instance, or ``None`` for the ``REPRO_KERNEL``/auto default.
KernelLike = Union[str, KernelBackend, None]


def get_kernel(name: KernelLike = None, *, data=None, candidates=None) -> KernelBackend:
    """Resolve a backend by name.

    ``None`` falls back to the ``REPRO_KERNEL`` environment variable, then
    to ``"auto"``. ``"auto"`` consults the optional ``data``/``candidates``
    context (candidate density) and returns a concrete backend. Backend
    instances pass through unchanged. Unknown names, and anything that is
    neither a name nor a backend, raise
    :class:`~repro.errors.ConfigurationError`.

    >>> get_kernel("scalar").name
    'scalar'
    >>> get_kernel("numpy").multi_intersect([[1, 2, 3], [2, 3, 4]]).tolist()
    [2, 3]
    """
    if isinstance(name, KernelBackend):
        return name
    if name is None:
        name = os.environ.get("REPRO_KERNEL") or "auto"
    elif not isinstance(name, str):
        raise ConfigurationError(
            "kernel must be a backend name or a KernelBackend, "
            f"got {type(name).__name__} {name!r}"
        )
    key = name.strip().lower()
    if key == "auto":
        return _auto_backend(data=data, candidates=candidates)
    try:
        factory = _REGISTRY[key]
    except KeyError:
        known = ", ".join(available_kernels())
        raise ConfigurationError(
            f"unknown kernel backend {name!r}; available: {known}"
        ) from None
    return factory()
