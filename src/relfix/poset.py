"""Finite pointed posets and monotone maps.

Conventions
-----------
* Elements of a poset of size n are the ids 0..n-1.
* The order is a dense boolean matrix ``leq`` with ``leq[i, j]`` meaning
  i is below j.  The matrix is read-only.
* Every poset is pointed: it has a least element, and after canonicalization
  that element is id 0.
* Canonical form: elements are stably sorted by height (length of the longest
  chain below), which is a linear-extension rank.  Height is invariant under
  relabeling, so canonicalizing twice equals canonicalizing once.
* Each element carries a descriptor in ``elems`` (an id, a pair, an injection
  tag, or a map table) so that structural constructions can act on elements
  concretely.  Descriptors are metadata: equality of posets compares order
  structure only.
* A monotone map is one read-only int64 array of image ids.  Hot paths read
  the array (and its bytes, for equality, hashing and cache keys); the
  tuple view ``table`` is for reports and witnesses.
"""

from __future__ import annotations

import hashlib
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from .config import Caps, DEFAULT_CAPS
from .errors import (
    NoLeastElement,
    NotAPartialOrder,
    NotMonotone,
    SizeCapExceeded,
    TypeMismatch,
)


def _heights(leq: np.ndarray) -> np.ndarray:
    """Longest-chain height of each element, computed from a raw matrix:
    the minimal elements of what is left form the next height layer."""
    n = leq.shape[0]
    lt = leq & ~np.eye(n, dtype=bool)
    heights = np.zeros(n, dtype=np.int64)
    left = np.ones(n, dtype=bool)
    for h in range(n):
        layer = left & ~lt[left].any(axis=0)
        heights[layer] = h
        left &= ~layer
        if not left.any():
            break
    return heights


class FinPoset:
    """A finite pointed poset in canonical form.

    Do not call the constructor directly; use validate_poset or the
    construction functions, which bring it to canonical form and check
    pointedness.
    """

    def __init__(
        self,
        leq: np.ndarray,
        bottom: int,
        elems: tuple,
        label: str | None = None,
        heights: np.ndarray | None = None,
        rank: np.ndarray | None = None,
    ):
        leq = np.asarray(leq, dtype=bool)
        leq.setflags(write=False)
        self.leq = leq
        self.n = leq.shape[0]
        self.bottom = bottom
        self.elems = elems
        self.label = label
        # for a poset built from a layout (see _canonical_build): the id of
        # each layout element; None otherwise
        self.rank = rank
        if heights is not None:  # known to the builder: no scan
            heights.setflags(write=False)
            self.heights = heights

    # -- identity ---------------------------------------------------------

    @cached_property
    def _key(self) -> tuple:
        """A 16-byte digest in place of a second copy of the order matrix."""
        digest = hashlib.blake2b(np.ascontiguousarray(self.leq), digest_size=16).digest()
        return (self.n, self.bottom, digest)

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, FinPoset) and self._key == other._key
                                 and self.leq.tobytes() == other.leq.tobytes())

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        name = self.label or "poset"
        return f"<{name}: {self.n} elements>"

    # -- structure --------------------------------------------------------

    def le(self, i: int, j: int) -> bool:
        return bool(self.leq[i, j])

    @cached_property
    def heights(self) -> np.ndarray:
        h = _heights(self.leq)
        h.setflags(write=False)
        return h

    @cached_property
    def covers(self) -> np.ndarray:
        """covers[i, j] iff j covers i (i < j with nothing strictly between)."""
        lt = self.leq & ~np.eye(self.n, dtype=bool)
        between = (lt.astype(np.int32) @ lt.astype(np.int32)) > 0
        cov = lt & ~between
        cov.setflags(write=False)
        return cov

    @cached_property
    def elem_index(self) -> dict:
        idx = {d: i for i, d in enumerate(self.elems)}
        if len(idx) != self.n:
            raise TypeMismatch("duplicate element descriptors", label=self.label)
        return idx

    def to_dot(self, name: str = "poset") -> str:
        """Hasse diagram in DOT format: nodes plus covering edges only.

        Each node is labelled with its id.  Descriptors are not used: equal
        posets share cached constructions, so elems can be another equal
        poset's (chain_poset(2) == lift(one())).
        """
        lines = [f"digraph {name} {{", "  rankdir=BT;"]
        lines += [f'  {i} [label="{i}"];' for i in range(self.n)]
        cov = self.covers
        for i in range(self.n):
            for j in np.flatnonzero(cov[i]):
                lines.append(f"  {i} -> {int(j)};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _canonical_build(
    leq: np.ndarray, elems: tuple, label: str | None, heights: np.ndarray | None = None
) -> FinPoset:
    """Relabel a layout (leq and elems in any element order) along the
    stable height sort and locate the bottom; the poset's rank is the new
    id of each layout element.  A construction that knows the heights
    passes them; otherwise they are scanned from leq."""
    if heights is None:
        heights = _heights(leq)
    perm = np.argsort(heights, kind="stable")
    leq2 = leq.take(perm, 0).take(perm, 1)
    elems2 = tuple(elems[p] for p in perm)
    if not leq2[0].all():
        bad = int(np.flatnonzero(~leq2[0])[0])
        raise NoLeastElement(
            "no least element", candidate=elems2[0], not_above=elems2[bad]
        )
    rank = np.empty(len(perm), dtype=np.int64)
    rank[perm] = np.arange(len(perm))
    rank.setflags(write=False)
    return FinPoset(leq2, 0, elems2, label, heights[perm], rank)


def validate_poset(
    n: int,
    le_pairs: Iterable[tuple[int, int]],
    bottom: int,
    label: str | None = None,
    caps: Caps = DEFAULT_CAPS,
) -> FinPoset:
    """Build a poset from generating pairs, closing under transitivity.

    Raises SizeCapExceeded before allocating, NotAPartialOrder (with the
    offending pair) on cycles and NoLeastElement if ``bottom`` is not below
    every element.
    """
    if n <= 0:
        raise NotAPartialOrder("a poset needs at least one element", size=n)
    _check_size(n, caps, "poset")
    leq = np.eye(n, dtype=bool)
    for i, j in le_pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise NotAPartialOrder("pair out of range", pair=(i, j), size=n)
        leq[i, j] = True
    for k in range(n):  # Warshall closure
        leq |= np.outer(leq[:, k], leq[k, :])
    both = leq & leq.T & ~np.eye(n, dtype=bool)
    if both.any():
        i, j = map(int, np.argwhere(both)[0])
        raise NotAPartialOrder("antisymmetry", axiom="antisymmetry", pair=(i, j))
    if not (0 <= bottom < n):
        raise NoLeastElement("bottom id out of range", bottom=bottom, size=n)
    if not leq[bottom].all():
        bad = int(np.flatnonzero(~leq[bottom])[0])
        raise NoLeastElement("claimed bottom is not least", bottom=bottom, not_above=bad)
    return _canonical_build(leq, tuple(range(n)), label)


def one(label: str = "one") -> FinPoset:
    return FinPoset(np.ones((1, 1), dtype=bool), 0, (0,), label)


def chain_poset(n: int, label: str | None = None, caps: Caps = DEFAULT_CAPS) -> FinPoset:
    if n <= 0:
        raise NotAPartialOrder("a chain needs at least one element", size=n)
    _check_size(n, caps, "chain")
    leq = np.triu(np.ones((n, n), dtype=bool))
    return FinPoset(leq, 0, tuple(range(n)), label or f"chain({n})")


def vee() -> FinPoset:
    """Three elements: bottom under two incomparable points."""
    return validate_poset(3, [(0, 1), (0, 2)], 0, label="vee")


def small_pointed_posets() -> list:
    """All pointed posets with at most 3 elements, up to canonical form."""
    return [one(), chain_poset(2), chain_poset(3), vee()]


# ---------------------------------------------------------------------------
# monotone maps
# ---------------------------------------------------------------------------


class MonotoneMap:
    """A monotone map between finite posets, stored as one read-only int64
    array: arr[x] is the image of x.  Composition is a gather, and equality
    and hashing go through key, the array's bytes; table is a tuple view of
    arr, built on first use, for reports and witnesses."""

    __slots__ = ("dom", "cod", "arr", "key", "_table", "_hash")

    def __init__(self, dom: FinPoset, cod: FinPoset, table: Sequence[int] | np.ndarray):
        arr = np.array(table, dtype=np.int64)
        arr.setflags(write=False)
        self.dom = dom
        self.cod = cod
        self.arr = arr
        self.key = arr.tobytes()
        self._table = self._hash = None

    @property
    def table(self) -> tuple:
        if self._table is None:
            self._table = tuple(self.arr.tolist())
        return self._table

    def __call__(self, x: int) -> int:
        return int(self.arr[x])

    def __matmul__(self, other: "MonotoneMap") -> "MonotoneMap":
        """(f @ g)(x) = f(g(x))."""
        if other.cod != self.dom:
            raise TypeMismatch("composition domain mismatch")
        return MonotoneMap(other.dom, self.cod, self.arr[other.arr])

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, MonotoneMap)
            and self.key == other.key
            and self.dom == other.dom
            and self.cod == other.cod
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.dom, self.cod, self.key))
        return self._hash

    def __repr__(self) -> str:
        return f"MonotoneMap({self.arr.tolist()})"

    def is_identity(self) -> bool:
        return self.dom == self.cod and self.key == np.arange(self.dom.n).tobytes()

    def pointwise_leq(self, other: "MonotoneMap") -> bool:
        if self.dom != other.dom or self.cod != other.cod:
            raise TypeMismatch("pointwise comparison needs equal dom/cod")
        return bool(self.cod.leq[self.arr, other.arr].all())

    def check(self) -> None:
        w = monotonicity_witness(self.dom, self.cod, self.arr)
        if w is not None:
            raise NotMonotone("table is not monotone", witness=w)


def monotonicity_witness(dom: FinPoset, cod: FinPoset, arr: np.ndarray):
    """A pair (i, j) with i <= j but arr[i] !<= arr[j], or None."""
    if arr.size != dom.n:
        return ("arity", arr.size)
    if arr.size and (arr.min() < 0 or arr.max() >= cod.n):
        return ("range", int(arr.max()))
    bad = dom.leq & ~cod.leq.take(arr, 0).take(arr, 1)
    if bad.any():
        i, j = map(int, np.argwhere(bad)[0])
        return (i, j)
    return None


def monotone_map(dom: FinPoset, cod: FinPoset, table: Sequence[int]) -> MonotoneMap:
    m = MonotoneMap(dom, cod, table)
    m.check()
    return m


def identity_map(p: FinPoset) -> MonotoneMap:
    return MonotoneMap(p, p, np.arange(p.n))


def const_map(dom: FinPoset, cod: FinPoset, value: int) -> MonotoneMap:
    return MonotoneMap(dom, cod, np.full(dom.n, value))


def bottom_map(dom: FinPoset, cod: FinPoset) -> MonotoneMap:
    return const_map(dom, cod, cod.bottom)


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def _check_size(n: int, caps: Caps, what: str, **extra) -> None:
    if n > caps.max_elements:
        raise SizeCapExceeded(
            f"{what} would have {n} elements", size=n, cap=caps.max_elements, **extra
        )
    if n * n > caps.max_pairs:
        raise SizeCapExceeded(
            f"{what} order matrix would have {n * n} entries",
            size=n * n,
            cap=caps.max_pairs,
            **extra,
        )


# The three structural constructions lay their elements out as the fresh
# bottom (if any), then the components' elements in order, and pass every
# height: 0 for the fresh bottom, a component's height + 1 for an injected
# element, and the sum of the components' heights for a pair.


def lift(x: FinPoset, caps: Caps = DEFAULT_CAPS) -> FinPoset:
    """One fresh bottom strictly below an embedded copy of x (layout: the
    bottom, then up(i) for each element i of x)."""
    n = x.n + 1
    _check_size(n, caps, "lift")
    leq = np.zeros((n, n), dtype=bool)
    leq[0, :] = True
    leq[1:, 1:] = x.leq
    elems = ("bot",) + tuple(("up", d) for d in x.elems)
    return _canonical_build(leq, elems, None, np.r_[0, x.heights + 1])


def product(x: FinPoset, y: FinPoset, caps: Caps = DEFAULT_CAPS) -> FinPoset:
    """Cartesian product with the componentwise order (layout: the pair
    (i, j) at i * y.n + j)."""
    n = x.n * y.n
    _check_size(n, caps, "product")
    leq = np.kron(x.leq, y.leq)
    elems = tuple((dx, dy) for dx in x.elems for dy in y.elems)
    return _canonical_build(leq, elems, None, np.add.outer(x.heights, y.heights).ravel())


def sum_sep(x: FinPoset, y: FinPoset, caps: Caps = DEFAULT_CAPS) -> FinPoset:
    """Separated sum: a fresh bottom below two incomparable injected copies
    (layout: the bottom, then inl of x's elements, then inr of y's)."""
    n = 1 + x.n + y.n
    _check_size(n, caps, "separated sum")
    leq = np.zeros((n, n), dtype=bool)
    leq[0, :] = True
    leq[1 : 1 + x.n, 1 : 1 + x.n] = x.leq
    leq[1 + x.n :, 1 + x.n :] = y.leq
    elems = (
        ("bot",)
        + tuple(("inl", d) for d in x.elems)
        + tuple(("inr", d) for d in y.elems)
    )
    return _canonical_build(leq, elems, None, np.r_[0, x.heights + 1, y.heights + 1])


def enumerate_monotone_maps(x: FinPoset, y: FinPoset, max_count: int | None = None):
    """Yield every monotone table x -> y as a tuple, in lexicographic order.

    Enumeration walks elements in canonical order (a linear extension), so a
    candidate value only has to sit above the images of already-assigned
    covers.  Aborts with SizeCapExceeded once more than max_count tables
    have been produced.
    """
    cover_preds = [list(map(int, np.flatnonzero(x.covers[:, i]))) for i in range(x.n)]
    table = [0] * x.n
    count = 0

    def rec(i: int):
        nonlocal count
        if i == x.n:
            count += 1
            if max_count is not None and count > max_count:
                raise SizeCapExceeded(
                    "monotone map enumeration exceeded cap",
                    cap=max_count,
                    dom=x.n,
                    cod=y.n,
                )
            yield tuple(table)
            return
        mask = np.ones(y.n, dtype=bool)
        for j in cover_preds[i]:
            mask &= y.leq[table[j]]
        for v in map(int, np.flatnonzero(mask)):
            table[i] = v
            yield from rec(i + 1)

    yield from rec(0)


@lru_cache(maxsize=None)
def monotone_tables(x: FinPoset, y: FinPoset, max_count: int | None = None) -> np.ndarray:
    """Every monotone table x -> y as one read-only (m, x.n) int64 array, in
    enumerate_monotone_maps order, enumerated once per (x, y, max_count) per
    process.  Over the cap every call raises: lru_cache caches no exception.
    The array is never empty, since every constant map is monotone."""
    arr = np.array(list(enumerate_monotone_maps(x, y, max_count)), dtype=np.int64)
    arr.setflags(write=False)
    return arr


def table_positions(x: FinPoset, y: FinPoset, tables: np.ndarray) -> np.ndarray:
    """The index in monotone_tables(x, y) of each table x -> y (last axis of
    tables), or -1 if missing, by radix-y.n codes, ascending as enumerated."""
    assert y.n ** x.n < 2**63, "radix codes would wrap"
    radix = y.n ** np.arange(x.n)[::-1]
    codes, want = monotone_tables(x, y) @ radix, tables @ radix
    at = np.searchsorted(codes, want).clip(max=len(codes) - 1)
    return np.where(codes[at] == want, at, -1)


def hom_poset(x: FinPoset, y: FinPoset, caps: Caps = DEFAULT_CAPS) -> FinPoset:
    """All monotone maps x -> y under the pointwise order.

    Elements are tagged with their map tables; the bottom is the constant
    bottom map.
    """
    tables = list(enumerate_monotone_maps(x, y, max_count=caps.max_elements))
    m = len(tables)
    _check_size(m, caps, "hom poset", dom=x.n, cod=y.n)
    arr = np.array(tables, dtype=np.int64)
    leq = np.ones((m, m), dtype=bool)
    for col in arr.T:
        leq &= y.leq.take(col, 0).take(col, 1)
    return _canonical_build(leq, tuple(tables), None)
