"""Embedding-projection pairs between finite pointed posets."""

from __future__ import annotations

import numpy as np

from .errors import NotAnEmbedding, NotEp, TypeMismatch
from .poset import FinPoset, MonotoneMap, bottom_map, identity_map, monotonicity_witness


class EpPair:
    """An embedding e : X -> Y with its projection p : Y -> X.

    Laws: p after e is the identity on X, and e after p sits below the
    identity on Y.  Each half determines the other.
    """

    __slots__ = ("e", "p")

    def __init__(self, e: MonotoneMap, p: MonotoneMap):
        self.e = e
        self.p = p

    @property
    def dom(self) -> FinPoset:
        return self.e.dom

    @property
    def cod(self) -> FinPoset:
        return self.e.cod

    def __eq__(self, other) -> bool:
        return isinstance(other, EpPair) and self.e == other.e and self.p == other.p

    def __hash__(self) -> int:
        return hash((self.e, self.p))

    def __repr__(self) -> str:
        return f"EpPair({self.dom.n} -> {self.cod.n})"


def verify_ep_pair(e: MonotoneMap, p: MonotoneMap) -> EpPair:
    """Check both laws and package the pair; raises NotEp with a witness,
    the least element where the law fails."""
    if e.cod != p.dom or p.cod != e.dom:
        raise TypeMismatch("e and p do not connect the same two posets")
    e.check()
    p.check()
    bad = p.arr.take(e.arr) != np.arange(e.dom.n)
    if bad.any():
        raise NotEp("p(e(x)) differs from x", law="retraction", witness=int(bad.argmax()))
    bad = ~e.cod.leq[e.arr.take(p.arr), np.arange(e.cod.n)]
    if bad.any():
        raise NotEp("e(p(y)) is not below y", law="deflation", witness=int(bad.argmax()))
    return EpPair(e, p)


def projection_of(e: MonotoneMap, cross_check: bool = False) -> MonotoneMap:
    """The unique projection for an embedding, by greatest approximant.

    p(y) is the greatest x with e(x) below y; NotAnEmbedding if some y has
    no greatest such x.  With cross_check=True the formula is compared
    against an exhaustive search over candidate tables.
    """
    x_poset, y_poset = e.dom, e.cod
    table = []
    for y in range(y_poset.n):
        below = np.flatnonzero(y_poset.leq[e.arr, y])
        if not below.size:
            raise NotAnEmbedding("no approximant below", element=y)
        greatest = [x for x in below.tolist() if x_poset.leq[below, x].all()]
        if not greatest:
            raise NotAnEmbedding("approximants have no greatest element", element=y)
        table.append(greatest[0])
    p = MonotoneMap(y_poset, x_poset, table)
    verify_ep_pair(e, p)
    if cross_check:
        assert _projection_by_search(e) == p.table
    return p


def _projection_by_search(e: MonotoneMap):
    """All candidate tables, keeping the unique one satisfying both laws."""
    from itertools import product as iproduct

    x_poset, y_poset = e.dom, e.cod
    found = []
    for cand in iproduct(range(x_poset.n), repeat=y_poset.n):
        if any(cand[e(x)] != x for x in range(x_poset.n)):
            continue
        if any(not y_poset.le(e(cand[y]), y) for y in range(y_poset.n)):
            continue
        if monotonicity_witness(y_poset, x_poset, np.array(cand)) is not None:
            continue
        found.append(cand)
    assert len(found) == 1, f"projection not unique: {len(found)} candidates"
    return found[0]


def compose_ep(f: EpPair, g: EpPair) -> EpPair:
    """First f, then g (f : X -> Y, g : Y -> Z gives X -> Z)."""
    if f.cod != g.dom:
        raise TypeMismatch("ep composition mismatch")
    return EpPair(g.e @ f.e, f.p @ g.p)


def identity_ep(x: FinPoset) -> EpPair:
    i = identity_map(x)
    return EpPair(i, i)


def bottom_ep(unit: FinPoset, x: FinPoset) -> EpPair:
    """The least pair from the one-point poset into x."""
    if unit.n != 1:
        raise TypeMismatch("bottom pair starts from the one-point poset")
    return verify_ep_pair(bottom_map(unit, x), bottom_map(x, unit))
