"""Embedding/projection pairs and their composition."""

from __future__ import annotations

import itertools

import pytest

from relfix.ep import (
    EpPair,
    bottom_ep,
    compose_ep,
    identity_ep,
    projection_of,
    verify_ep_pair,
)
from relfix.errors import NotAnEmbedding, NotEp, TypeMismatch
from relfix.poset import (
    MonotoneMap,
    chain_poset,
    enumerate_monotone_maps,
    identity_map,
    monotone_map,
    one,
    small_pointed_posets,
    validate_poset,
)

C2 = chain_poset(2)
C3 = chain_poset(3)


def test_verify_ep_pair_accepts_a_section_retraction():
    e = monotone_map(C2, C3, (0, 2))
    p = monotone_map(C3, C2, (0, 0, 1))  # greatest x with e(x) below y
    ep = verify_ep_pair(e, p)
    assert (ep.p @ ep.e).is_identity()
    assert (ep.e @ ep.p).pointwise_leq(identity_map(C3))


def test_verify_ep_pair_rejects_a_bad_retraction():
    e = monotone_map(C2, C3, (0, 2))
    bad = monotone_map(C3, C2, (0, 1, 1))  # e(bad(1)) = 2, not below 1
    with pytest.raises(NotEp):
        verify_ep_pair(e, bad)


def test_verify_ep_pair_rejects_ep_above_identity():
    # e(p(x)) must sit below x; embedding the point at the *top* breaks that.
    e = monotone_map(one(), C2, (1,))
    p = monotone_map(C2, one(), (0, 0))
    with pytest.raises(NotEp):
        verify_ep_pair(e, p)


def test_projection_is_determined_by_the_embedding():
    e = monotone_map(C2, C3, (0, 2))
    p = projection_of(e, cross_check=True)
    assert p.table == (0, 0, 1)
    assert verify_ep_pair(e, p)


def test_projection_of_needs_an_approximant_below():
    top_only = monotone_map(one(), C2, (1,))
    with pytest.raises(NotAnEmbedding):
        projection_of(top_only)


def test_projection_of_needs_a_greatest_approximant():
    vee = validate_poset(3, [(0, 1), (0, 2)], 0)
    diamond = validate_poset(4, [(0, 1), (0, 2), (1, 3), (2, 3)], 0)
    e = monotone_map(vee, diamond, (0, 1, 2))
    with pytest.raises(NotAnEmbedding):
        projection_of(e)  # approximants of the diamond top are the two arms


def test_projection_of_a_collapse_fails_the_retraction_law():
    collapse = monotone_map(C2, C3, (0, 0))
    with pytest.raises(NotEp):
        projection_of(collapse)


def test_bottom_ep_embeds_the_point_at_bottom():
    ep = bottom_ep(one(), C3)
    assert ep.e.table == (0,)
    assert ep.p.table == (0, 0, 0)


def test_identity_and_composition():
    ep1 = bottom_ep(one(), C2)
    ep2 = verify_ep_pair(
        monotone_map(C2, C3, (0, 2)), monotone_map(C3, C2, (0, 0, 1))
    )
    both = compose_ep(ep1, ep2)
    assert both.e.table == (0,)
    assert both.p.table == (0, 0, 0)
    ident = identity_ep(C3)
    assert compose_ep(ep2, ident).e == ep2.e
    assert compose_ep(identity_ep(C2), ep2).p == ep2.p


def test_compose_ep_requires_matching_middles():
    with pytest.raises(TypeMismatch):
        compose_ep(bottom_ep(one(), C2), bottom_ep(one(), C3))


def _loop_ep_laws(e, p):
    """The first failing ep law and its witness by element loops, or None."""
    for x in range(e.dom.n):
        if p.table[e.table[x]] != x:
            return "retraction", x
    for y in range(e.cod.n):
        if not e.cod.le(e.table[p.table[y]], y):
            return "deflation", y
    return None


def test_verify_ep_pair_fails_like_the_element_loops():
    # every pair of monotone maps x -> y -> x over the small posets
    posets = small_pointed_posets()
    outcomes = {"retraction": 0, "deflation": 0, None: 0}
    for x, y in itertools.product(posets, repeat=2):
        for et in enumerate_monotone_maps(x, y):
            for pt in enumerate_monotone_maps(y, x):
                e, p = MonotoneMap(x, y, et), MonotoneMap(y, x, pt)
                want = _loop_ep_laws(e, p)
                if want is None:
                    assert verify_ep_pair(e, p) == EpPair(e, p)
                else:
                    with pytest.raises(NotEp) as err:
                        verify_ep_pair(e, p)
                    assert (err.value.details["law"], err.value.details["witness"]) == want
                    assert type(err.value.details["witness"]) is int
                outcomes[want and want[0]] += 1
    assert all(outcomes.values())
