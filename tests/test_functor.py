"""The functor DSL: polarities, object/map/relation/ep actions, laws."""

from __future__ import annotations

import itertools
from math import comb

import pytest

from relfix import engines, functor
from relfix.chain import build_chain
from relfix.config import DEFAULT_CAPS, Caps
from relfix.engines import compare_methods
from relfix.errors import (
    InadmissibleRelation,
    LawViolation,
    SizeCapExceeded,
    TypeMismatch,
)
from relfix.functor import (
    Const,
    Fun,
    Lift,
    One,
    Prod,
    SumSep,
    Var,
    check_functor_laws,
    eval_ep,
    eval_map,
    eval_obj,
    eval_rel,
    hom_map,
    is_covariant,
    to_src,
    validate_functor,
    var_polarities,
)
from relfix.poset import chain_poset, identity_map, one
from relfix.relations import (
    bottom_rel,
    diagonal,
    rel_from_matrix,
    rel_from_pairs,
    total_rel,
)

C2 = chain_poset(2)

LAZY = SumSep(One(), Var())
STREAM = Lift(Prod(Const(C2, diagonal(C2)), Var()))
REFLEX = Lift(Fun(Var(), Var()))


def test_polarities():
    assert var_polarities(LAZY) == frozenset({1})
    assert var_polarities(REFLEX) == frozenset({1, -1})
    assert var_polarities(Fun(Var(), One())) == frozenset({-1})
    assert is_covariant(LAZY) and is_covariant(STREAM)
    assert not is_covariant(REFLEX)


def test_to_src_round_trips_through_the_grammar():
    assert to_src(LAZY) == "sum(one, D)"
    assert to_src(REFLEX) == "lift(fun(D, D))"
    assert "const(" in to_src(STREAM)


def test_validate_functor_rejects_inadmissible_const():
    bad = Const(C2, rel_from_pairs(C2, [(1, 1)]))
    with pytest.raises(InadmissibleRelation):
        validate_functor(Lift(bad))


def test_validate_functor_rejects_carrier_mismatch():
    bad = Const(C2, diagonal(chain_poset(3)))
    with pytest.raises(TypeMismatch):
        validate_functor(bad)


def test_eval_obj_sizes_follow_the_constructions():
    # |sum(one, X)| = |X| + 2, |lift(2 x X)| = 2|X| + 1,
    # |lift(X -> X)| = (number of monotone endomaps) + 1.
    for k in (1, 2, 5):
        x = chain_poset(k)
        assert eval_obj(LAZY, x, x).n == k + 2
        assert eval_obj(STREAM, x, x).n == 2 * k + 1
        assert eval_obj(REFLEX, x, x).n == comb(2 * k - 1, k) + 1


def test_eval_obj_mixed_variance_uses_both_arguments():
    c3 = chain_poset(3)
    h = eval_obj(Fun(Var(), Var()), C2, c3)  # maps from the neg slot
    assert h.n == comb(2 + 3 - 1, 2)


def test_eval_map_identity_and_known_collapse():
    from relfix.poset import const_map

    x = chain_poset(3)
    assert eval_map(LAZY, identity_map(x), identity_map(x)).is_identity()
    # sum(one, -) applied to the constant-bottom endomap: the right
    # summand collapses onto its injected bottom, the rest stays fixed.
    collapsed = eval_map(LAZY, None, const_map(x, x, x.bottom))
    assert collapsed.table == (0, 1, 2, 2, 2)


def test_eval_rel_on_the_sum_functor():
    x = chain_poset(2)
    fx = eval_obj(LAZY, x, x)
    # the summed relation of total inputs keeps the summands apart
    out_total = eval_rel(LAZY, total_rel(x), total_rel(x))
    assert out_total.carrier == fx
    assert (fx.bottom, fx.bottom) in out_total
    assert len(out_total) < fx.n * fx.n
    # 1 bottom pair + 1x1 left block + 2x2 right block
    assert len(out_total) == 1 + 1 + 4


def test_eval_rel_of_diagonals_is_the_diagonal():
    x = chain_poset(2)
    for f in (LAZY, STREAM, REFLEX):
        fx = eval_obj(f, x, x)
        assert eval_rel(f, diagonal(x), diagonal(x)) == diagonal(fx)


def test_eval_rel_rejects_inadmissible_inputs():
    with pytest.raises(InadmissibleRelation):
        eval_rel(LAZY, rel_from_pairs(C2, [(1, 1)]), rel_from_pairs(C2, [(1, 1)]))


def _slot(f, rneg, spos, caps):
    """The last-call cache slot of an eval_rel call."""
    return (f, caps) + tuple(None if r is None else r.carrier for r in (rneg, spos))


@pytest.fixture
def fresh_rel_cache(monkeypatch):
    """An empty last-call cache, and a count of the _eval_rel runs that
    answer eval_rel calls (recursive runs inside one call not counted)."""
    monkeypatch.setattr(functor, "_last_rel", {})
    runs = [0]
    depth = [0]
    real = functor._eval_rel

    def counted(*args):
        runs[0] += depth[0] == 0
        depth[0] += 1
        try:
            return real(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(functor, "_eval_rel", counted)
    return runs


@pytest.mark.parametrize("f, depth", [(LAZY, 40), (REFLEX, 3)])
def test_eval_rel_runs_once_per_change_of_inputs_at_a_slot(
    monkeypatch, fresh_rel_cache, f, depth
):
    calls = []

    def recorded(f, rneg, spos, caps=DEFAULT_CAPS):
        calls.append((f, rneg, spos, caps))
        return eval_rel(f, rneg, spos, caps)

    monkeypatch.setattr(engines, "eval_rel", recorded)
    compare_methods(build_chain(f, depth))
    # the oracle: a call runs _eval_rel exactly when its inputs differ
    # from those of the previous call at the same slot
    last, changed = {}, 0
    for g, rneg, spos, caps in calls:
        slot = _slot(g, rneg, spos, caps)
        changed += last.get(slot) != (rneg, spos)
        last[slot] = (rneg, spos)
    assert 0 < changed < len(calls)
    assert fresh_rel_cache[0] == changed
    assert set(functor._last_rel) == set(last)


def test_eval_rel_answers_interleaved_calls_like_a_fresh_run(fresh_rel_cache):
    c3 = chain_poset(3)
    pools = [
        [bottom_rel(p), diagonal(p), rel_from_matrix(p, p.leq), total_rel(p)]
        for p in (C2, c3)
    ]
    rels = pools[0] + pools[1]
    caps_pair = (DEFAULT_CAPS, Caps(max_elements=10_000))
    instances = list(itertools.product((REFLEX, Fun(Var(), Var())), caps_pair, rels, rels))
    # each instance twice in a row, then the whole list again with neg and
    # pos swapped, then once more in the first order
    seq = [i for i in instances for _ in range(2)]
    seq += [(f, caps, s, r) for f, caps, r, s in instances] + instances
    for f, caps, r, s in seq:
        assert eval_rel(f, r, s, caps) == functor._eval_rel(f, r, s, caps)
    slots = {_slot(f, r, s, caps) for f, caps, r, s in instances}
    assert set(functor._last_rel) == slots


def test_a_call_over_its_cap_leaves_no_cache_entry(fresh_rel_cache):
    f = Prod(Var(), Var())
    c3 = chain_poset(3)
    with pytest.raises(SizeCapExceeded):
        eval_rel(f, None, total_rel(c3), Caps(max_pairs=50))
    assert functor._last_rel == {}
    assert fresh_rel_cache[0] == 1


def test_eval_ep_produces_valid_pairs():
    from relfix.ep import bottom_ep

    step = bottom_ep(one(), eval_obj(LAZY, one(), one()))
    for f in (LAZY, STREAM, REFLEX):
        base = bottom_ep(one(), eval_obj(f, one(), one()))
        lifted = eval_ep(f, base)
        assert (lifted.p @ lifted.e).is_identity()
        assert (lifted.e @ lifted.p).pointwise_leq(identity_map(lifted.cod))


def test_functor_laws_hold_for_the_canonical_three():
    for f in (LAZY, STREAM, REFLEX):
        report = check_functor_laws(f, budget=2000)
        assert set(report["laws"]) == {
            "identity",
            "composition",
            "monotonicity",
            "relational",
        }
        for law in report["laws"].values():
            assert law["instances"] > 0


def test_broken_composition_action_is_caught():
    def swapped(f, neg, pos, caps=None):
        # flip the two halves of the hom action on endo-typed instances:
        # identities still map to identities, but composition breaks
        endo = neg.dom == neg.cod and pos.dom == pos.cod and neg.dom == pos.dom
        if isinstance(f, Fun) and endo:
            return hom_map(pos, neg) if caps is None else hom_map(pos, neg, caps)
        return eval_map(f, neg, pos) if caps is None else eval_map(f, neg, pos, caps)

    with pytest.raises(LawViolation) as err:
        check_functor_laws(Fun(Var(), Var()), budget=5000, action=swapped)
    assert err.value.details["law"] in ("composition", "relational")
