"""Chain construction, truncation projections, families, and gluing."""

from __future__ import annotations

import itertools
from math import comb

import numpy as np
import pytest

from relfix.chain import (
    DomainChain,
    _verify_chain,
    bottom_family,
    build_chain,
    diagonal_family,
    family_from_limit,
    glue_family,
    is_coherent,
    is_uniform_family,
    make_family,
    total_family,
    truncation_projections,
)
from relfix.engines import compare_methods, solve_kleene
from relfix.ep import EpPair
from relfix.errors import (
    DualMismatch,
    InadmissibleRelation,
    LawViolation,
    SizeCapExceeded,
    TypeMismatch,
)
from relfix.functor import Const, Lift, One, Prod, SumSep, Var, eval_map
from relfix.poset import MonotoneMap, chain_poset, identity_map
from relfix.relations import diagonal, rel_from_pairs, total_rel
from relfix.suites import canonical_specs


def test_level_sizes_solve_the_recurrences():
    chains = {
        name: build_chain(f, depth) for name, (f, depth) in canonical_specs().items()
    }
    sizes = {name: [p.n for p in ch.levels] for name, ch in chains.items()}

    # independent recurrences: |X_{k+1}| = |X_k| + 2 for sum(one, D);
    # 2|X_k| + 1 for lift(2 x D); (monotone endomaps of X_k) + 1 for
    # lift(D -> D), where an n-chain has C(2n-1, n) monotone endomaps.
    assert sizes["lazy_nat"] == [1, 3, 5, 7, 9, 11, 13]
    assert sizes["streams"] == [1, 3, 7, 15, 31]
    assert sizes["reflexive"] == [1, 2, 4, 36]
    for name, ch in chains.items():
        for k in range(ch.depth):
            a = sizes[name][k]
            if name == "lazy_nat":
                assert sizes[name][k + 1] == a + 2
            elif name == "streams":
                assert sizes[name][k + 1] == 2 * a + 1
    # every reflexive level is a chain, so the endomap count is binomial
    assert sizes["reflexive"][2] == comb(2 * 2 - 1, 2) + 1
    assert sizes["reflexive"][3] == 35 + 1  # C(7, 4) endomaps of a 4-chain


def test_negative_depth_is_rejected():
    f, _ = canonical_specs()["lazy_nat"]
    with pytest.raises(TypeMismatch):
        build_chain(f, -1)


def test_size_cap_reports_the_failing_level():
    f, _ = canonical_specs()["reflexive"]
    with pytest.raises(SizeCapExceeded) as err:
        build_chain(f, 4)
    assert err.value.details["level"] == 4


def test_truncation_projection_tables_at_small_depth(lazy_chain):
    f, _ = canonical_specs()["lazy_nat"]
    ch = build_chain(f, 2)
    pis, report = truncation_projections(ch)
    assert [pi.table for pi in pis] == [
        (0, 0, 0, 0, 0),
        (0, 1, 2, 2, 2),
        (0, 1, 2, 3, 4),
    ]
    assert all(report["checks"].values())


def test_pi_invariants(chains):
    for ch in chains.values():
        pis = ch.pis
        n = ch.depth
        assert pis[0].table == tuple(ch.top.bottom for _ in range(ch.top.n))
        assert pis[n].is_identity()
        for j in range(n + 1):
            assert (pis[j] @ pis[j]) == pis[j]
            if j < n:
                assert pis[j].pointwise_leq(pis[j + 1])


def test_pi_recurrence_under_level_identification(chains):
    # pi_{j+1} on X_{m+1} is the functor's action on pi_j on X_m
    for ch in chains.values():
        f = ch.functor
        for m in range(ch.depth):
            for j in range(m + 1):
                lhs = ch.level_pi(j + 1, m + 1)
                inner = ch.level_pi(j, m)
                assert lhs == eval_map(f, inner, inner, ch.caps)


def _first_recurrence_failure(ch):
    """The pi recurrence checked one instance at a time, as MonotoneMap
    compositions and eval_map calls: the first (j, level, lhs, rhs) where
    the conjugated pi_{j+1} differs from the functor's action on pi_j."""
    lower = [identity_map(ch.levels[0])]
    for m in range(1, ch.depth + 1):
        step = ch.steps[m - 1]
        rows = [step.e @ pi @ step.p for pi in lower] + [identity_map(ch.levels[m])]
        for j, pi in enumerate(lower):
            rhs = eval_map(ch.functor, pi, pi, ch.caps)
            if rows[j + 1] != rhs:
                return {"j": j, "level": m - 1, "lhs": rows[j + 1].table, "rhs": rhs.table}
        lower = rows
    return None


@pytest.mark.parametrize("name", ["lazy_nat", "streams", "reflexive"])
def test_a_corrupted_step_fails_the_chain_check_with_its_witness(chains, name):
    # one step's embedding sends its top element, or every element, to the
    # bottom; the batched check must fail on the instance the element-wise
    # check fails on first
    ch = chains[name]
    for k, whole in itertools.product(range(1, ch.depth), (False, True)):
        e = ch.steps[k].e
        bent = np.full(e.dom.n, e.cod.bottom) if whole else [*e.arr[:-1], e.cod.bottom]
        bent_step = EpPair(MonotoneMap(e.dom, e.cod, bent), ch.steps[k].p)
        steps = ch.steps[:k] + (bent_step,) + ch.steps[k + 1 :]
        bad = DomainChain(ch.functor, ch.depth, ch.levels, steps, ch.caps)
        want = _first_recurrence_failure(bad)
        assert want is not None and want["level"] == k
        with pytest.raises(LawViolation) as err:
            _verify_chain(bad)
        assert err.value.details["check"] == "pi recurrence"
        assert {key: err.value.details[key] for key in want} == want


def test_ep_pairs_compose_along_the_chain(lazy_chain):
    ch = lazy_chain
    for j in range(ch.depth + 1):
        pair = ch.cums[j]
        assert (pair.p @ pair.e).is_identity()
        assert pair.e.dom == ch.levels[j]
        assert pair.e.cod == ch.top
    # ep(j, n) composes the single steps between j and n
    step_then_step = ch.ep(0, 2)
    assert step_then_step.e == ch.steps[1].e @ ch.steps[0].e
    assert step_then_step.p == ch.steps[0].p @ ch.steps[1].p


@pytest.mark.parametrize(
    "f, depth",
    [
        (Lift(Prod(Const(chain_poset(2), diagonal(chain_poset(2))), Var())), 8),
        (SumSep(One(), Var()), 40),
    ],
    ids=["streams_d8", "lazy_nat_d40"],
)
def test_build_and_solve_read_maps_as_arrays_only(f, depth, monkeypatch):
    # the tuple view is for reports and witnesses; a hot path that reads it
    # converts every map it touches (streams d10 build once took 5x longer)
    views = []
    monkeypatch.setattr(MonotoneMap, "table", property(lambda m: views.append(m)))
    ch = build_chain(f, depth)
    report = compare_methods(ch)
    assert report["agreement"] and report["uniform"]
    assert views == []
    # no cache of composites: the steps, the depth + 1 cumulative pairs and
    # the table of the relational action
    assert sorted(vars(ch)) == ["caps", "cums", "depth", "functor", "levels", "rel_table", "steps"]
    assert len(ch.steps) == depth and len(ch.cums) == depth + 1
    for j, pair in enumerate(ch.cums):
        assert pair.dom == ch.levels[j] and pair.cod == ch.top


def test_make_family_validation(lazy_chain):
    ch = lazy_chain
    levels = ch.levels
    with pytest.raises(TypeMismatch):
        make_family(ch, [diagonal(levels[0])] * (ch.depth + 1))
    rels = [diagonal(p) for p in levels]
    rels[1] = rel_from_pairs(levels[1], [(1, 1)])
    with pytest.raises(InadmissibleRelation):
        make_family(ch, rels)


def test_standard_families(lazy_chain):
    ch = lazy_chain
    assert all(len(r) == p.n * p.n for r, p in zip(total_family(ch), ch.levels))
    assert all(len(r) == 1 for r in bottom_family(ch))
    diag = diagonal_family(ch)
    assert is_uniform_family(diag)
    assert is_coherent(diag)


def test_incoherent_family_fails_to_glue():
    f, _ = canonical_specs()["lazy_nat"]
    ch = build_chain(f, 2)
    x0, x1, x2 = ch.levels
    fam = make_family(ch, [diagonal(x0), total_rel(x1), diagonal(x2)])
    assert not is_coherent(fam)
    assert not is_uniform_family(fam)
    with pytest.raises(DualMismatch) as err:
        glue_family(ch, fam)
    assert err.value.details["only_direct"]  # embedded pairs the limit lost


def test_glue_and_family_from_limit_round_trip(chains):
    for ch in chains.values():
        fam = solve_kleene(ch)
        glued = glue_family(ch, fam)
        back = family_from_limit(ch, glued)
        assert all(back[m] == fam[m] for m in range(ch.depth + 1))
