"""The three fixed-point engines and their agreement."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from relfix.chain import (
    bottom_family,
    build_chain,
    diagonal_family,
    glue_family,
    make_family,
    total_family,
)
from relfix.engines import (
    check_uniform,
    compare_methods,
    psi_step,
    solve_banach,
    solve_kleene,
    solve_knaster_tarski,
)
from relfix import engines
from relfix.dsl import parse_spec
from relfix.errors import InternalInvariantViolation, NegPosMismatch, NotContractive
from relfix.functor import Const, Fun, Lift, Prod, Var
from relfix.poset import chain_poset, hom_poset, lift, one, product
from relfix.relations import BinRel, bottom_index, rel_from_pairs, total_rel
from relfix.suites import canonical_specs


def test_diagonal_family_is_the_psi_fixed_point(chains):
    # For all three canonical functors the relational action sends
    # diagonals to diagonals, so the diagonal family solves R = Psi(R).
    for ch in chains.values():
        diag = diagonal_family(ch)
        out = psi_step(ch, diag)
        assert all(out[m] == diag[m] for m in range(ch.depth + 1))


def test_knaster_tarski_closes_the_pair(solved):
    for name, report in solved.items():
        assert report["agreement"] is True
        assert report["fixed_point_equation"] is True


def test_kt_iteration_count_is_depth_plus_one(chains):
    # each sweep of the pair operator settles one more level, so the
    # iteration count is exactly depth + 1 on the canonical specs
    for ch in chains.values():
        (neg, pos), iterations = solve_knaster_tarski(ch)
        assert iterations == ch.depth + 1
        assert all(neg[m] == pos[m] for m in range(ch.depth + 1))


def test_methods_agree_levelwise(chains):
    for ch in chains.values():
        (_, pos), _ = solve_knaster_tarski(ch)
        kleene = solve_kleene(ch)
        banach, _ = solve_banach(ch)
        for m in range(ch.depth + 1):
            assert pos[m] == kleene[m] == banach[m]


def test_banach_stabilization_profile(chains):
    for ch in chains.values():
        _, profile = solve_banach(ch)
        assert profile == list(range(ch.depth + 1))


def _random_family(chain, rng):
    """Each level a uniform draw from the admissible masks of its carrier:
    the bottom bit set and every other bit random (the 36-element level of
    reflexive has 2^1295 of them, too many to list)."""
    return make_family(
        chain,
        [
            BinRel(c, rng.getrandbits(c.n * c.n) | 1 << bottom_index(c))
            for c in chain.levels
        ],
    )


def _iterates(chain, start):
    """Every iterate of psi_step from start, up to the first repeat."""
    seq = [start]
    while len(seq) < 2 or seq[-1] != seq[-2]:
        seq.append(psi_step(chain, seq[-1]))
    return seq


def _scanned_profile(iterates):
    """Per level, the first index from which every iterate equals the last."""
    fixed = iterates[-1]
    profile = []
    for m in range(len(fixed)):
        first = len(iterates) - 1
        while first > 0 and iterates[first - 1][m] == fixed[m]:
            first -= 1
        profile.append(first)
    return profile


def _cauchy_violation(iterates):
    """The first (n, i, j, m) with n <= i < j and iterates i, j unequal at
    a level m < n, or None when the iterates are Cauchy with modulus n."""
    k = len(iterates)
    for n in range(k):
        for i in range(n, k):
            for j in range(i + 1, k):
                for m in range(min(n, len(iterates[0]))):
                    if iterates[i][m] != iterates[j][m]:
                        return n, i, j, m
    return None


@pytest.mark.parametrize("name", ["lazy_nat", "streams", "reflexive"])
@pytest.mark.parametrize("seed", range(4))
def test_banach_profile_is_the_scan_over_its_iterates(chains, name, seed):
    # solve_banach keeps only its current iterate; the profile it tracks
    # must equal the backward scan over all of them, and the iterates must
    # pass the all-pairs Cauchy check that the profile bound makes redundant
    ch = chains[name]
    start = _random_family(ch, random.Random(seed))
    fixed, profile = solve_banach(ch, start=start)
    iterates = _iterates(ch, start)
    assert fixed == iterates[-1]
    assert profile == _scanned_profile(iterates)
    assert any(profile), "no level changed, so an offset would not show"
    assert _cauchy_violation(iterates) is None


def test_banach_converges_from_distinct_starts(chains):
    for ch in chains.values():
        from_top, _ = solve_banach(ch)
        from_bottom, _ = solve_banach(ch, start=bottom_family(ch))
        assert all(
            from_top[m] == from_bottom[m] for m in range(ch.depth + 1)
        )


def test_check_uniform(chains, solved):
    for name, ch in chains.items():
        fam = solve_kleene(ch)
        ok, witness = check_uniform(ch, glue_family(ch, fam))
        assert ok and witness is None
    # relating only the two top elements is not uniform: pi_{N-1} moves
    # that pair strictly down, outside the relation
    ch = chains["lazy_nat"]
    top = ch.top
    from relfix.relations import rel_from_pairs

    bad = rel_from_pairs(top, [(0, 0), (top.n - 1, top.n - 1)])
    ok, witness = check_uniform(ch, bad)
    assert not ok
    assert witness is not None


def test_nondiagonal_const_relation_changes_the_solution():
    # streams over the *total* head relation: each level relates
    # everything of equal shape, sizes follow c_{k+1} = 4 c_k + 1
    c2 = chain_poset(2)
    f = Lift(Prod(Const(c2, total_rel(c2)), Var()))
    ch = build_chain(f, 4)
    report = compare_methods(ch)
    assert report["agreement"] and report["uniform"]
    counts = [len(r) for r in report["_family"].rels]
    expect = [1]
    for _ in range(4):
        expect.append(4 * expect[-1] + 1)
    assert counts == expect == [1, 5, 21, 85, 341]


def test_a_nonsymmetric_relation_on_a_wide_carrier_solves_to_its_definition():
    # lift(prod(const(chain(3), C), D)) with C not symmetric: level m + 1
    # relates the bottom to itself and up (a, x) to up (b, y) exactly when
    # (a, b) is in C and (x, y) in level m.  The oracle builds those pairs
    # from the element descriptors of freshly constructed levels (the cached
    # ones may carry the descriptors of a structurally equal poset), without
    # the relational action.
    c3 = chain_poset(3)
    pairs = [(0, 0), (0, 1), (1, 2), (2, 2)]
    ch = build_chain(Lift(Prod(Const(c3, rel_from_pairs(c3, pairs)), Var())), 4)
    assert [p.n for p in ch.levels] == [1, 4, 13, 40, 121]
    x, level, want = one(), {(0, 0)}, []
    for m in range(5):
        if m:
            x = lift(product(c3, x))
            level = {("bot", "bot")} | {
                (("up", (a, u)), ("up", (b, v))) for a, b in pairs for u, v in level
            }
        assert x == ch.levels[m]
        want.append({(x.elem_index[u], x.elem_index[v]) for u, v in level})
    got = solve_kleene(ch)
    assert [got[m].pairs for m in range(5)] == want
    assert any((v, u) not in want[4] for u, v in want[4])
    report = compare_methods(ch)
    assert report["agreement"] and report["uniform"]
    assert report["glued"] == sorted(want[4])


def test_a_mixed_variance_relation_solves_to_its_definition():
    # the bundled fun_nondiag spec, lift(fun(const(chain(2), C), D)) with
    # C = {(0, 0), (0, 1)}: level m + 1 relates the bottom to itself and
    # up f to up g exactly when (f a, g b) is in level m for every (a, b) in
    # C.  The oracle reads the maps off the descriptors of freshly built
    # levels and glues along the chain's projections, without the
    # relational action.
    spec = parse_spec((Path(__file__).parent / "specs" / "fun_nondiag.spec").read_text())
    c2, pairs = chain_poset(2), [(0, 0), (0, 1)]
    assert spec.functor == Lift(Fun(Const(c2, rel_from_pairs(c2, pairs)), Var()))
    ch = build_chain(spec.functor, spec.depth)
    x, want = one(), [{(0, 0)}]
    for m in range(1, spec.depth + 1):
        x = lift(hom_poset(c2, x))
        assert x == ch.levels[m]
        ups = [(i, d[1]) for i, d in enumerate(x.elems) if d != "bot"]
        want.append({(x.bottom, x.bottom)} | {
            (i, j) for i, f in ups for j, g in ups
            if all((f[a], g[b]) in want[m - 1] for a, b in pairs)
        })
    got = solve_kleene(ch)
    assert [got[m].pairs for m in range(spec.depth + 1)] == want
    projections = [pair.p.arr.tolist() for pair in ch.cums]
    glued = {
        (u, v) for u in range(ch.top.n) for v in range(ch.top.n)
        if all((p[u], p[v]) in level for p, level in zip(projections, want))
    }
    assert len(glued) == 11 and any((v, u) not in glued for u, v in glued)
    assert glue_family(ch, got).pairs == glued
    report = compare_methods(ch)
    assert report["agreement"] and report["uniform"]
    assert report["glued"] == sorted(glued)


def test_compare_methods_report_shape(solved):
    for report in solved.values():
        for key in (
            "functor",
            "depth",
            "sizes",
            "kt_iterations",
            "banach_profile",
            "agreement",
            "fixed_point_equation",
            "uniform",
            "uniform_witness",
            "family",
            "glued",
        ):
            assert key in report
        assert report["uniform_witness"] is None


# ---------------------------------------------------------------------------
# the engines' failure paths, each reached by a broken levelwise operator
# ---------------------------------------------------------------------------

SPECS = Path(__file__).parent / "specs"
BUNDLED = ["fun_nondiag", "lazy_nat", "reflexive", "streams"]


@pytest.fixture(scope="module")
def bundled_chains():
    # fresh chains, so that the broken operators' questions stay out of the
    # session chains' relation tables
    out = {}
    for name in BUNDLED:
        spec = parse_spec((SPECS / f"{name}.spec").read_text())
        out[name] = build_chain(spec.functor, spec.depth)
    return out


@pytest.mark.parametrize("name", BUNDLED)
def test_kt_with_its_polarity_swapped_fails_to_ascend(bundled_chains, monkeypatch, name):
    orig = engines._psi
    monkeypatch.setattr(engines, "_psi", lambda c, neg, pos: orig(c, pos, neg))
    with pytest.raises(InternalInvariantViolation, match="failed to ascend"):
        solve_knaster_tarski(bundled_chains[name])


@pytest.mark.parametrize("name", BUNDLED)
def test_kt_with_an_operator_that_keeps_its_halves_has_unequal_halves(
    bundled_chains, monkeypatch, name
):
    # (total, bottom) is stationary at once; the two agree on the one-point
    # level 0 only
    monkeypatch.setattr(engines, "_psi", lambda c, neg, pos: pos)
    with pytest.raises(NegPosMismatch) as err:
        solve_knaster_tarski(bundled_chains[name])
    assert err.value.details["level"] == 1


def test_kt_that_never_settles_exceeds_its_ceiling(bundled_chains, monkeypatch):
    # each call adds the lowest missing pair at every level: pos ascends
    # one pair at a time, far past depth + 4 steps on a 13-element level
    def add_a_pair(c, neg, pos):
        rels = []
        for r in pos.rels:
            missing = ~r.mask & ((1 << r.carrier.n**2) - 1)
            rels.append(BinRel(r.carrier, r.mask | (missing & -missing)))
        return make_family(c, rels)

    monkeypatch.setattr(engines, "_psi", add_a_pair)
    ch = bundled_chains["lazy_nat"]
    with pytest.raises(InternalInvariantViolation, match="iteration ceiling") as err:
        solve_knaster_tarski(ch)
    assert err.value.details == {"ceiling": 10}


def test_banach_whose_level_one_settles_late_is_not_contractive(bundled_chains, monkeypatch):
    # level 1 of the first two outputs loses its top diagonal pair, so it
    # settles at iteration 3 against the bound 2, and each level above
    # settles one iteration after the one below
    orig, calls = engines._psi, []

    def flip_level_one(c, neg, pos):
        out = orig(c, neg, pos)
        calls.append(None)
        if len(calls) > 2:
            return out
        rels = list(out.rels)
        r = rels[1]
        rels[1] = BinRel(r.carrier, r.mask ^ 1 << (r.carrier.n**2 - 1))
        return make_family(c, rels)

    monkeypatch.setattr(engines, "_psi", flip_level_one)
    with pytest.raises(NotContractive) as err:
        solve_banach(bundled_chains["lazy_nat"])
    assert err.value.details["profile"] == [0, 3, 4, 5, 6, 7, 8]
    assert err.value.details["levels"] == [1, 2, 3, 4, 5, 6]
