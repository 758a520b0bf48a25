"""The ordered family of equivalences on uniform relations."""

from __future__ import annotations

import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from relfix import cofe
from relfix.chain import (
    build_chain,
    diagonal_family,
    family_from_limit,
    make_family,
    total_family,
)
from relfix.cofe import (
    CauchySeq,
    Distance,
    check_contractive,
    cofe_limit,
    enumerate_uniform_masks,
    n_equal,
    ofe_distance,
    prefix_equal,
    uniform_space_size,
)
from relfix.engines import psi_step, solve_kleene
from relfix.errors import NotCauchy, SizeCapExceeded, TypeMismatch
from relfix.functor import Fun, Lift, One, SumSep, Var
from relfix.relations import (
    BinRel,
    bottom_index,
    bottom_rel,
    diagonal,
    intersect,
    inverse_image,
    masks_to_rows,
    pair_table,
    rows_to_masks,
    total_rel,
)
from relfix.suites import canonical_specs


def small_lazy(depth=2):
    f, _ = canonical_specs()["lazy_nat"]
    return build_chain(f, depth)


def test_n_equal_basics():
    ch = small_lazy()
    diag, total = diagonal_family(ch), total_family(ch)
    assert n_equal(ch, diag, total, 0)  # 0-equality is vacuous
    assert n_equal(ch, diag, total, 1)  # level 0 relations coincide
    assert not n_equal(ch, diag, total, 2)
    assert n_equal(ch, diag, diag, ch.depth + 1)
    with pytest.raises(TypeMismatch):
        n_equal(ch, diag, total, ch.depth + 2)
    with pytest.raises(TypeMismatch):
        n_equal(ch, diag, total, -1)


def test_distances():
    ch = small_lazy()
    diag, total = diagonal_family(ch), total_family(ch)
    assert ofe_distance(ch, diag, total) == Distance(Fraction(1, 2), False)
    d0 = ofe_distance(ch, diag, diag)
    assert d0.value == 0 and d0.at_truncation
    # families differing only at the top level sit at distance 2^-N
    rels = list(diag.rels)
    rels[-1] = total.rels[-1]
    from relfix.chain import make_family

    mixed = make_family(ch, rels)
    assert ofe_distance(ch, diag, mixed) == Distance(Fraction(1, 4), False)


def test_distance_is_an_ultrametric():
    ch = small_lazy(1)
    masks = enumerate_uniform_masks(ch)
    fams = [family_from_limit(ch, BinRel(ch.top, m)) for m in masks]
    sample = fams[:: max(1, len(fams) // 16)]
    for r in sample:
        for s in sample:
            d_rs = ofe_distance(ch, r, s)
            assert d_rs == ofe_distance(ch, s, r)
            if d_rs.value == 0 and d_rs.at_truncation:
                assert all(r[m] == s[m] for m in range(ch.depth + 1))
            for t in sample:
                lhs = ofe_distance(ch, r, t).value
                assert lhs <= max(d_rs.value, ofe_distance(ch, s, t).value)


def test_banach_iterates_form_a_cauchy_sequence(chains):
    for ch in chains.values():
        terms = [total_family(ch)]
        for _ in range(ch.depth + 1):
            terms.append(psi_step(ch, terms[-1]))
        seq = CauchySeq(tuple(terms), tuple(range(ch.depth + 2)))
        limit = cofe_limit(ch, seq)
        fixed = solve_kleene(ch)
        assert all(limit[m] == fixed[m] for m in range(ch.depth + 1))


def test_non_cauchy_sequences_are_rejected():
    ch = small_lazy()
    diag, total = diagonal_family(ch), total_family(ch)
    flipping = (diag, total, diag, total)
    with pytest.raises(NotCauchy):
        cofe_limit(ch, CauchySeq(flipping, tuple(range(ch.depth + 2))))
    with pytest.raises(NotCauchy):
        cofe_limit(ch, CauchySeq((diag,), (0,)))  # modulus too short


def test_uniform_space_size_closed_form_at_depth_one():
    # at depth 1 uniformity only demands the bottom pair, so the count
    # is 2^(k*k - 1) for a k-element level
    for name, (f, _) in canonical_specs().items():
        ch = build_chain(f, 1)
        k = ch.levels[1].n
        assert uniform_space_size(ch) == 2 ** (k * k - 1)


def test_uniform_space_count_matches_enumeration():
    f, _ = canonical_specs()["reflexive"]
    ch = build_chain(f, 2)
    count = uniform_space_size(ch)
    assert count == 6425
    seen = set()
    for mask in enumerate_uniform_masks(ch):
        assert mask not in seen
        seen.add(mask)
    assert len(seen) == count


def test_enumerated_masks_give_uniform_families():
    from relfix.chain import is_uniform_family

    f, _ = canonical_specs()["reflexive"]
    ch = build_chain(f, 1)
    masks = list(enumerate_uniform_masks(ch))
    assert len(masks) == 8
    for mask in masks:
        fam = family_from_limit(ch, BinRel(ch.top, mask))
        assert is_uniform_family(fam)
        assert fam[1].mask == mask
        assert BinRel(ch.levels[1], mask) == fam[1]


def test_check_contractive_full_strategy():
    ch = small_lazy(1)
    report = check_contractive(ch)
    assert report["ok"] is True
    assert report["strategy"] == "full"
    assert report["counterexamples"] == []


def test_check_contractive_catches_the_identity_operator():
    ch = small_lazy(1)
    report = check_contractive(ch, op=lambda chain, fam: fam)
    assert report["ok"] is False
    assert report["counterexamples"]
    assert report["op"] == "custom"


def test_a_space_neither_strategy_decides_raises_quickly():
    # lazy_nat at depth 4: about 1.5e11 sections; a custom operator on the
    # 1,285,000 families at depth 2 has only the full strategy
    for chain, op, details in [
        (small_lazy(4), None, {"section_space": 150_509_597_128, "budget": 2_000_000}),
        (small_lazy(2), _identity, {"space_size": 1_285_000, "budget": 60_000}),
    ]:
        t0 = time.monotonic()
        with pytest.raises(SizeCapExceeded) as caught:
            check_contractive(chain, op=op)
        assert time.monotonic() - t0 < 1.0
        assert details.items() <= caught.value.details.items()


@pytest.mark.parametrize("functor, depth", [
    (Lift(Fun(Var(), Var())), 3), (SumSep(Lift(Var()), Lift(Var())), 2)
], ids=["fun_space_d3", "sum_of_lifts_d2"])
def test_enumerating_a_space_over_the_pair_cap_raises_before_building_it(functor, depth):
    chain = build_chain(functor, depth)
    t0 = time.monotonic()
    with pytest.raises(SizeCapExceeded) as caught:
        next(enumerate_uniform_masks(chain))
    assert time.monotonic() - t0 < 2.0
    assert caught.value.details["size"] == uniform_space_size(chain)
    assert caught.value.details["cap"] == chain.caps.max_pairs


def _seeded_uniform_masks(chain, count, seed):
    """count uniform relations on X_N, by the definition: a seeded random
    set of top pairs closed under every pi_j (one pass suffices, since
    pi_j . pi_k = pi_min(j, k)), plus the bottom pair."""
    rng = random.Random(seed)
    images = [pair_table(pi).index for pi in chain.pis]
    pairs = range(chain.top.n ** 2)
    for _ in range(count):
        mask = 1 << bottom_index(chain.top)
        for q in rng.sample(pairs, rng.randrange(len(pairs))):
            for img in images:
                mask |= 1 << img[q]
        yield mask


@pytest.mark.parametrize(
    "name, depth", [("lazy_nat", 3), ("reflexive", 2), ("streams", 2)]
)
def test_psi_reads_no_input_level_above_n_minus_one(name, depth):
    # the sections strategy of check_contractive never builds a top level;
    # it is exact only because psi's outputs ignore the input's level N
    chain = build_chain(canonical_specs()[name][0], depth)
    top = chain.levels[depth]
    for mask in _seeded_uniform_masks(chain, count=64, seed=1):
        fam = family_from_limit(chain, BinRel(top, mask))
        out = psi_step(chain, fam)
        prefix = list(fam.rels[:depth])
        filler = inverse_image(chain.steps[depth - 1].p, prefix[-1])
        for alt in (filler, total_rel(top), bottom_rel(top)):
            assert psi_step(chain, make_family(chain, prefix + [alt])) == out


def _mix_top(chain, fam):
    """psi with its top output level cut down by the input's top level.
    Its output levels below N are psi's, so it fails only at n = N."""
    out = psi_step(chain, fam)
    top = chain.depth
    cut = intersect([out[top], fam[top]], chain.levels[top])
    return make_family(chain, list(out.rels[:top]) + [cut])


def _contractive_oracle(chain, op):
    """The implication by definition: each family against the first
    earlier family with the same levels below n, for every n, compared
    with prefix_equal; it stops after the family that brings the count of
    counterexamples to five.  Returns (counterexamples, enumerated,
    stopped_early)."""
    masks, fams, outs, found = [], [], [], []
    for mask in enumerate_uniform_masks(chain):
        fam = family_from_limit(chain, BinRel(chain.top, mask))
        out = op(chain, fam)
        for n in range(chain.depth + 1):
            j = next(j for j, r in enumerate(fams + [fam]) if prefix_equal(r, fam, n))
            if j < len(fams) and not prefix_equal(outs[j], out, n + 1):
                level = next(m for m in range(n + 1) if outs[j][m] != out[m])
                found.append(
                    {"n": n, "output_level": level, "mask_a": masks[j], "mask_b": mask}
                )
        masks.append(mask)
        fams.append(fam)
        outs.append(out)
        if len(found) >= 5:
            return found, len(fams), True
    return found, len(fams), False


def _identity(chain, fam):
    return fam


@pytest.mark.parametrize(
    "name, depth, op",
    [
        (name, 1, op)
        for name in ("lazy_nat", "reflexive")
        for op in (_identity, psi_step, _mix_top)
    ]
    # on lift(D) at depth 3 the fourth family gives the fifth and sixth
    # counterexamples, so the check must finish that family
    + [("lift", 3, _identity), ("lift", 3, _mix_top)],
    ids=lambda v: getattr(v, "__name__", str(v)),
)
def test_custom_operator_check_matches_the_definitional_oracle(name, depth, op):
    functor = Lift(Var()) if name == "lift" else canonical_specs()[name][0]
    chain = build_chain(functor, depth)
    found, enumerated, stopped = _contractive_oracle(chain, op)
    report = check_contractive(chain, op=op)
    assert report["strategy"] == "full"
    assert report["counterexamples"] == found
    assert report["ok"] is (not found)
    assert report["enumerated"] == enumerated
    assert report.get("stopped_early", False) is stopped
    if op is psi_step:
        assert not found and enumerated == report["space_size"]
    if op is _mix_top:
        assert found and all(c["n"] == chain.depth for c in found)


@pytest.mark.parametrize(
    "functor, depth, strategy, enumerated, questions",
    [
        (SumSep(One(), Var()), 3, "sections", 1_285_000, 257),
        (Lift(Fun(Var(), Var())), 2, "full", 6_425, 9),
        (Lift(Var()), 4, "full", 32_825, 1_402),
        (Lift(Fun(Var(), Var())), 3, "sections", 6_425, 9),
    ],
    ids=["lazy_nat_d3", "fun_space_d2", "lift_d4", "fun_space_d3"],
)
def test_psi_asks_once_each_question_the_direct_pulls_give(
    functor, depth, strategy, enumerated, questions, monkeypatch
):
    # psi's check asks eval_rel about the uniform relations on each level
    # below the enumeration level L; the oracle pulls every uniform
    # relation on X_L along each e_{m -> L} directly.  The answers are
    # discarded, so only the question set is pinned, each asked once.
    chain = build_chain(functor, depth)
    asked = []
    monkeypatch.setattr(cofe, "eval_rel", lambda f, r, s, caps: asked.append((r, s)))
    report = check_contractive(chain)
    assert (report["strategy"], report["enumerated"], report["ok"]) == (strategy, enumerated, True)
    level = depth - 1 if strategy == "sections" else depth
    rows = masks_to_rows(enumerate_uniform_masks(chain, level), chain.levels[level].n ** 2)
    want = set()
    for m in range(level):
        pulled = pair_table(chain.ep(m, level).e).pull_rows(rows)
        want.update(BinRel(chain.levels[m], mask) for mask in set(rows_to_masks(pulled)))
    assert all(r == s for r, s in asked)
    counts = Counter(r for r, _ in asked)
    assert set(counts.values()) == {1}
    assert set(counts) == want and len(want) == questions
