"""The ordered family of equivalences on uniform relations."""

from __future__ import annotations

from fractions import Fraction

import pytest

from relfix.chain import build_chain, diagonal_family, total_family
from relfix.cofe import (
    CauchySeq,
    Distance,
    check_contractive,
    cofe_limit,
    enumerate_uniform_masks,
    family_from_mask,
    later_shift,
    n_equal,
    ofe_distance,
    prefix_equal,
    sample_uniform_masks,
    uniform_space_size,
)
from relfix.engines import psi_step, solve_kleene
from relfix.errors import NotCauchy, TypeMismatch
from relfix.relations import BinRel, diagonal
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
    fams = [family_from_mask(ch, m, 1) for m in enumerate_uniform_masks(ch)]
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


def test_later_shift_is_contractive():
    ch = small_lazy(2)
    masks = list(sample_uniform_masks(ch, count=12, seed=5))
    fams = [family_from_mask(ch, m, ch.depth) for m in masks]
    for r in fams:
        for s in fams:
            for n in range(ch.depth + 1):
                if n_equal(ch, r, s, n):
                    assert n_equal(ch, later_shift(r), later_shift(s), n + 1)
    shifted = later_shift(fams[0])
    assert shifted[0] == total_family(ch)[0]


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
        fam = family_from_mask(ch, mask, 1)
        assert is_uniform_family(fam)
        assert fam[1].mask == mask
        assert BinRel(ch.levels[1], mask) == fam[1]


def test_sampling_is_seeded_and_lands_in_the_space():
    f, _ = canonical_specs()["lazy_nat"]
    ch = build_chain(f, 2)
    a = list(sample_uniform_masks(ch, count=50, seed=7))
    b = list(sample_uniform_masks(ch, count=50, seed=7))
    c = list(sample_uniform_masks(ch, count=50, seed=8))
    assert a == b
    assert a != c
    universe = set(enumerate_uniform_masks(ch))
    assert set(a) <= universe


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


def test_check_contractive_sampled_strategy():
    ch = small_lazy(2)
    report = check_contractive(
        ch, full_budget=10, section_budget=10, samples=200, seed=3
    )
    assert report["strategy"] == "sampled"
    assert report["ok"] is True
    assert report["seed"] == 3
