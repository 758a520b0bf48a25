"""The named invariant suites and their dispatch."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from relfix.chain import build_chain
from relfix.cofe import check_contractive
from relfix.engines import psi_step
from relfix.functor import Lift, Var
from relfix.poset import monotone_tables, table_positions
from relfix.relations import admissible_rows, pair_table
from relfix.suites import (
    _all_maps,
    all_suites,
    canonical_specs,
    contractive_suite,
    corrupted_action_suite,
    duality_suite,
    functor_laws_suite,
    lemma2_suite,
    run_suite,
    small_pointed_posets,
)


def test_small_poset_corpus_is_every_pointed_poset_up_to_three_elements():
    corpus = small_pointed_posets()
    assert [p.n for p in corpus] == [1, 2, 3, 3]
    # the two 3-element pointed posets: the chain and the vee
    chains = [p for p in corpus if p.n == 3 and p.le(1, 2)]
    vees = [p for p in corpus if p.n == 3 and not p.le(1, 2) and not p.le(2, 1)]
    assert len(chains) == 1 and len(vees) == 1


def test_canonical_specs_cover_the_three_equations():
    specs = canonical_specs()
    assert set(specs) == {"lazy_nat", "streams", "reflexive"}
    assert specs["lazy_nat"][1] == 6
    assert specs["streams"][1] == 4
    assert specs["reflexive"][1] == 3


def test_duality_suite():
    report = duality_suite()
    assert report["ok"] is True
    assert report["specs"]["lazy_nat"]["glued_pairs"] == 13
    assert report["specs"]["streams"]["glued_pairs"] == 31
    assert report["specs"]["reflexive"]["glued_pairs"] == 36


def test_functor_laws_suite():
    report = functor_laws_suite()
    assert report["ok"] is True
    assert set(report["functors"]) == {"lazy_nat", "streams", "reflexive"}


def test_corrupted_fixture_is_always_a_failure_with_a_witness():
    report = corrupted_action_suite()
    assert report["ok"] is False
    assert report["caught"] is True
    assert report["law"] in ("composition", "relational")
    assert report["witness"]


def test_run_suite_dispatch():
    assert set(all_suites()) == {
        "lemma2",
        "adjunction",
        "functor_laws",
        "contractive",
        "karoubi",
        "duality",
    }
    combined = run_suite("all")
    assert combined["ok"] is True
    assert set(combined["suites"]) == set(all_suites())
    assert run_suite("corrupted")["ok"] is False
    with pytest.raises(KeyError):
        run_suite("nope")


def _monotone_count(x, y) -> int:
    """Monotone maps x -> y, by brute force over all tables."""
    return sum(
        all(y.le(t[a], t[b]) for a in range(x.n) for b in range(x.n) if x.le(a, b))
        for t in itertools.product(range(y.n), repeat=x.n)
    )


def test_lemma2_instance_counts_match_their_closed_forms():
    corpus = small_pointed_posets()
    adm = {p: 2 ** (p.n * p.n - 1) for p in corpus}  # relations with the bottom pair
    maps = {(x, y): _monotone_count(x, y) for x in corpus for y in corpus}
    pairs = list(itertools.product(corpus, repeat=2))
    want = {
        "identity_iff_inclusion": sum(adm[p] ** 2 for p in corpus),
        "pullback_is_morphism": sum(maps[x, y] * adm[y] for x, y in pairs),
        "composition_transpose": sum(
            maps[x, y] * maps[y, z] * adm[z]
            for x, y, z in itertools.product(corpus, repeat=3)
        ),
        "meet_preservation": sum(
            maps[x, y] * (1 + adm[y] * (adm[y] + 1) // 2) for x, y in pairs
        ),
    }
    assert want == {
        "identity_iff_inclusion": 131_137,
        "pullback_is_morphism": 15_220,
        "composition_transpose": 358_157,
        "meet_preservation": 1_941_449,
    }
    report = lemma2_suite()
    assert report["ok"] is True
    got = {k: v["instances"] for k, v in report["properties"].items()}
    assert got == want


def test_composition_transpose_matches_the_per_pair_loop():
    # the per-pair form as the oracle, one (f, g) pair at a time: the suite
    # must give its count and verdict, and look up g @ f for each
    count, ok = 0, True
    for x, y, z in itertools.product(small_pointed_posets(), repeat=3):
        rows = admissible_rows(z)[1]
        at = table_positions(x, z, monotone_tables(y, z)[:, monotone_tables(x, y)])
        fs, gs = enumerate(_all_maps(x, y)), list(enumerate(_all_maps(y, z)))
        for (i, f), (j, g) in itertools.product(fs, gs):
            assert monotone_tables(x, z)[at[j, i]].tolist() == (g @ f).arr.tolist()
            count += len(rows)
            by_g = pair_table(f).pull_rows(pair_table(g).pull_rows(rows))
            ok &= np.array_equal(pair_table(g @ f).pull_rows(rows), by_g)
    got = lemma2_suite()["properties"]["composition_transpose"]
    assert ok and got == {"instances": count, "ok": ok}


def test_contractive_suite_counts_and_identity_fixture():
    report = contractive_suite()
    assert report["ok"] is True
    lazy = report["checks"]["lazy_nat_depth3"]
    assert lazy["strategy"] == "sections"
    assert lazy["enumerated"] == lazy["section_space"] == 1_285_000
    fixture = report["checks"]["identity_op_fixture"]
    assert fixture["enumerated"] == 6 and fixture["stopped_early"] is True
    assert fixture["counterexamples"] == [
        {"n": 1, "output_level": 1, "mask_a": 1, "mask_b": b}
        for b in (257, 129, 385, 65, 321)
    ]


@pytest.mark.parametrize("name, depth", [("lazy_nat", 1), ("lift", 3), ("reflexive", 2)])
def test_levelwise_contractive_check_matches_psi_step(name, depth):
    # op=None computes each output level from its input level; op=psi_step
    # applies the whole operator to each family.  Only the op label may
    # differ.
    functor = Lift(Var()) if name == "lift" else canonical_specs()[name][0]
    chain = build_chain(functor, depth)
    levelwise = check_contractive(chain)
    per_family = check_contractive(chain, op=psi_step)
    assert levelwise["op"] == "psi" and per_family["op"] == "custom"
    assert levelwise["strategy"] == "full" and levelwise["ok"] is True
    drop = ("op",)
    assert {k: v for k, v in levelwise.items() if k not in drop} == {
        k: v for k, v in per_family.items() if k not in drop
    }
