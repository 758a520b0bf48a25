"""Acceptance suite: one test per criterion, one verdict line each under -v.

Every tolerance is exact (set/table equality); runtime budgets are
asserted inside the tests that carry one.  Derived oracles are computed
in-test by independent means (closed-form recurrences, brute-force
enumeration) wherever feasible and frozen otherwise.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import subprocess
import sys
import time
from math import comb
from pathlib import Path

from relfix.chain import (
    bottom_family,
    build_chain,
    diagonal_family,
    glue_family,
    total_family,
)
from relfix.cofe import check_contractive
from relfix.engines import (
    compare_methods,
    psi_step,
    solve_banach,
    solve_kleene,
    solve_knaster_tarski,
)
from relfix.functor import eval_map
from relfix.karoubi import Idempotent, KaroubiObj, karoubi_rel_fiber
from relfix.poset import chain_poset, const_map, enumerate_monotone_maps
from relfix.relations import (
    diagonal,
    direct_image,
    intersect,
    inverse_image,
    is_rel_morphism,
)
from relfix.suites import (
    adjunction_suite,
    canonical_specs,
    karoubi_suite,
    lemma2_suite,
    small_pointed_posets,
)

SPECS_DIR = Path(__file__).parent / "specs"


def build_all():
    return {
        name: build_chain(f, depth)
        for name, (f, depth) in canonical_specs().items()
    }


def test_criterion_01_three_method_agreement():
    """The Knaster-Tarski pair closes (R- = R+) and agrees levelwise with
    the Kleene and Banach families on all three canonical specs.
    Tolerance: exact set equality.  Budget: 60 s total."""
    t0 = time.monotonic()
    for name, ch in build_all().items():
        (neg, pos), _ = solve_knaster_tarski(ch)
        kleene = solve_kleene(ch)
        banach, _ = solve_banach(ch)
        for m in range(ch.depth + 1):
            assert neg[m] == pos[m], (name, m)
            assert pos[m] == kleene[m], (name, m)
            assert kleene[m] == banach[m], (name, m)
    assert time.monotonic() - t0 < 60.0


def test_criterion_02_chain_invariants():
    """Level sizes match the independent recurrences; the truncation
    projections are idempotent, increasing, and reach the identity; and
    every level satisfies the functor recurrence.  Tolerance: exact."""
    chains = build_all()
    sizes = {name: [p.n for p in ch.levels] for name, ch in chains.items()}
    # oracles recomputed by closed-form recurrences, not by the library:
    lazy = [1]
    while len(lazy) < 7:
        lazy.append(lazy[-1] + 2)
    streams = [1]
    while len(streams) < 5:
        streams.append(2 * streams[-1] + 1)
    reflexive = [1]
    while len(reflexive) < 4:
        k = reflexive[-1]
        reflexive.append(comb(2 * k - 1, k) + 1)  # chain endomap count
    assert sizes["lazy_nat"] == lazy == [1, 3, 5, 7, 9, 11, 13]
    assert sizes["streams"] == streams == [1, 3, 7, 15, 31]
    assert sizes["reflexive"] == reflexive == [1, 2, 4, 36]

    for ch in chains.values():
        pis = ch.pis
        assert pis[ch.depth].is_identity()
        for j in range(ch.depth + 1):
            assert pis[j] @ pis[j] == pis[j]
            if j < ch.depth:
                assert pis[j].pointwise_leq(pis[j + 1])
        for m in range(ch.depth):
            for j in range(m + 1):
                inner = ch.level_pi(j, m)
                assert ch.level_pi(j + 1, m + 1) == eval_map(
                    ch.functor, inner, inner, ch.caps
                )


def test_criterion_03_uniformity_of_the_result():
    """Every truncation projection is a morphism of the glued result
    relation on all three specs.  Tolerance: exact."""
    for name, ch in build_all().items():
        glued = glue_family(ch, solve_kleene(ch))
        for i in range(ch.depth + 1):
            assert is_rel_morphism(ch.pi(i), glued, glued), (name, i)


def test_criterion_04_bilimit_duality():
    """The intersection of projection pullbacks equals the union of
    embedding pushforwards on the top level, for the result family of
    each spec.  Tolerance: exact set equality."""
    for name, ch in build_all().items():
        fam = solve_kleene(ch)
        pulls = [
            inverse_image(ch.cums[n].p, fam[n]) for n in range(ch.depth + 1)
        ]
        pushes = [
            direct_image(ch.cums[n].e, fam[n]) for n in range(ch.depth + 1)
        ]
        meet = intersect(pulls, ch.top)
        join = frozenset().union(*(r.pairs for r in pushes))
        assert meet.pairs == join, name


def test_criterion_05_contractiveness():
    """n-equal inputs give (n+1)-equal outputs under the relational
    operator, decided for every admissible uniform family on lazy-nat
    depth 3 and the function-space spec depth 2, with zero
    counterexamples.  Tolerance: exact.  Budget: 120 s."""
    t0 = time.monotonic()
    lazy_f, _ = canonical_specs()["lazy_nat"]
    refl_f, _ = canonical_specs()["reflexive"]
    lazy_report = check_contractive(build_chain(lazy_f, 3))
    refl_report = check_contractive(build_chain(refl_f, 2))
    for report in (lazy_report, refl_report):
        assert report["ok"] is True
        assert report["counterexamples"] == []
    assert refl_report["strategy"] == "full"  # 6425 families, outright
    assert lazy_report["strategy"] == "sections"  # prefix-exact coverage
    assert time.monotonic() - t0 < 120.0


def test_criterion_06_banach_convergence():
    """The level-n component of the iterate sequence from the total
    family stabilizes by iteration n+1, and a second start converges to
    the same fixed point, on all specs.  Tolerance: exact."""
    for name, ch in build_all().items():
        from_top, profile = solve_banach(ch)
        for n, settled_at in enumerate(profile):
            assert settled_at <= n + 1, (name, n)
        from_bottom, _ = solve_banach(ch, start=bottom_family(ch))
        for m in range(ch.depth + 1):
            assert from_top[m] == from_bottom[m], (name, m)
        fixed = psi_step(ch, from_top)
        assert all(fixed[m] == from_top[m] for m in range(ch.depth + 1))


def test_criterion_07_lemma2_suite():
    """All four relational-structure properties hold exhaustively over
    every pointed poset with at most 3 elements, every monotone map
    between them, and every admissible relation.  Budget: 5 min."""
    t0 = time.monotonic()
    report = lemma2_suite()
    assert report["ok"] is True
    assert set(report["properties"]) == {
        "identity_iff_inclusion",
        "pullback_is_morphism",
        "composition_transpose",
        "meet_preservation",
    }
    for prop in report["properties"].values():
        assert prop["ok"] is True
        assert prop["instances"] > 0
    assert time.monotonic() - t0 < 300.0


def test_criterion_08_adjunction():
    """Direct image is left adjoint to inverse image, exhaustively at the
    same scale as the Lemma 2 suite.  Tolerance: exact."""
    t0 = time.monotonic()
    report = adjunction_suite()
    assert report["ok"] is True
    # independent instance count: sum over poset pairs of
    # (monotone maps) x (admissible rels on P) x (admissible rels on Q)
    corpus = small_pointed_posets()
    expected = 0
    for p in corpus:
        for q in corpus:
            maps = sum(1 for _ in enumerate_monotone_maps(p, q))
            expected += maps * 2 ** (p.n * p.n - 1) * 2 ** (q.n * q.n - 1)
    assert report["instances"] == expected == 2_795_737
    assert time.monotonic() - t0 < 300.0


def test_criterion_09_karoubi_suite():
    """|E_CH3| = 4; both idempotent-order conditions agree exhaustively
    for carriers of size at most 5; splitting laws with uniqueness of the
    connecting iso; hat-functor laws on small carriers; the slice
    equivalence round-trips; and envelope hom-sets are pointed.
    Budget: 5 min."""
    t0 = time.monotonic()
    report = karoubi_suite()
    assert report["ok"] is True
    checks = report["checks"]
    assert checks["e_ch3_size"] == {"got": 4, "want": 4, "ok": True}
    assert checks["order_conditions_agree"]["ok"] is True
    assert checks["splittings"]["ok"] is True
    assert checks["hat_laws"]["ok"] is True
    assert checks["slice_equivalence"]["ok"] is True
    assert checks["ed_cpo"]["ok"] is True
    assert checks["pointed_homs"]["ok"] is True
    assert checks["claim_audit"]["diagonal_counterexample_recorded"] is True
    # the brute-force count of deflations of the 3-chain, recomputed here
    brute = sum(
        1
        for t in itertools.product(range(3), repeat=3)
        if all(t[i] <= t[j] for i in range(3) for j in range(3) if i <= j)
        and all(t[t[i]] == t[i] and t[i] <= i for i in range(3))
    )
    assert brute == 4
    assert time.monotonic() - t0 < 300.0


def test_criterion_10_claim_audit():
    """The relation fiber report records the evaluated status of the
    "p*R is below R" claim, with the two-chain / constant-bottom /
    diagonal instance decided by direct computation; the audit neither
    crashes nor silently passes."""
    c2 = chain_poset(2)
    p = Idempotent(c2, const_map(c2, c2, 0))
    report = karoubi_rel_fiber(KaroubiObj(c2, p))
    audit = report["claim_pstar_below"]
    assert audit["holds_for"] + audit["fails_for"] == report["admissible"]
    # direct computation of the named instance, without the audit code:
    diag = diagonal(c2)
    pulled = inverse_image(p.mor, diag)
    claim_on_diagonal = pulled <= diag
    assert claim_on_diagonal is False
    recorded = [tuple(map(tuple, c["relation"])) for c in audit["counterexamples"]]
    assert tuple(diag.sorted_pairs()) in recorded
    assert audit["fails_for"] >= 1  # the status is recorded, not asserted


def test_criterion_11_determinism(tmp_path):
    """Two runs of relate --method all with identical spec and seed
    produce byte-identical reports.  Tolerance: exact bytes."""
    outputs = []
    for k in range(2):
        path = tmp_path / f"det{k}.json"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "relfix.cli",
                "relate",
                "--spec",
                str(SPECS_DIR / "lazy_nat.spec"),
                "--method",
                "all",
                "--seed",
                "209",
                "--report",
                str(path),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
    digest0 = hashlib.sha256(outputs[0]).hexdigest()
    assert hashlib.sha256(outputs[1]).hexdigest() == digest0
    assert json.loads(outputs[0])["seed"] == 209
