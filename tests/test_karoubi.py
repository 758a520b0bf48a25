"""Idempotents, splittings, the envelope, and the E_D machinery."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from relfix import karoubi
from relfix.config import DEFAULT_CAPS
from relfix.errors import (
    EquivalenceMismatch,
    LawViolation,
    SizeCapExceeded,
    TypeMismatch,
)
from relfix.functor import Fun, Lift, One, Prod, SumSep, Var, eval_map, eval_obj
from relfix.karoubi import (
    Idempotent,
    KaroubiObj,
    Splitting,
    _ed_order,
    _order_axioms,
    ed_cpo_check,
    ed_slice_equivalence,
    enumerate_canonical_idempotents,
    hat_action,
    hat_functor_mor,
    hat_functor_obj,
    idem_leq,
    karoubi_bottom_hom,
    karoubi_hom_check,
    karoubi_hom_tables,
    karoubi_homs,
    karoubi_rel_fiber,
    split_idempotent,
    splitting_iso,
)
from relfix.poset import (
    MonotoneMap,
    chain_poset,
    const_map,
    enumerate_monotone_maps,
    identity_map,
    monotone_map,
    monotone_tables,
    one,
    small_pointed_posets,
    validate_poset,
    vee,
)
from relfix.relations import BinRel, admissible_masks, diagonal, inverse_image
from relfix.suites import _all_idempotents, diamond, karoubi_suite

C2 = chain_poset(2)
C3 = chain_poset(3)


def brute_force_deflations(n: int) -> set:
    """All idempotent monotone endomaps of an n-chain below the identity,
    found by scanning every one of the n^n tables."""
    chain = list(range(n))
    out = set()
    for t in itertools.product(chain, repeat=n):
        if all(t[i] <= t[j] for i in chain for j in chain if i <= j) and all(
            t[t[i]] == t[i] and t[i] <= i for i in chain
        ):
            out.add(t)
    return out


def test_idempotent_validation():
    with pytest.raises(LawViolation):
        Idempotent(C3, monotone_map(C3, C3, (1, 2, 2)))  # p(p(0)) = 2 != 1
    with pytest.raises(TypeMismatch):
        Idempotent(C3, monotone_map(C3, C2, (0, 0, 1)))
    p = Idempotent(C3, monotone_map(C3, C3, (0, 0, 2)))
    assert p(1) == 0


def test_ed_matches_brute_force_on_chains():
    for n in (1, 2, 3, 4, 5):
        got = {p.mor.table for p in enumerate_canonical_idempotents(chain_poset(n))}
        assert got == brute_force_deflations(n)
    assert len(enumerate_canonical_idempotents(C3)) == 4
    assert len(enumerate_canonical_idempotents(one())) == 1
    assert len(enumerate_canonical_idempotents(chain_poset(5))) == 16


ORACLE_POSETS = small_pointed_posets() + [
    diamond(),
    validate_poset(4, [(0, 1), (0, 2), (0, 3)], 0, label="claw"),
    chain_poset(4),
    chain_poset(5),
    validate_poset(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)], 0, label="pentagon"),
    validate_poset(5, [(0, 1), (0, 2), (1, 3), (1, 4)], 0, label="fork"),
]


def endomap_filter_deflations(d) -> list:
    """E_D by filtering every monotone endomap for the idempotents below
    the identity, in table order."""
    return [
        t
        for t in enumerate_monotone_maps(d, d)
        if all(d.le(v, x) for x, v in enumerate(t)) and all(t[v] == v for v in t)
    ]


@pytest.mark.parametrize("d", ORACLE_POSETS, ids=repr)
def test_ed_from_images_matches_the_endomap_filter(d):
    got = [p.mor.table for p in enumerate_canonical_idempotents(d)]
    assert got == endomap_filter_deflations(d)


def triple_loop_axioms(leq) -> dict:
    k = len(leq)
    return {
        "reflexive": all(leq[i][i] for i in range(k)),
        "antisymmetric": all(
            not (leq[i][j] and leq[j][i]) or i == j for i in range(k) for j in range(k)
        ),
        "transitive": all(
            not (leq[i][j] and leq[j][m]) or leq[i][m]
            for i in range(k)
            for j in range(k)
            for m in range(k)
        ),
    }


def test_matrix_order_axioms_match_the_triple_loop():
    for d in ORACLE_POSETS:
        report = ed_cpo_check(d)
        want = triple_loop_axioms(report["order"])
        assert {key: report["checks"][key] for key in want} == want
    # random relations and their reflexive-transitive closures, so that
    # every axiom is seen failing as well as holding
    rng = np.random.default_rng(0)
    seen = set()
    for _ in range(300):
        k = int(rng.integers(1, 7))
        leq = rng.random((k, k)) < rng.random()
        if rng.random() < 0.5:
            leq |= np.eye(k, dtype=bool)
            for m in range(k):
                leq |= np.outer(leq[:, m], leq[m, :])
        want = triple_loop_axioms(leq.tolist())
        assert _order_axioms(leq) == want, leq
        seen.update((key, value) for key, value in want.items())
    assert seen == {(key, value) for key in want for value in (False, True)}


def test_ed_tables_on_the_three_chain():
    tables = [p.mor.table for p in enumerate_canonical_idempotents(C3)]
    assert tables == [(0, 0, 0), (0, 0, 2), (0, 1, 1), (0, 1, 2)]


def test_idem_leq_order():
    p000, p002, p011, pid = enumerate_canonical_idempotents(C3)
    assert idem_leq(p000, p002) and idem_leq(p000, p011) and idem_leq(p000, pid)
    assert idem_leq(p002, pid) and idem_leq(p011, pid)
    assert not idem_leq(p002, p011) and not idem_leq(p011, p002)
    assert idem_leq(p002, p002)
    with pytest.raises(TypeMismatch):
        idem_leq(p000, enumerate_canonical_idempotents(C2)[0])


def test_both_order_conditions_agree_on_all_idempotent_pairs():
    # over *all* idempotents (not only deflations) of small posets
    vee = validate_poset(3, [(0, 1), (0, 2)], 0)
    for poset in (C2, C3, vee, chain_poset(4)):
        idems = []
        for t in itertools.product(range(poset.n), repeat=poset.n):
            ok = all(
                poset.le(t[i], t[j])
                for i in range(poset.n)
                for j in range(poset.n)
                if poset.le(i, j)
            )
            if ok and all(t[t[i]] == t[i] for i in range(poset.n)):
                idems.append(Idempotent(poset, monotone_map(poset, poset, t)))
        for p in idems:
            for q in idems:
                idem_leq(p, q)  # EquivalenceMismatch would propagate


def test_split_idempotent_laws():
    for n in (2, 3, 4):
        for p in enumerate_canonical_idempotents(chain_poset(n)):
            sp = split_idempotent(p)
            assert (sp.r @ sp.s).is_identity()
            assert sp.s @ sp.r == p.mor


def test_split_identity_is_literal():
    pid = Idempotent(C3, identity_map(C3))
    sp = split_idempotent(pid)
    assert sp.im == C3
    assert sp.s.is_identity() and sp.r.is_identity()


def test_split_image_of_a_collapse_is_the_two_chain():
    p = Idempotent(C3, monotone_map(C3, C3, (0, 0, 2)))
    sp = split_idempotent(p)
    assert sp.im.n == 2
    assert sp.im.le(0, 1)


def test_splitting_iso_and_uniqueness():
    p = Idempotent(C3, monotone_map(C3, C3, (0, 0, 2)))
    s1 = split_idempotent(p)
    # a second, hand-made splitting through a separately built two-chain
    im2 = validate_poset(2, [(0, 1)], 0, label="alt-image")
    s2 = Splitting(p, im2, monotone_map(C3, im2, (0, 0, 1)), monotone_map(im2, C3, (0, 2)))
    i, i_inv = splitting_iso(s1, s2, verify_unique=True)
    assert (i_inv @ i).is_identity() and (i @ i_inv).is_identity()
    assert s2.s @ i == s1.s
    # mismatched idempotents are refused
    q = Idempotent(C3, monotone_map(C3, C3, (0, 1, 1)))
    with pytest.raises(TypeMismatch):
        splitting_iso(split_idempotent(q), s2)


def test_karoubi_homs_match_brute_force():
    p = Idempotent(C3, monotone_map(C3, C3, (0, 0, 2)))
    a = KaroubiObj(C3, p)
    homs = karoubi_homs(a, a)
    expected = [
        t
        for t in itertools.product(range(3), repeat=3)
        if all(t[i] <= t[j] for i in range(3) for j in range(3) if i <= j)
        and tuple(t[p(x)] for x in range(3)) == t
        and tuple(p(t[x]) for x in range(3)) == t
    ]
    assert sorted(f.table for f in homs) == sorted(expected)
    assert len(homs) == 3
    for f in homs:
        assert karoubi_hom_check(f, a, a)


def test_karoubi_bottom_hom_is_least_and_absorbing():
    p = Idempotent(C3, monotone_map(C3, C3, (0, 0, 2)))
    a = KaroubiObj(C3, p)
    b = KaroubiObj(C2, Idempotent(C2, identity_map(C2)))
    bot = karoubi_bottom_hom(a, b)
    assert karoubi_hom_check(bot, a, b)
    for f in karoubi_homs(a, b):
        assert bot.pointwise_leq(f)
    # right composition with anything gives the bottom hom again
    for g in karoubi_homs(b, a):
        assert bot @ g == karoubi_bottom_hom(b, b)


def test_hat_functor_on_lift():
    f = Lift(Var())
    a = KaroubiObj(C2, Idempotent(C2, const_map(C2, C2, 0)))
    im = hat_functor_obj(f, a)
    assert im.n == 2  # the image of lift(const-bottom) is a two-chain
    # the envelope identity of (X, p) is p itself; its hat image must be
    # the literal identity of the split object
    assert hat_functor_mor(f, a.p.mor, a, a).is_identity()


def test_hat_functor_preserves_composition():
    f = Lift(Var())
    p = Idempotent(C3, monotone_map(C3, C3, (0, 0, 2)))
    a = KaroubiObj(C3, p)
    b = KaroubiObj(C2, Idempotent(C2, identity_map(C2)))
    for g in karoubi_homs(a, b):
        for h in karoubi_homs(b, a):
            lhs = hat_functor_mor(f, g @ h, b, b)
            rhs = hat_functor_mor(f, g, a, b) @ hat_functor_mor(f, h, b, a)
            assert lhs == rhs


@pytest.mark.parametrize("f", [Lift(Var()), Prod(SumSep(One(), Var()), Var())], ids=str)
def test_batch_hat_action_is_the_scalar_composite_row_by_row(f):
    # every envelope morphism of every ordered pair of the 20 Karoubi
    # objects over the corpus, against sq.r . F(g) . sp.s with the
    # splittings of F(p) and F(q) built here
    objs = [KaroubiObj(d, p) for d in small_pointed_posets() for p in _all_idempotents(d)]
    assert len(objs) == 20
    splits = {
        a: split_idempotent(Idempotent(eval_obj(f, a.X, a.X), eval_map(f, None, a.p.mor)))
        for a in objs
    }
    rejected = 0
    for a, b in itertools.product(objs, repeat=2):
        rows = karoubi_hom_tables(a, b)
        sp, sq = splits[a], splits[b]
        want = [(sq.r @ eval_map(f, None, MonotoneMap(a.X, b.X, g)) @ sp.s).arr.tolist()
                for g in rows]
        assert hat_action(f, rows, a, b).tolist() == want
        assert [hat_functor_mor(f, MonotoneMap(a.X, b.X, g), a, b).arr.tolist()
                for g in rows] == want
        # a row that is not an envelope morphism fails the batch, as it
        # fails the one-map form
        for g in monotone_tables(a.X, b.X):
            if not karoubi_hom_check(MonotoneMap(a.X, b.X, g), a, b):
                with pytest.raises(TypeMismatch):
                    hat_action(f, np.vstack([rows, g]), a, b)
                with pytest.raises(TypeMismatch):
                    hat_functor_mor(f, MonotoneMap(a.X, b.X, g), a, b)
                rejected += 1
                break
    assert rejected > 200


OBJS = [KaroubiObj(d, p) for d in small_pointed_posets() for p in _all_idempotents(d)]


@pytest.fixture(scope="module")
def suite_checks():
    return karoubi_suite()["checks"]


def test_hat_laws_match_the_per_triple_loop(suite_checks):
    # the per-triple form as the oracle: one hat_action call per triple
    # (a, b, c) of the first ten objects, on the first three homs a -> b and
    # b -> c
    f = Lift(Var())
    ok = all(hat_functor_mor(f, a.p.mor, a, a).is_identity() for a in OBJS)
    instances, top = len(OBJS), list(enumerate(OBJS[:10]))
    hats = {}
    for (i, a), (j, b) in itertools.product(top, repeat=2):
        rows = karoubi_hom_tables(a, b)[:3]
        hats[i, j] = rows, hat_action(f, rows, a, b)
    for (i, a), (j, b), (k, c) in itertools.product(top, repeat=3):
        if a.X.n + b.X.n + c.X.n <= 7:
            (g1, hat_g1), (g2, hat_g2) = hats[i, j], hats[j, k]
            instances += len(g1) * len(g2)
            hat_gf = hat_action(f, g2[:, g1].reshape(-1, a.X.n), a, c)
            ok &= bool((hat_gf == hat_g2[:, hat_g1].reshape(len(hat_gf), -1)).all())
    assert ok and suite_checks["hat_laws"] == {"instances": instances, "ok": ok}


def test_pointed_homs_match_the_per_pair_loop(suite_checks):
    # the per-pair form as the oracle: the homs and the bottom hom of one
    # ordered pair of objects at a time
    pairs = [(a, b) for a, b in itertools.product(OBJS, repeat=2) if a.X.n * b.X.n <= 9]
    ok = True
    for a, b in pairs:
        homs, bot = karoubi_hom_tables(a, b), karoubi_bottom_hom(a, b).arr
        ok &= bool((homs == bot).all(axis=1).any() and b.X.leq[bot, homs].all())
    assert ok and suite_checks["pointed_homs"] == {"instances": len(pairs), "ok": ok}


def test_stacked_envelope_condition_is_the_one_map_check():
    # _envelope decides every (p, q) pair of a carrier pair at once;
    # karoubi_hom_check decides one map of one pair
    groups = itertools.groupby(OBJS, key=lambda a: a.X)
    groups = [(x, list(objs)) for x, objs in groups]
    for (x, xs), (y, ys) in itertools.product(groups, repeat=2):
        t = monotone_tables(x, y)
        env = karoubi._envelope(t, *(np.array([a.p.mor.arr for a in g]) for g in (xs, ys)))
        assert env.shape == (len(xs), len(ys), len(t))
        for (i, a), (j, b) in itertools.product(enumerate(xs), enumerate(ys)):
            want = [karoubi_hom_check(MonotoneMap(x, y, row), a, b) for row in t]
            assert env[i, j].tolist() == want


def test_hat_functor_rejects_mixed_variance():
    a = KaroubiObj(C2, Idempotent(C2, identity_map(C2)))
    with pytest.raises(TypeMismatch):
        hat_functor_obj(Fun(Var(), Var()), a)


def test_ed_cpo_and_slice_equivalence():
    vee = validate_poset(3, [(0, 1), (0, 2)], 0)
    for poset in (one(), C2, C3, vee, chain_poset(5)):
        cpo = ed_cpo_check(poset)
        assert cpo["ok"], cpo
        sl = ed_slice_equivalence(poset)
        assert sl["ok"], sl


def test_rel_fiber_on_the_two_chain_collapse():
    p = Idempotent(C2, const_map(C2, C2, 0))
    report = karoubi_rel_fiber(KaroubiObj(C2, p))
    assert report["candidates"] == 16
    assert report["admissible"] == 8
    assert report["fiber_size"] == 1
    audit = report["claim_pstar_below"]
    assert audit["holds_for"] + audit["fails_for"] == 8
    assert audit["fails_for"] == 7
    # the diagonal is recorded as a counterexample, decided independently:
    diag = diagonal(C2)
    pulled = inverse_image(p.mor, diag)
    assert not (pulled <= diag)
    recorded = [tuple(map(tuple, c["relation"])) for c in audit["counterexamples"]]
    assert tuple(diag.sorted_pairs()) in recorded


def test_rel_fiber_respects_the_pair_cap():
    # 2^25 candidate relations on five elements, over the default pair cap
    c5 = chain_poset(5)
    with pytest.raises(SizeCapExceeded) as err:
        karoubi_rel_fiber(KaroubiObj(c5, Idempotent(c5, identity_map(c5))))
    assert err.value.message == "relation space too large"
    assert err.value.details == {"carrier": 5, "candidates": 33_554_432}


def per_mask_fiber(a: KaroubiObj) -> dict:
    """karoubi_rel_fiber's report, one scalar inverse image per admissible
    relation in ascending mask order."""
    x, p = a.X, a.p.mor
    fiber, counterexamples, holds, admissible = [], [], 0, 0
    for mask in admissible_masks(x):
        rel = BinRel(x, mask)
        admissible += 1
        pulled = inverse_image(p, rel)
        if pulled == rel:
            fiber.append(rel.sorted_pairs())
        if pulled <= rel:
            holds += 1
        elif len(counterexamples) < 5:
            counterexamples.append(
                {"relation": rel.sorted_pairs(), "pulled_back": pulled.sorted_pairs()}
            )
    return {
        "carrier_size": x.n,
        "idempotent": p.arr.tolist(),
        "candidates": 1 << (x.n * x.n),
        "admissible": admissible,
        "fiber_size": len(fiber),
        "fiber": fiber,
        "claim_pstar_below": {
            "holds_for": holds,
            "fails_for": admissible - holds,
            "counterexamples": counterexamples,
        },
    }


@pytest.mark.parametrize(
    "poset",
    [one(), C2, C3, chain_poset(4), vee(), diamond()],
    ids=["one", "chain2", "chain3", "chain4", "vee", "diamond"],
)
def test_rel_fiber_matches_the_per_mask_scan_on_every_ed_member(poset):
    for p in enumerate_canonical_idempotents(poset):
        a = KaroubiObj(poset, p)
        assert karoubi_rel_fiber(a) == per_mask_fiber(a)


def scalar_idempotents(d) -> list:
    """Every idempotent endomap of d, by a scalar filter of the enumeration."""
    return [t for t in enumerate_monotone_maps(d, d) if all(t[t[v]] == t[v] for v in range(d.n))]


def test_karoubi_homs_match_the_scalar_filter_on_every_pair():
    objs = []
    for d in small_pointed_posets():
        tables = scalar_idempotents(d)
        assert [p.mor.table for p in _all_idempotents(d)] == tables
        objs += [KaroubiObj(d, Idempotent(d, monotone_map(d, d, t))) for t in tables]
    for a, b in itertools.product(objs, repeat=2):
        want = [
            t
            for t in enumerate_monotone_maps(a.X, b.X)
            if karoubi_hom_check(monotone_map(a.X, b.X, t), a, b)
        ]
        assert [f.table for f in karoubi_homs(a, b)] == want, (a.p.mor, b.p.mor)


def test_karoubi_homs_share_one_read_only_table_array():
    a = KaroubiObj(C3, Idempotent(C3, identity_map(C3)))
    homs = karoubi_homs(a, a)
    assert len(homs) == 10
    homs.clear()
    assert len(karoubi_homs(a, a)) == 10  # a fresh list on every call
    tables = monotone_tables(C3, C3, DEFAULT_CAPS.max_pairs)
    assert tables is monotone_tables(C3, C3, DEFAULT_CAPS.max_pairs)
    assert tables.tolist() == [list(t) for t in enumerate_monotone_maps(C3, C3)]
    assert not tables.flags.writeable
    with pytest.raises(ValueError):
        tables[0, 0] = 1
    # lru_cache keeps no exception, so the cap is enforced on every call
    for _ in range(2):
        with pytest.raises(SizeCapExceeded):
            monotone_tables(C3, C3, 9)


@pytest.mark.parametrize(
    "d",
    small_pointed_posets() + [diamond()] + [chain_poset(n) for n in range(4, 10)],
    ids=repr,
)
def test_array_idempotent_order_matches_idem_leq(d, monkeypatch):
    # chain(9) has 256 idempotents, which the array path decides in two blocks
    rechecked = []
    monkeypatch.setattr(karoubi, "idem_leq", lambda p, q: rechecked.append((p, q)))
    idems, leq = _ed_order.__wrapped__(d)
    assert rechecked == []  # both conditions agree on every pair of idempotents
    assert leq.tolist() == [[idem_leq(p, q) for q in idems] for p in idems]


def test_array_idempotent_order_raises_the_scalar_witness(monkeypatch):
    # all 27 endofunctions of the three-chain posing as idempotents: the two
    # order conditions agree on idempotents, but not on these
    fakes = []
    for t in itertools.product(range(3), repeat=3):
        p = object.__new__(Idempotent)
        object.__setattr__(p, "carrier", C3)
        object.__setattr__(p, "mor", MonotoneMap(C3, C3, t))
        fakes.append(p)
    with pytest.raises(EquivalenceMismatch) as want:
        for p in fakes:
            for q in fakes:
                idem_leq(p, q)
    monkeypatch.setattr(karoubi, "enumerate_canonical_idempotents", lambda d: fakes)
    with pytest.raises(EquivalenceMismatch) as got:
        _ed_order.__wrapped__(C3)
    assert got.value.details == want.value.details


@pytest.mark.parametrize(
    "d",
    small_pointed_posets() + [diamond()] + [chain_poset(n) for n in range(4, 9)],
    ids=repr,
)
def test_array_inclusion_monotone_matches_pointwise_leq(d, monkeypatch):
    # the karoubi suite's corpus5 and chain(6..8); the real order passes, and
    # its transpose and the full matrix fail unless E_D has one element
    idems, leq = _ed_order(d)
    for order in (leq, leq.T, np.ones_like(leq)):
        scalar = all(
            idems[i].mor.pointwise_leq(idems[j].mor) for i, j in zip(*np.nonzero(order))
        )
        assert scalar == (order is leq or len(idems) == 1)
        monkeypatch.setattr(karoubi, "_ed_order", lambda d: (idems, order))
        assert ed_cpo_check(d)["checks"]["inclusion_monotone"] is scalar
