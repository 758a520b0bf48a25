"""Property suites behind `relfix check` and the acceptance tests.

Each suite returns a report dict with an "ok" verdict and instance
counts; none of them raises on a property failure (the CLI turns a false
verdict into a nonzero exit).

Scale notes.  The relation-morphism lemma suite quantifies over every
pointed poset with at most three elements up to canonical form (one,
the two chains, and the vee), every monotone map between them, and
every admissible relation.  Two of the four properties quantify over an
extra relation R on the domain; for those the universal over R is
decided exactly by comparing pulled-back relations (R ranges over all
admissible relations, and both candidate bounds are admissible, so
"forall R: R <= A iff R <= B" holds exactly when A = B).  Intersections
quantify over the empty and all two-element families, which generate
all finite intersections.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from .chain import build_chain, glue_family
from .cofe import check_contractive
from .config import Caps, DEFAULT_CAPS
from .engines import solve_kleene
from .errors import LawViolation, RelfixError
from .functor import (
    Const,
    Fun,
    FunctorExpr,
    Lift,
    One,
    Prod,
    SumSep,
    Var,
    check_functor_laws,
    eval_map,
)
from .karoubi import (
    Idempotent,
    KaroubiObj,
    _ed_order,
    _envelope,
    enumerate_canonical_idempotents,
    ed_cpo_check,
    ed_slice_equivalence,
    hat_action,
    hat_functor_mor,
    karoubi_bottom_hom,
    karoubi_hom_tables,
    karoubi_rel_fiber,
    split_idempotent,
    splitting_iso,
)
from .poset import (
    FinPoset,
    MonotoneMap,
    chain_poset,
    identity_map,
    monotone_tables,
    small_pointed_posets,
    table_positions,
    validate_poset,
    vee,
)
from .relations import (
    BinRel,
    admissible_rows,
    bottom_rel,
    cached_pair_table,
    diagonal,
    direct_image,
    inverse_image,
    is_rel_morphism,
    masks_to_rows,
    pair_table,
    rows_le,
    total_rel,
)


def diamond() -> FinPoset:
    """Four elements: bottom, two incomparable middles, a top."""
    return validate_poset(4, [(0, 1), (0, 2), (1, 3), (2, 3)], 0, label="diamond")


def canonical_specs() -> dict:
    """The three canonical domain equations with their standard depths."""
    ch2 = chain_poset(2)
    return {
        "lazy_nat": (SumSep(One(), Var()), 6),
        "streams": (Lift(Prod(Const(ch2, diagonal(ch2)), Var())), 4),
        "reflexive": (Lift(Fun(Var(), Var())), 3),
    }


# ---------------------------------------------------------------------------
# the relation-morphism lemma and the image adjunction
# ---------------------------------------------------------------------------


def _all_maps(x: FinPoset, y: FinPoset) -> list:
    return [MonotoneMap(x, y, t) for t in monotone_tables(x, y)]


def lemma2_suite() -> dict:
    """The four morphism properties, exhaustive on the small-poset corpus.

    (1) the identity is a morphism R -> S exactly when R <= S;
    (2) f is a morphism f*S -> S;
    (3) g o f : R -> S exactly when f : R -> g*S (forall-R decided by
        pulled-mask equality, see module docstring);
    (4) f : R -> intersection of a family exactly when f is a morphism
        into every member (empty and binary families).

    Each quantifier runs as array comparisons over the packed rows of
    every admissible relation.  For (3), z's rows are pulled along every
    map into z once; each f then pulls the stacked pulls along every g in
    one call, which must equal the pull along g @ f, found among the maps
    x -> z by table_positions.
    """
    posets = small_pointed_posets()
    rels = {p: admissible_rows(p) for p in posets}
    report: dict = {"corpus": [p.label or str(p.n) for p in posets], "properties": {}}

    count = 0
    ok = True
    for p in posets:
        idm = identity_map(p)
        masks, rows = rels[p]
        pulled = pair_table(idm).pull_rows(rows)
        count += len(rows) ** 2
        if not np.array_equal(
            rows_le(rows[:, None], pulled[None, :]), rows_le(rows[:, None], rows[None, :])
        ):
            ok = False
        # spot-check the actual operation on a deterministic stride
        stride = itertools.islice(itertools.product(masks, masks), 0, None, 97)
        for r, s in stride:
            if is_rel_morphism(idm, BinRel(p, r), BinRel(p, s)) != ((r & ~s) == 0):
                ok = False
    report["properties"]["identity_iff_inclusion"] = {"instances": count, "ok": ok}

    count = 0
    ok = True
    for x, y in itertools.product(posets, repeat=2):
        rows = rels[y][1]
        for f in _all_maps(x, y):
            pt = pair_table(f)
            count += len(rows)
            if not rows_le(pt.push_rows(pt.pull_rows(rows)), rows).all():
                ok = False
    report["properties"]["pullback_is_morphism"] = {"instances": count, "ok": ok}

    count = 0
    ok = True
    # [h, r]: the r-th admissible row of z pulled along the h-th map x -> z
    along = {
        (x, z): np.array([cached_pair_table(t.tobytes(), z.n).pull_rows(rels[z][1])
                          for t in monotone_tables(x, z)])
        for x, z in itertools.product(posets, repeat=2)
    }
    for x, y, z in itertools.product(posets, repeat=3):
        fs, by_g = monotone_tables(x, y), along[y, z].reshape(-1, along[y, z].shape[2])
        # [g, f]: the index of g @ f among the maps x -> z; a missing one fails
        at = table_positions(x, z, monotone_tables(y, z)[:, fs])
        ok &= bool((at >= 0).all())
        for f, at_f in zip(fs, at.T):
            got = cached_pair_table(f.tobytes(), y.n).pull_rows(by_g)
            count += len(got)
            ok &= np.array_equal(along[x, z][at_f].reshape(got.shape), got)
    report["properties"]["composition_transpose"] = {"instances": count, "ok": ok}

    count = 0
    ok = True
    for x, y in itertools.product(posets, repeat=2):
        rows = rels[y][1]
        total_y = masks_to_rows([total_rel(y).mask], y.n * y.n)
        total_x = masks_to_rows([total_rel(x).mask], x.n * x.n)
        # the unordered pairs {S1, S2}, each once
        i, j = np.triu_indices(len(rows))
        meets = rows.take(i, 0) & rows.take(j, 0)
        for f in _all_maps(x, y):
            pt = pair_table(f)
            count += 1
            if not np.array_equal(pt.pull_rows(total_y), total_x):
                ok = False
            pulls = pt.pull_rows(rows)
            count += len(i)
            if not np.array_equal(pt.pull_rows(meets), pulls.take(i, 0) & pulls.take(j, 0)):
                ok = False
    report["properties"]["meet_preservation"] = {"instances": count, "ok": ok}

    report["ok"] = all(v["ok"] for v in report["properties"].values())
    return report


def adjunction_suite() -> dict:
    """direct_image -| inverse_image, exhaustive on the same corpus: the
    (R, S) grid of each map is one array comparison."""
    posets = small_pointed_posets()
    rels = {p: admissible_rows(p) for p in posets}
    count = 0
    ok = True
    witnesses = []
    for x, y in itertools.product(posets, repeat=2):
        masks_x, rows_x = rels[x]
        masks_y, rows_y = rels[y]
        bot_y = masks_to_rows([bottom_rel(y).mask], y.n * y.n)
        for f in _all_maps(x, y):
            pt = pair_table(f)
            pushes = pt.push_rows(rows_x) | bot_y
            pulls = pt.pull_rows(rows_y)
            count += len(rows_x) * len(rows_y)
            bad = rows_le(pushes[:, None], rows_y[None, :]) != rows_le(
                rows_x[:, None], pulls[None, :]
            )
            if bad.any():
                ok = False
                for r, s in np.argwhere(bad)[: 3 - len(witnesses)]:
                    witnesses.append(
                        {"f": list(f.table), "r": masks_x[r], "s": masks_y[s]}
                    )
    # interface spot-check against the actual operations
    spot = 0
    for x, y in itertools.product(posets[:3], repeat=2):
        for f in _all_maps(x, y)[:2]:
            for r in rels[x][0][:4]:
                for s in rels[y][0][:4]:
                    spot += 1
                    lhs = direct_image(f, BinRel(x, r)) <= BinRel(y, s)
                    rhs = BinRel(x, r) <= inverse_image(f, BinRel(y, s))
                    if lhs != rhs:
                        ok = False
    return {
        "instances": count,
        "interface_spot_checks": spot,
        "witnesses": witnesses,
        "ok": ok,
    }


# ---------------------------------------------------------------------------
# functor laws and the corrupted-action fixture
# ---------------------------------------------------------------------------


_LAW_BUDGET = 4000  # instances per law in the two law suites


def functor_laws_suite() -> dict:
    """check_functor_laws over the three canonical functors."""
    out: dict = {"functors": {}, "ok": True}
    for name, (f, _depth) in canonical_specs().items():
        try:
            rep = check_functor_laws(f, budget=_LAW_BUDGET, caps=DEFAULT_CAPS)
            out["functors"][name] = rep
        except LawViolation as exc:
            out["functors"][name] = {"error": str(exc)}
            out["ok"] = False
    return out


def _broken_action(f: FunctorExpr, fneg, fpos, caps: Caps = DEFAULT_CAPS):
    """A deliberately wrong morphism action: the function-space case
    composes in the wrong order whenever the types let it slip through."""
    if (
        isinstance(f, Fun)
        and fneg is not None
        and fpos is not None
        and fneg.dom == fneg.cod
        and fpos.dom == fpos.cod
    ):
        am = eval_map(f.left, fpos, fneg, caps)
        bm = eval_map(f.right, fneg, fpos, caps)
        if am.dom == am.cod and bm.dom == bm.cod:
            return eval_map(Fun(Var(), Var()), bm, am, caps)  # hom_map(bm, am)
    return eval_map(f, fneg, fpos, caps)


def corrupted_action_suite() -> dict:
    """The harness must catch the broken action; ok means it was caught,
    and the report carries the law-violation witness."""
    try:
        rep = check_functor_laws(
            Fun(Var(), Var()), budget=_LAW_BUDGET, action=_broken_action, caps=DEFAULT_CAPS
        )
        return {"caught": False, "report": rep, "ok": False}
    except LawViolation as exc:
        return {
            "caught": True,
            "law": exc.details.get("law"),
            "witness": {k: v for k, v in exc.details.items() if k != "law"},
            "ok": False,
        }


# ---------------------------------------------------------------------------
# contractiveness, duality, karoubi
# ---------------------------------------------------------------------------


def contractive_suite() -> dict:
    """Exhaustive contractiveness on lazy naturals (depth 3, by sections)
    and the function space (depth 2, full), plus the identity-operator
    fixture that must produce a counterexample."""
    out: dict = {"checks": {}, "ok": True}
    lazy = build_chain(SumSep(One(), Var()), 3, DEFAULT_CAPS)
    out["checks"]["lazy_nat_depth3"] = check_contractive(lazy)
    funsp = build_chain(Lift(Fun(Var(), Var())), 2, DEFAULT_CAPS)
    out["checks"]["fun_space_depth2"] = check_contractive(funsp)
    ident = check_contractive(
        build_chain(SumSep(One(), Var()), 1, DEFAULT_CAPS), op=lambda c, fam: fam
    )
    out["checks"]["identity_op_fixture"] = ident
    out["ok"] = (
        out["checks"]["lazy_nat_depth3"]["ok"]
        and out["checks"]["fun_space_depth2"]["ok"]
        and not ident["ok"]
    )
    return out


def duality_suite() -> dict:
    """Gluing duality for the solved family of each canonical spec; the
    gluing operation itself verifies the intersection-of-pullbacks equals
    the union-of-pushforwards and raises on mismatch."""
    out: dict = {"specs": {}, "ok": True}
    for name, (f, depth) in canonical_specs().items():
        try:
            chain = build_chain(f, depth, DEFAULT_CAPS)
            fam = solve_kleene(chain)
            glued = glue_family(chain, fam)
            out["specs"][name] = {
                "sizes": [p.n for p in chain.levels],
                "glued_pairs": len(glued),
                "ok": True,
            }
        except RelfixError as exc:
            out["specs"][name] = {"error": str(exc), "ok": False}
            out["ok"] = False
    return out


def _all_idempotents(p: FinPoset) -> list:
    """Every idempotent endomap (not only those below the identity)."""
    t = monotone_tables(p, p)
    keep = (np.take_along_axis(t, t, axis=1) == t).all(axis=1)  # t o t = t
    return [Idempotent(p, MonotoneMap(p, p, row)) for row in t[keep]]


def karoubi_suite() -> dict:
    """The appendix checks at acceptance scale.

    E_CH3 has exactly four members; both idempotent-order conditions
    agree pairwise on every corpus poset up to five elements (idem_leq
    raises on disagreement); splittings satisfy their laws with unique
    isos; the free-splitting extension satisfies identity and composition
    on three-element carriers; the slice equivalence round-trips; and the
    least envelope hom is the bottom map formula.
    """
    out: dict = {"checks": {}, "ok": True}
    ch3 = chain_poset(3)
    e3 = enumerate_canonical_idempotents(ch3)
    out["checks"]["e_ch3_size"] = {"got": len(e3), "want": 4, "ok": len(e3) == 4}

    corpus5 = small_pointed_posets() + [diamond(), chain_poset(4), chain_poset(5)]
    pairs = 0
    agree_ok = True
    for d in corpus5:
        try:
            idems, _ = _ed_order(d)
        except RelfixError:
            agree_ok = False
            continue
        pairs += len(idems) ** 2
    out["checks"]["order_conditions_agree"] = {"pairs": pairs, "ok": agree_ok}

    splits = 0
    split_ok = True
    for d in corpus5:
        for p in _all_idempotents(d):
            try:
                s = split_idempotent(p)
                splitting_iso(s, s)
                splits += 1
            except RelfixError:
                split_ok = False
    out["checks"]["splittings"] = {"instances": splits, "ok": split_ok}

    hat_functor = Lift(Var())
    # the objects grouped by carrier: FinPoset equality is order equality
    groups = {d: [KaroubiObj(d, p) for p in _all_idempotents(d)] for d in small_pointed_posets()}
    objs = [a for group in groups.values() for a in group]
    hat_ok = all(hat_functor_mor(hat_functor, a.p.mor, a, a).is_identity() for a in objs)
    hat_instances = len(objs)
    top = list(enumerate(objs[:10]))
    # the tables of the first three homs of each pair, and their hat images
    hats = {}
    for (i, a), (j, b) in itertools.product(top, repeat=2):
        rows = karoubi_hom_tables(a, b)[:3]
        hats[i, j] = rows, hat_action(hat_functor, rows, a, b)
    for (i, a), (k, c) in itertools.product(top, repeat=2):
        # rows (b, g, f) over every b in reach: hat(g . f) against hat g . hat f
        mids = [hats[i, j] + hats[j, k] for j, b in top if a.X.n + b.X.n + c.X.n <= 7]
        if mids:
            gf = np.concatenate([g[:, f].reshape(-1, a.X.n) for f, _, g, _ in mids])
            want = np.concatenate([hg[:, hf].reshape(-1, hf.shape[1]) for _, hf, _, hg in mids])
            hat_instances += len(gf)
            hat_ok &= bool((hat_action(hat_functor, gf, a, c) == want).all())
    out["checks"]["hat_laws"] = {"instances": hat_instances, "ok": hat_ok}

    slice_ok = all(ed_slice_equivalence(d)["ok"] for d in corpus5)
    cpo_ok = all(ed_cpo_check(d)["ok"] for d in corpus5)
    out["checks"]["slice_equivalence"] = {"posets": len(corpus5), "ok": slice_ok}
    out["checks"]["ed_cpo"] = {"posets": len(corpus5), "ok": cpo_ok}

    # each carrier pair decides every (p, q) at once: env[i, j, k] is whether
    # the k-th map is an envelope hom p_i -> q_j
    pointed, pointed_ok = 0, True
    for (x, xs), (y, ys) in itertools.product(groups.items(), repeat=2):
        if x.n * y.n <= 9:
            t = monotone_tables(x, y, DEFAULT_CAPS.max_pairs)
            env = _envelope(t, *(np.array([a.p.mor.arr for a in g]) for g in (xs, ys)))
            bot = np.array([karoubi_bottom_hom(xs[0], b).arr for b in ys])[:, None]
            pointed += len(xs) * len(ys)
            pointed_ok &= bool((env & (t == bot).all(-1)).any(-1).all()
                               and (~env | y.leq[bot, t].all(-1)).all())
    out["checks"]["pointed_homs"] = {"instances": pointed, "ok": pointed_ok}

    ch2 = chain_poset(2)
    audit = karoubi_rel_fiber(KaroubiObj(ch2, Idempotent(ch2, MonotoneMap(ch2, ch2, (0, 0)))))
    diag_pairs = diagonal(ch2).sorted_pairs()
    diag_seen = any(
        c["relation"] == diag_pairs
        for c in audit["claim_pstar_below"]["counterexamples"]
    )
    out["checks"]["claim_audit"] = {
        "fails_for": audit["claim_pstar_below"]["fails_for"],
        "diagonal_counterexample_recorded": diag_seen,
        "ok": diag_seen and audit["claim_pstar_below"]["fails_for"] > 0,
    }

    out["ok"] = all(v["ok"] for v in out["checks"].values())
    return out


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def all_suites() -> dict:
    return {
        "lemma2": lemma2_suite,
        "functor_laws": functor_laws_suite,
        "adjunction": adjunction_suite,
        "contractive": contractive_suite,
        "karoubi": karoubi_suite,
        "duality": duality_suite,
    }


def run_suite(name: str, on_suite=None) -> dict:
    """Run one suite by name ('all' runs every standard suite;
    'corrupted' runs the deliberately failing fixture).  With 'all',
    on_suite(key, seconds) is called after each suite with its wall time."""
    if name == "corrupted":
        return corrupted_action_suite()
    if name == "all":
        out: dict = {"suites": {}, "ok": True}
        for key, fn in all_suites().items():
            t0 = time.monotonic()
            rep = fn()
            if on_suite is not None:
                on_suite(key, time.monotonic() - t0)
            out["suites"][key] = rep
            if not rep["ok"]:
                out["ok"] = False
        return out
    suites = all_suites()
    if name not in suites:
        raise KeyError(name)
    return suites[name]()
