"""Idempotents, splittings, and the Karoubi envelope on finite pointed posets.

Executable forms of the appendix machinery: the set E_D of idempotents
below the identity, the idempotent order (both stated conditions, cross
asserted), image splittings with the uniqueness lemma, the hom condition
of the envelope, the free-splitting extension of a functor, the CPO
structure of E_D, the equivalence of E_D with the slice of embeddings
into D, and the relation fiber over an envelope object together with an
audit of the claim that p*R <= R always holds (it does not; the audit
records counterexamples instead of crashing).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import DEFAULT_CAPS
from .errors import (
    EquivalenceMismatch,
    InternalInvariantViolation,
    LawViolation,
    SizeCapExceeded,
    TypeMismatch,
)
from .functor import FunctorExpr, MapRows, eval_map, eval_maps, eval_obj, is_covariant, to_src
from .poset import (
    FinPoset,
    MonotoneMap,
    _check_size,
    const_map,
    identity_map,
    monotone_tables,
    validate_poset,
)
from .relations import BinRel, admissible_rows, pair_table, rows_le, rows_to_masks


@dataclass(frozen=True)
class Idempotent:
    """A monotone endomap p with p o p = p."""

    carrier: FinPoset
    mor: MonotoneMap

    def __post_init__(self):
        if self.mor.dom != self.carrier or self.mor.cod != self.carrier:
            raise TypeMismatch("idempotent must be an endomap of its carrier")
        if self.mor @ self.mor != self.mor:
            raise LawViolation("map is not idempotent", table=self.mor.table)

    def __call__(self, x: int) -> int:
        return self.mor(x)


@dataclass(frozen=True)
class Splitting:
    """p factored as s o r with r o s the identity of the image."""

    p: Idempotent
    im: FinPoset
    r: MonotoneMap
    s: MonotoneMap


@dataclass(frozen=True)
class KaroubiObj:
    """An envelope object: a carrier with a chosen idempotent on it."""

    X: FinPoset
    p: Idempotent

    def __post_init__(self):
        if self.p.carrier != self.X:
            raise TypeMismatch("idempotent lives on a different carrier")


def enumerate_canonical_idempotents(d: FinPoset) -> list:
    """E_D: every idempotent endomap pointwise below the identity.

    Each member is built from its image (see _deflation_images).
    Deterministic (table-lexicographic) order.  Every member fixes the
    bottom, since p(bot) <= bot forces it.
    """
    tables = sorted(table for _, table in _deflation_images(d))
    return [Idempotent(d, MonotoneMap(d, d, t)) for t in tables]


def _deflation_images(d: FinPoset) -> list:
    """(image, table) of every deflation of d, by ascending image mask.

    A deflation p is fixed by its image S: p(x) is the greatest member of
    S below x.  So the deflations are the subsets S that contain the
    bottom and give every x such a greatest member, and the scan reads p
    off on the way.  There are 2^(n-1) candidates and E_D can have that
    many members, so the count is checked against the carrier and
    order-matrix caps before the scan.
    """
    candidates = 1 << (d.n - 1)
    _check_size(candidates, DEFAULT_CAPS, "E_D", candidates=candidates)
    down = [
        sum(1 << int(y) for y in np.flatnonzero(d.leq[:, x])) for x in range(d.n)
    ]
    out = []
    for mask in range(1 << d.n):
        if not (mask >> d.bottom) & 1:
            continue
        table = []
        for x in range(d.n):
            below = mask & down[x]
            # the canonical order is a linear extension, so a greatest
            # member of `below` is its last one
            top = below.bit_length() - 1
            if below & ~down[top]:
                break
            table.append(top)
        else:
            members = tuple(v for v in range(d.n) if (mask >> v) & 1)
            out.append((members, tuple(table)))
    return out


def idem_leq(p: Idempotent, q: Idempotent) -> bool:
    """The idempotent order, evaluating both defining conditions.

    Condition A: p = pq = qp.  Condition B: p = qpq.  The two are stated
    as equivalent; any pair where they disagree raises
    EquivalenceMismatch rather than picking a side.
    """
    if p.carrier != q.carrier:
        raise TypeMismatch("idempotents on different carriers")
    pt, qt = p.mor.arr, q.mor.arr
    pq = pt.take(qt)
    cond_a = bool((pq == pt).all() and (qt.take(pt) == pt).all())
    cond_b = bool((qt.take(pq) == pt).all())
    if cond_a != cond_b:
        raise EquivalenceMismatch(
            "the two idempotent-order conditions disagree",
            p=p.mor.table,
            q=q.mor.table,
            via_absorption=cond_a,
            via_sandwich=cond_b,
        )
    return cond_a


def split_idempotent(p: Idempotent) -> Splitting:
    """Split p through the sub-poset of its fixed points (canonical form).

    The identity splits as (X, id, id) literally, per the normalization
    clause.
    """
    x = p.carrier
    if p.mor.is_identity():
        return Splitting(p, x, identity_map(x), identity_map(x))
    fixed = np.flatnonzero(p.mor.arr == np.arange(x.n))
    # local ids are positions in fixed, which is ascending
    im = validate_poset(
        len(fixed),
        np.argwhere(x.leq.take(fixed, 0).take(fixed, 1)).tolist(),
        int(np.searchsorted(fixed, p(x.bottom))),
    )
    # validate_poset sorts into canonical form; elems carries the pre-sort
    # local ids
    s_table = fixed.take(im.elems)
    pos = np.empty(x.n, dtype=np.int64)
    pos[s_table] = np.arange(im.n)
    s = MonotoneMap(im, x, s_table)
    r = MonotoneMap(x, im, pos.take(p.mor.arr))
    if s @ r != p.mor or not (r @ s).is_identity():
        raise InternalInvariantViolation("splitting laws failed", p=p.mor.table)
    return Splitting(p, im, r, s)


def splitting_iso(s1: Splitting, s2: Splitting, verify_unique: bool | None = None):
    """The canonical iso between two splittings of the same idempotent:
    i = r2 o s1 with inverse r1 o s2.

    Verifies both composites are identities and the triangle s2 o i = s1.
    With verify_unique (default: automatic at small scale) it checks by
    exhaustive search that no other map satisfies the triangle
    isomorphically.
    """
    if s1.p != s2.p:
        raise TypeMismatch("splittings of different idempotents")
    i = s2.r @ s1.s
    i_inv = s1.r @ s2.s
    if not (i_inv @ i).is_identity() or not (i @ i_inv).is_identity():
        raise LawViolation("splitting iso composites are not identities")
    if s2.s @ i != s1.s:
        raise LawViolation("splitting iso triangle does not commute")
    if verify_unique is None:
        verify_unique = s1.im.n <= 4
    if verify_unique:
        t = monotone_tables(s1.im, s2.im)
        hits = t[(s2.s.arr[t] == s1.s.arr).all(axis=1)].tolist()
        if hits != [i.arr.tolist()]:
            raise LawViolation("splitting iso is not unique", candidates=len(hits))
    return i, i_inv


def _envelope(t: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """[i, j, k]: row k of the table array t is an envelope morphism
    (X, p_i) -> (Y, q_j), for stacks p and q of idempotent tables: fp = f = qf."""
    return (t[:, p] == t[:, None]).all(-1).T[:, None] & (q[:, t] == t).all(-1)


def karoubi_hom_check(f: MonotoneMap, a: KaroubiObj, b: KaroubiObj) -> bool:
    """Whether f is an envelope morphism (X,p) -> (Y,q): fp = f = qf."""
    if f.dom != a.X or f.cod != b.X:
        raise TypeMismatch("map does not go between the carriers")
    return f @ a.p.mor == f and b.p.mor @ f == f


def karoubi_hom_tables(a: KaroubiObj, b: KaroubiObj) -> np.ndarray:
    """The tables of all envelope morphisms a -> b, as cached table rows."""
    t = monotone_tables(a.X, b.X, DEFAULT_CAPS.max_pairs)
    return t[_envelope(t, a.p.mor.arr[None], b.p.mor.arr[None])[0, 0]]


def karoubi_homs(a: KaroubiObj, b: KaroubiObj) -> list:
    """All envelope morphisms a -> b, as maps."""
    return [MonotoneMap(a.X, b.X, row) for row in karoubi_hom_tables(a, b)]


def karoubi_bottom_hom(a: KaroubiObj, b: KaroubiObj) -> MonotoneMap:
    """The least envelope morphism a -> b: the constant at q(bot)."""
    return b.p.mor @ const_map(a.X, b.X, b.X.bottom)


def hat_functor_obj(f: FunctorExpr, a: KaroubiObj) -> FinPoset:
    """Object part of the free-splitting extension: the image of F(p)."""
    return _hat_split(f, a).im


def hat_functor_mor(f: FunctorExpr, g: MonotoneMap, a: KaroubiObj, b: KaroubiObj) -> MonotoneMap:
    """Morphism part: hat_action on the one row of g."""
    if g.dom != a.X or g.cod != b.X:
        raise TypeMismatch("map does not go between the carriers")
    row = hat_action(f, g.arr[None], a, b)[0]
    return MonotoneMap(_hat_split(f, a).im, _hat_split(f, b).im, row)


def hat_action(f: FunctorExpr, rows: np.ndarray, a: KaroubiObj, b: KaroubiObj) -> np.ndarray:
    """The morphism part on each row of an array of envelope-morphism tables
    a -> b, with every Fg from one eval_maps call: im(Fp) --s--> FX --Fg-->
    FY --r--> im(Fq).  A row that is no envelope morphism raises TypeMismatch."""
    if not (ok := _envelope(rows, a.p.mor.arr[None], b.p.mor.arr[None])[0, 0]).all():
        raise TypeMismatch("not an envelope morphism", table=tuple(rows[ok.argmin()].tolist()))
    sp, sq = _hat_split(f, a), _hat_split(f, b)
    fg = eval_maps(f, None, MapRows(a.X, b.X, rows), DEFAULT_CAPS).arr
    return sq.r.arr[np.broadcast_to(fg, (len(rows), fg.shape[1]))[:, sp.s.arr]]


@lru_cache(maxsize=None)
def _hat_split(f: FunctorExpr, a: KaroubiObj) -> Splitting:
    """The splitting of the idempotent F(p), computed once per object."""
    if not is_covariant(f):
        raise TypeMismatch(
            "free splitting extension needs a covariant functor",
            functor=to_src(f),
        )
    carrier = eval_obj(f, a.X, a.X, DEFAULT_CAPS)
    return split_idempotent(Idempotent(carrier, eval_map(f, None, a.p.mor, DEFAULT_CAPS)))


# ---------------------------------------------------------------------------
# E_D structure reports
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _ed_order(d: FinPoset) -> tuple:
    """E_D and its idempotent-order matrix, computed once per poset.

    Both order conditions of idem_leq are decided on all k^2 pairs over
    the k x n table array, a block of p rows at a time (each intermediate
    holds at most 2^19 entries); a pair where they disagree goes through
    idem_leq, which raises EquivalenceMismatch with its witness.
    """
    idems = tuple(enumerate_canonical_idempotents(d))
    t = np.array([p.mor.arr for p in idems])
    flat, off = t.ravel(), np.arange(len(t))[:, None] * d.n  # q(v) = flat[off + v]
    leq = np.empty((len(t), len(t)), dtype=bool)
    step = max(1, (1 << 19) // t.size)
    for lo in range(0, len(t), step):
        p = t[lo : lo + step]
        pq = p[:, t]  # [i, j, x] = p_i(q_j(x))
        cond_a = (pq == p[:, None]).all(2) & (flat[off + p[:, None]] == p[:, None]).all(2)
        cond_b = (flat[off + pq] == p[:, None]).all(2)
        leq[lo : lo + step] = cond_a
        for i, j in np.argwhere(cond_a != cond_b).tolist():
            leq[lo + i, j] = idem_leq(idems[lo + i], idems[j])
    leq.setflags(write=False)
    return idems, leq


def _order_axioms(leq: np.ndarray) -> dict:
    """Reflexivity, antisymmetry and transitivity of a boolean k x k matrix.

    Transitivity is the boolean product leq . leq staying inside leq.
    """
    k = len(leq)
    f = leq.astype(np.float32)
    return {
        "reflexive": bool(leq.diagonal().all()),
        "antisymmetric": not (leq & leq.T & ~np.eye(k, dtype=bool)).any(),
        "transitive": not ((f @ f > 0) & ~leq).any(),
    }


def ed_cpo_check(d: FinPoset) -> dict:
    """E_D with the idempotent order is a pointed CPO; report the checks.

    Covers: partial-order axioms for idem_leq, monotonicity of the
    inclusion into the pointwise endomap order, and the constant-bottom
    map as least element.  Chain completeness needs no check of its own:
    E_D is finite, so every chain in it is finite and its top is above
    every other member, which leaves only top <= top, the reflexivity
    already checked.
    """
    idems, leq = _ed_order(d)
    checks = _order_axioms(leq)
    # i <= j implies p_i <= p_j pointwise, in blocks of at most 2^19 entries
    t, (i, j) = np.array([p.mor.arr for p in idems]), np.nonzero(leq)
    step = max(1, (1 << 19) // d.n)
    checks["inclusion_monotone"] = all(
        d.leq[t[i[lo : lo + step]], t[j[lo : lo + step]]].all() for lo in range(0, len(i), step)
    )
    bot = np.flatnonzero(leq.all(axis=1))
    checks["pointed"] = len(bot) >= 1 and bool((idems[bot[0]].mor.arr == d.bottom).all())
    return {
        "poset_size": d.n,
        "ed_size": len(idems),
        "idempotents": t.tolist(),
        "order": leq.tolist(),
        "checks": checks,
        "ok": all(checks.values()),
    }


def ed_slice_equivalence(d: FinPoset) -> dict:
    """The equivalence between E_D and embeddings into D, as a report.

    j sends an embedding e to e o e_p; i sends p to the splitting's
    inclusion im(p) -> D.  Verifies the round trip j(i(p)) = p exactly,
    i(j(e)) equal to e on image representatives, the size bijection, and
    monotonicity of both directions (slice order: image inclusion).
    """
    idems, leq = _ed_order(d)
    images = _deflation_images(d)
    report = {
        "poset_size": d.n,
        "ed_size": len(idems),
        "embedding_images": [list(m) for m, _ in images],
        "checks": {},
        "witnesses": [],
    }
    ok_round = True
    image_of_i = []
    for p in idems:
        sp = split_idempotent(p)
        if sp.s @ sp.r != p.mor:
            ok_round = False
            report["witnesses"].append({"p": p.mor.arr.tolist()})
        image_of_i.append(tuple(sorted(sp.s.arr.tolist())))
    report["checks"]["j_after_i_identity"] = ok_round
    ok_back = True
    for members, proj in images:
        # j of the inclusion is the projection table; its fixed points
        # must recover the image exactly
        back = [v for v in range(d.n) if proj[v] == v]
        if tuple(back) != members:
            ok_back = False
            report["witnesses"].append({"image": list(members)})
    report["checks"]["i_after_j_identity_on_images"] = ok_back
    report["checks"]["bijection"] = sorted(image_of_i) == sorted(m for m, _ in images)
    # incl[a, b]: image a is inside image b, i.e. |a & b| = |a|
    member = np.zeros((len(idems), d.n), dtype=np.float32)
    for a, im in enumerate(image_of_i):
        member[a, list(im)] = 1
    incl = member @ member.T == member.sum(axis=1)[:, None]
    report["checks"]["i_monotone"] = not (leq & ~incl).any()
    report["checks"]["j_monotone"] = not (incl & ~leq).any()
    report["ok"] = all(report["checks"].values())
    return report


def karoubi_rel_fiber(a: KaroubiObj) -> dict:
    """Admissible relations fixed by p-inverse-image, plus the claim audit.

    The fiber over (X,p) is {R admissible | p*R = R}.  The claim that
    p*R <= R holds for every admissible R is evaluated alongside;
    counterexamples are recorded in the report, never raised.  Every
    admissible relation is pulled along p in one batch.
    """
    x = a.X
    n = x.n
    candidates = 1 << (n * n)
    if candidates > DEFAULT_CAPS.max_pairs:
        raise SizeCapExceeded(
            "relation space too large", carrier=n, candidates=candidates
        )
    p = a.p.mor
    masks, rows = admissible_rows(x)
    pulled = pair_table(p).pull_rows(rows)
    below = rows_le(pulled, rows)
    bad = np.flatnonzero(~below)[:5]
    counterexamples = [
        {
            "relation": BinRel(x, masks[i]).sorted_pairs(),
            "pulled_back": BinRel(x, m).sorted_pairs(),
        }
        for i, m in zip(bad.tolist(), rows_to_masks(pulled[bad]))
    ]
    fiber = np.flatnonzero((pulled == rows).all(axis=1)).tolist()
    holds = int(below.sum())
    return {
        "carrier_size": n,
        "idempotent": p.arr.tolist(),
        "candidates": candidates,
        "admissible": len(masks),
        "fiber_size": len(fiber),
        "fiber": [BinRel(x, masks[i]).sorted_pairs() for i in fiber],
        "claim_pstar_below": {
            "holds_for": holds,
            "fails_for": len(masks) - holds,
            "counterexamples": counterexamples,
        },
    }
