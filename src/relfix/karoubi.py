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

from .config import Caps, DEFAULT_CAPS
from .errors import (
    EquivalenceMismatch,
    InternalInvariantViolation,
    LawViolation,
    SizeCapExceeded,
    TypeMismatch,
)
from .functor import FunctorExpr, eval_map, eval_obj, is_covariant, to_src
from .poset import (
    FinPoset,
    MonotoneMap,
    const_map,
    enumerate_monotone_maps,
    identity_map,
    validate_poset,
)
from .relations import BinRel, admissible_masks, inverse_image

__all__ = [
    "Idempotent",
    "Splitting",
    "KaroubiObj",
    "enumerate_canonical_idempotents",
    "idem_leq",
    "split_idempotent",
    "splitting_iso",
    "karoubi_hom_check",
    "karoubi_homs",
    "karoubi_bottom_hom",
    "hat_functor_obj",
    "hat_functor_mor",
    "ed_cpo_check",
    "ed_slice_equivalence",
    "karoubi_rel_fiber",
]


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


def enumerate_canonical_idempotents(
    d: FinPoset, caps: Caps = DEFAULT_CAPS
) -> list:
    """E_D: every idempotent endomap pointwise below the identity.

    Deterministic (table-lexicographic) order.  Every member fixes the
    bottom, since p(bot) <= bot forces it.
    """
    out = []
    for table in enumerate_monotone_maps(d, d, max_count=caps.max_pairs):
        if any(not d.le(v, x) for x, v in enumerate(table)):
            continue
        if any(table[v] != v for v in table):
            continue
        out.append(Idempotent(d, MonotoneMap(d, d, table)))
    return out


def idem_leq(p: Idempotent, q: Idempotent) -> bool:
    """The idempotent order, evaluating both defining conditions.

    Condition A: p = pq = qp.  Condition B: p = qpq.  The two are stated
    as equivalent; any pair where they disagree raises
    EquivalenceMismatch rather than picking a side.
    """
    if p.carrier != q.carrier:
        raise TypeMismatch("idempotents on different carriers")
    cond_a = (p.mor @ q.mor == p.mor) and (q.mor @ p.mor == p.mor)
    cond_b = q.mor @ p.mor @ q.mor == p.mor
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
    fixed = [v for v in range(x.n) if p(v) == v]
    local = {v: i for i, v in enumerate(fixed)}
    im = validate_poset(
        len(fixed),
        [
            (local[a], local[b])
            for a in fixed
            for b in fixed
            if x.le(a, b)
        ],
        local[p(x.bottom)],
    )
    # validate_poset sorts into canonical form; elems carries the pre-sort
    # local ids
    s_table = tuple(fixed[im.elems[i]] for i in range(im.n))
    pos = {orig: i for i, orig in enumerate(s_table)}
    r_table = tuple(pos[p(v)] for v in range(x.n))
    s = MonotoneMap(im, x, s_table)
    r = MonotoneMap(x, im, r_table)
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
        hits = [
            t
            for t in enumerate_monotone_maps(s1.im, s2.im)
            if s2.s @ MonotoneMap(s1.im, s2.im, t) == s1.s
        ]
        if hits != [i.table]:
            raise LawViolation(
                "splitting iso is not unique", candidates=len(hits)
            )
    return i, i_inv


def karoubi_hom_check(f: MonotoneMap, a: KaroubiObj, b: KaroubiObj) -> bool:
    """Whether f is an envelope morphism (X,p) -> (Y,q): fp = f = qf."""
    if f.dom != a.X or f.cod != b.X:
        raise TypeMismatch("map does not go between the carriers")
    return f @ a.p.mor == f and b.p.mor @ f == f


def karoubi_homs(a: KaroubiObj, b: KaroubiObj, caps: Caps = DEFAULT_CAPS) -> list:
    """All envelope morphisms a -> b, in deterministic order."""
    out = []
    for t in enumerate_monotone_maps(a.X, b.X, max_count=caps.max_pairs):
        f = MonotoneMap(a.X, b.X, t)
        if karoubi_hom_check(f, a, b):
            out.append(f)
    return out


def karoubi_bottom_hom(a: KaroubiObj, b: KaroubiObj) -> MonotoneMap:
    """The least envelope morphism a -> b: the constant at q(bot)."""
    return b.p.mor @ const_map(a.X, b.X, b.X.bottom)


def hat_functor_obj(
    f: FunctorExpr, a: KaroubiObj, caps: Caps = DEFAULT_CAPS
) -> FinPoset:
    """Object part of the free-splitting extension: the image of F(p)."""
    return _hat_split(f, a, caps).im


def hat_functor_mor(
    f: FunctorExpr,
    g: MonotoneMap,
    a: KaroubiObj,
    b: KaroubiObj,
    caps: Caps = DEFAULT_CAPS,
) -> MonotoneMap:
    """Morphism part: im(Fp) --s--> FX --Fg--> FY --r--> im(Fq)."""
    if not karoubi_hom_check(g, a, b):
        raise TypeMismatch("not an envelope morphism", table=g.table)
    sp = _hat_split(f, a, caps)
    sq = _hat_split(f, b, caps)
    fg = eval_map(f, None, g, caps)
    return sq.r @ fg @ sp.s


@lru_cache(maxsize=None)
def _hat_split(f: FunctorExpr, a: KaroubiObj, caps: Caps) -> Splitting:
    """The splitting of the idempotent F(p), computed once per object."""
    if not is_covariant(f):
        raise TypeMismatch(
            "free splitting extension needs a covariant functor",
            functor=to_src(f),
        )
    carrier = eval_obj(f, a.X, a.X, caps)
    return split_idempotent(Idempotent(carrier, eval_map(f, None, a.p.mor, caps)))


# ---------------------------------------------------------------------------
# E_D structure reports
# ---------------------------------------------------------------------------


def ed_cpo_check(d: FinPoset, caps: Caps = DEFAULT_CAPS) -> dict:
    """E_D with the idempotent order is a pointed CPO; report the checks.

    Covers: partial-order axioms for idem_leq, monotonicity of the
    inclusion into the pointwise endomap order, the constant-bottom map
    as least element, and (finite rendering of the chain-completeness
    proof) that the top of every maximal chain is its least upper bound
    inside E_D.
    """
    idems = enumerate_canonical_idempotents(d, caps)
    k = len(idems)
    leq = [[idem_leq(p, q) for q in idems] for p in idems]
    checks = {}
    checks["reflexive"] = all(leq[i][i] for i in range(k))
    checks["antisymmetric"] = all(
        not (leq[i][j] and leq[j][i]) or i == j
        for i in range(k)
        for j in range(k)
    )
    checks["transitive"] = all(
        not (leq[i][j] and leq[j][m]) or leq[i][m]
        for i in range(k)
        for j in range(k)
        for m in range(k)
    )
    checks["inclusion_monotone"] = all(
        not leq[i][j] or idems[i].mor.pointwise_leq(idems[j].mor)
        for i in range(k)
        for j in range(k)
    )
    bot = [i for i in range(k) if all(leq[i][j] for j in range(k))]
    checks["pointed"] = (
        len(bot) >= 1
        and idems[bot[0]].mor.table == tuple([d.bottom] * d.n)
    )
    # every maximal chain's top must be an upper bound of the chain in E_D
    # (the finite rendering of chain completeness: the eventual value)
    top_of_chain_is_lub = True
    succs = [
        [j for j in range(k) if leq[i][j] and i != j] for i in range(k)
    ]

    def chains_from(i, acc):
        ext = [j for j in succs[i] if all(leq[m][j] for m in acc)]
        if not ext:
            yield acc
            return
        for j in ext:
            yield from chains_from(j, acc + [j])

    for start in bot:
        for ch in chains_from(start, [start]):
            top = ch[-1]
            if not all(leq[m][top] for m in ch):
                top_of_chain_is_lub = False
    checks["chain_tops_are_lubs"] = top_of_chain_is_lub
    return {
        "poset_size": d.n,
        "ed_size": k,
        "idempotents": [list(p.mor.table) for p in idems],
        "order": [[bool(v) for v in row] for row in leq],
        "checks": checks,
        "ok": all(checks.values()),
    }


def _ep_images(d: FinPoset) -> list:
    """Bottom-containing subsets that are images of embeddings into d.

    A subset works iff every element of d has a greatest lower member in
    it (the projection); returned sorted for determinism.
    """
    out = []
    for mask in range(1 << d.n):
        if not (mask >> d.bottom) & 1:
            continue
        members = [v for v in range(d.n) if (mask >> v) & 1]
        proj = []
        good = True
        for x in range(d.n):
            below = [y for y in members if d.le(y, x)]
            mx = [y for y in below if all(d.le(z, y) for z in below)]
            if len(mx) != 1:
                good = False
                break
            proj.append(mx[0])
        if good:
            out.append((tuple(members), tuple(proj)))
    return out


def ed_slice_equivalence(d: FinPoset, caps: Caps = DEFAULT_CAPS) -> dict:
    """The equivalence between E_D and embeddings into D, as a report.

    j sends an embedding e to e o e_p; i sends p to the splitting's
    inclusion im(p) -> D.  Verifies the round trip j(i(p)) = p exactly,
    i(j(e)) equal to e on image representatives, the size bijection, and
    monotonicity of both directions (slice order: image inclusion).
    """
    idems = enumerate_canonical_idempotents(d, caps)
    images = _ep_images(d)
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
        j_of_i = MonotoneMap(d, d, tuple(sp.s(sp.r(v)) for v in range(d.n)))
        if j_of_i != p.mor:
            ok_round = False
            report["witnesses"].append({"p": list(p.mor.table)})
        image_of_i.append(tuple(sorted(sp.s.table)))
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
    report["checks"]["bijection"] = sorted(image_of_i) == sorted(
        m for m, _ in images
    ) and len(idems) == len(images)
    mono_i = True
    mono_j = True
    for a, p in enumerate(idems):
        for b, q in enumerate(idems):
            pleq = idem_leq(p, q)
            incl = set(image_of_i[a]) <= set(image_of_i[b])
            if pleq and not incl:
                mono_i = False
            if incl and not pleq:
                mono_j = False
    report["checks"]["i_monotone"] = mono_i
    report["checks"]["j_monotone"] = mono_j
    report["ok"] = all(report["checks"].values())
    return report


def karoubi_rel_fiber(a: KaroubiObj, caps: Caps = DEFAULT_CAPS) -> dict:
    """Admissible relations fixed by p-inverse-image, plus the claim audit.

    The fiber over (X,p) is {R admissible | p*R = R}.  The claim that
    p*R <= R holds for every admissible R is evaluated alongside;
    counterexamples are recorded in the report, never raised.
    """
    x = a.X
    n = x.n
    candidates = 1 << (n * n)
    if candidates > caps.max_pairs:
        raise SizeCapExceeded(
            "relation space too large", carrier=n, candidates=candidates
        )
    p = a.p.mor
    fiber = []
    counterexamples = []
    admissible = 0
    holds = 0
    for mask in admissible_masks(x):
        rel = BinRel(x, mask)
        admissible += 1
        pulled = inverse_image(p, rel)
        if pulled == rel:
            fiber.append(rel)
        if pulled <= rel:
            holds += 1
        elif len(counterexamples) < 5:
            counterexamples.append(
                {
                    "relation": rel.sorted_pairs(),
                    "pulled_back": pulled.sorted_pairs(),
                }
            )
    return {
        "carrier_size": n,
        "idempotent": list(p.table),
        "candidates": candidates,
        "admissible": admissible,
        "fiber_size": len(fiber),
        "fiber": [r.sorted_pairs() for r in fiber],
        "claim_pstar_below": {
            "holds_for": holds,
            "fails_for": admissible - holds,
            "counterexamples": counterexamples,
        },
    }
