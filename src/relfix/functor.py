"""Mixed-variance functor expressions F(X-, X+) on finite pointed posets.

An expression is an AST over One, Const, Var, Lift, Prod, SumSep and Fun.
The recursion variable Var may occur with either polarity; Fun flips the
polarity of its left child.  Polarities are recomputed on demand by
var_polarities, which keeps the annotation consistent with the flipping
rule by construction.

Four actions share the AST:

* eval_obj  -- object action, producing a FinPoset
* eval_map  -- morphism action, producing a MonotoneMap
* eval_ep   -- action on embedding/projection pairs
* eval_rel  -- relational action, producing an admissible BinRel

The morphism action follows the usual mixed-variance contract: given
fneg : Xneg' -> Xneg (contravariant direction) and fpos : Xpos -> Xpos',
eval_map(F, fneg, fpos) maps eval_obj(F, Xneg, Xpos) to
eval_obj(F, Xneg', Xpos').  Either argument may be None when the
expression never consumes it (e.g. a covariant expression needs no fneg).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .config import Caps, DEFAULT_CAPS
from .ep import EpPair, verify_ep_pair
from .errors import (
    InadmissibleRelation,
    InternalInvariantViolation,
    LawViolation,
    NotEp,
    SizeCapExceeded,
    TypeMismatch,
)
from .poset import (
    FinPoset,
    MonotoneMap,
    hom_poset,
    identity_map,
    lift,
    monotone_tables,
    one,
    product,
    small_pointed_posets,
    sum_sep,
    table_positions,
)
from .relations import (
    BinRel,
    PairTable,
    bottom_index,
    bottom_rel,
    diagonal,
    is_admissible,
    is_rel_morphism,
    rel_from_matrix,
    total_rel,
)


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FunctorExpr:
    """Base class for functor expression nodes."""

    def __str__(self) -> str:
        return to_src(self)

    @cached_property
    def reads(self) -> tuple[bool, bool]:
        """Whether it reads its negative and its positive relation, kept on
        the node: an lru_cache would hash the whole tree on every lookup."""
        polarities = var_polarities(self)
        return -1 in polarities, 1 in polarities


@dataclass(frozen=True)
class One(FunctorExpr):
    """The constant one-point poset."""


@dataclass(frozen=True)
class Var(FunctorExpr):
    """The recursion variable."""


@dataclass(frozen=True)
class Const(FunctorExpr):
    """A constant poset together with its chosen admissible relation."""

    poset: FinPoset
    rel: BinRel


@dataclass(frozen=True)
class Lift(FunctorExpr):
    body: FunctorExpr


@dataclass(frozen=True)
class Prod(FunctorExpr):
    left: FunctorExpr
    right: FunctorExpr


@dataclass(frozen=True)
class SumSep(FunctorExpr):
    left: FunctorExpr
    right: FunctorExpr


@dataclass(frozen=True)
class Fun(FunctorExpr):
    """Function space; the left child is contravariant."""

    left: FunctorExpr
    right: FunctorExpr


def var_polarities(f: FunctorExpr, sign: int = 1) -> frozenset:
    """Polarities (+1/-1) at which Var occurs in f."""
    if isinstance(f, Var):
        return frozenset((sign,))
    if isinstance(f, (One, Const)):
        return frozenset()
    if isinstance(f, Lift):
        return var_polarities(f.body, sign)
    if isinstance(f, Fun):
        return var_polarities(f.left, -sign) | var_polarities(f.right, sign)
    if isinstance(f, (Prod, SumSep)):
        return var_polarities(f.left, sign) | var_polarities(f.right, sign)
    raise TypeMismatch("unknown functor node", node=type(f).__name__)


def is_covariant(f: FunctorExpr) -> bool:
    return -1 not in var_polarities(f)


def validate_functor(f: FunctorExpr) -> frozenset:
    """Check Const invariants throughout f; return its Var polarities."""
    if isinstance(f, Const):
        if f.rel.carrier != f.poset:
            raise TypeMismatch("const relation lives on a different poset")
        if not is_admissible(f.rel):
            raise InadmissibleRelation(
                "const relation misses the bottom pair", functor=to_src(f)
            )
    elif isinstance(f, Lift):
        validate_functor(f.body)
    elif isinstance(f, (Prod, SumSep, Fun)):
        validate_functor(f.left)
        validate_functor(f.right)
    return var_polarities(f)


def to_src(f: FunctorExpr) -> str:
    """Surface syntax for an expression (Var prints as the name D)."""
    if isinstance(f, One):
        return "one"
    if isinstance(f, Var):
        return "D"
    if isinstance(f, Const):
        return f"const({f.poset.label or f.poset.n}, {len(f.rel)} pairs)"
    if isinstance(f, Lift):
        return f"lift({to_src(f.body)})"
    if isinstance(f, Prod):
        return f"prod({to_src(f.left)}, {to_src(f.right)})"
    if isinstance(f, SumSep):
        return f"sum({to_src(f.left)}, {to_src(f.right)})"
    if isinstance(f, Fun):
        return f"fun({to_src(f.left)}, {to_src(f.right)})"
    raise TypeMismatch("unknown functor node", node=type(f).__name__)


# ---------------------------------------------------------------------------
# cached constructions with injection data
# ---------------------------------------------------------------------------
#
# The injection positions are read from each construction's rank (the id of
# each element of its layout).  They depend only on order structure (the
# canonical permutation is a function of the heights), so caching on the
# structural identity of the argument posets is sound even though
# descriptor metadata may differ between structurally equal posets.

_ONE = one()
_ONE_REL = total_rel(_ONE)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=None)
def _lift_c(x: FinPoset, caps: Caps):
    """The lift, the id of each embedded element of x, and the embedding's
    pair table."""
    p = lift(x, caps)
    return p, p.rank[1:], PairTable(p.rank[1:], p.n)


@lru_cache(maxsize=None)
def _prod_c(x: FinPoset, y: FinPoset, caps: Caps):
    """The product and the id of each pair, as an x.n by y.n array."""
    p = product(x, y, caps)
    return p, p.rank.reshape(x.n, y.n)


@lru_cache(maxsize=None)
def _sum_c(x: FinPoset, y: FinPoset, caps: Caps):
    """The separated sum, the ids of both injections, and their pair tables."""
    p = sum_sep(x, y, caps)
    inl, inr = p.rank[1 : 1 + x.n], p.rank[1 + x.n :]
    return p, inl, inr, PairTable(inl, p.n), PairTable(inr, p.n)


@lru_cache(maxsize=None)
def _prod_projections(x: FinPoset, y: FinPoset, caps: Caps):
    """The product with its two projections as pair tables."""
    p, idx = _prod_c(x, y, caps)
    left, right = np.empty(p.n, dtype=np.int64), np.empty(p.n, dtype=np.int64)
    left[idx], right[idx] = np.indices(idx.shape)
    return p, PairTable(left, x.n), PairTable(right, y.n)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each int64 row as one fixed-width byte key: keys are equal exactly
    when rows are, whatever the values (no radix code that could wrap)."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()


@lru_cache(maxsize=None)
def _hom_c(x: FinPoset, y: FinPoset, caps: Caps):
    """The hom poset, its element tables as one array (row i is element
    i's table), and the tables' row keys in sorted order with the element
    of each, for hom_map's lookup."""
    h = hom_poset(x, y, caps)
    tables = _frozen(np.array(h.elems, dtype=np.int64).reshape(h.n, x.n))
    keys = _row_keys(tables)
    order = _frozen(np.argsort(keys))
    return h, tables, (_frozen(keys[order]), order)


# ---------------------------------------------------------------------------
# object action
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def eval_obj(
    f: FunctorExpr,
    xneg: FinPoset | None,
    xpos: FinPoset | None,
    caps: Caps = DEFAULT_CAPS,
) -> FinPoset:
    """Evaluate the object action F(xneg, xpos).

    A slot may be None when no Var of that polarity occurs; consuming a
    None slot raises TypeMismatch.
    """
    if isinstance(f, One):
        return _ONE
    if isinstance(f, Var):
        if xpos is None:
            raise TypeMismatch("Var needs a poset in its slot", functor=to_src(f))
        return xpos
    if isinstance(f, Const):
        return f.poset
    if isinstance(f, Lift):
        return _lift_c(eval_obj(f.body, xneg, xpos, caps), caps)[0]
    if isinstance(f, Prod):
        return _prod_c(
            eval_obj(f.left, xneg, xpos, caps),
            eval_obj(f.right, xneg, xpos, caps),
            caps,
        )[0]
    if isinstance(f, SumSep):
        return _sum_c(
            eval_obj(f.left, xneg, xpos, caps),
            eval_obj(f.right, xneg, xpos, caps),
            caps,
        )[0]
    if isinstance(f, Fun):
        return _hom_c(
            eval_obj(f.left, xpos, xneg, caps),
            eval_obj(f.right, xneg, xpos, caps),
            caps,
        )[0]
    raise TypeMismatch("unknown functor node", node=type(f).__name__)


# ---------------------------------------------------------------------------
# morphism action
# ---------------------------------------------------------------------------


class MapRows(NamedTuple):
    """A batch of monotone maps dom -> cod: row r of the int64 array arr is
    the table of map r.  The map actions pair the rows of their arguments,
    and a one-row batch pairs with every row of the other."""

    dom: FinPoset
    cod: FinPoset
    arr: np.ndarray


def _rows(m: MonotoneMap | None) -> MapRows | None:
    return None if m is None else MapRows(m.dom, m.cod, m.arr[None])


def lift_map(inner: MapRows, caps: Caps = DEFAULT_CAPS) -> MapRows:
    """Lift each map: fresh bottoms correspond, up-elements follow inner."""
    dom, dups, _ = _lift_c(inner.dom, caps)
    cod, cups, _ = _lift_c(inner.cod, caps)
    out = np.empty((len(inner.arr), dom.n), dtype=np.int64)
    out[:, dom.bottom] = cod.bottom
    out[:, dups] = cups.take(inner.arr)
    return MapRows(dom, cod, out)


def prod_map(fl: MapRows, fr: MapRows, caps: Caps = DEFAULT_CAPS) -> MapRows:
    """Componentwise action on a product, row by row."""
    dom, didx = _prod_c(fl.dom, fr.dom, caps)
    cod, cidx = _prod_c(fl.cod, fr.cod, caps)
    out = np.empty((max(len(fl.arr), len(fr.arr)), dom.n), dtype=np.int64)
    out[:, didx] = cidx[fl.arr[:, :, None], fr.arr[:, None, :]]
    return MapRows(dom, cod, out)


def sum_map(fl: MapRows, fr: MapRows, caps: Caps = DEFAULT_CAPS) -> MapRows:
    """Injection-respecting action on a separated sum, row by row."""
    dom, dinl, dinr, _, _ = _sum_c(fl.dom, fr.dom, caps)
    cod, cinl, cinr, _, _ = _sum_c(fl.cod, fr.cod, caps)
    out = np.empty((max(len(fl.arr), len(fr.arr)), dom.n), dtype=np.int64)
    out[:, dom.bottom] = cod.bottom
    out[:, dinl] = cinl.take(fl.arr)
    out[:, dinr] = cinr.take(fr.arr)
    return MapRows(dom, cod, out)


def hom_map(am: MapRows, bm: MapRows, caps: Caps = DEFAULT_CAPS) -> MapRows:
    """Row by row, the action h |-> bm . h . am : hom(am.cod, bm.dom) ->
    hom(am.dom, bm.cod)."""
    dom, tables, _ = _hom_c(am.cod, bm.dom, caps)
    cod, _, (keys, order) = _hom_c(am.dom, bm.cod, caps)
    inner = tables[:, am.arr].swapaxes(0, 1)  # [r, t]: t . am_r
    comp = bm.arr[np.arange(len(bm.arr))[:, None, None], inner]  # [r, t]: bm_r . t . am_r
    flat = comp.reshape(-1, am.dom.n)
    want = _row_keys(flat)
    at = np.searchsorted(keys, want).clip(max=len(keys) - 1)
    missing = keys[at] != want
    if missing.any():
        raise KeyError(flat[missing.argmax()].tolist())
    return MapRows(dom, cod, order[at].reshape(comp.shape[:2]))


def eval_maps(
    f: FunctorExpr,
    fneg: MapRows | None,
    fpos: MapRows | None,
    caps: Caps = DEFAULT_CAPS,
) -> MapRows:
    """Morphism action of f on batches of maps: row r of the result is the
    action on row r of fneg and of fpos (a one-row batch pairs with every
    row).  An expression without Var gives one row."""
    if isinstance(f, One):
        return MapRows(_ONE, _ONE, np.zeros((1, 1), dtype=np.int64))
    if isinstance(f, Var):
        if fpos is None:
            raise TypeMismatch("Var needs a map in its slot", functor=to_src(f))
        return fpos
    if isinstance(f, Const):
        return MapRows(f.poset, f.poset, np.arange(f.poset.n)[None])
    if isinstance(f, Lift):
        return lift_map(eval_maps(f.body, fneg, fpos, caps), caps)
    if isinstance(f, Prod):
        return prod_map(
            eval_maps(f.left, fneg, fpos, caps),
            eval_maps(f.right, fneg, fpos, caps),
            caps,
        )
    if isinstance(f, SumSep):
        return sum_map(
            eval_maps(f.left, fneg, fpos, caps),
            eval_maps(f.right, fneg, fpos, caps),
            caps,
        )
    if isinstance(f, Fun):
        am = eval_maps(f.left, fpos, fneg, caps)
        bm = eval_maps(f.right, fneg, fpos, caps)
        return hom_map(am, bm, caps)
    raise TypeMismatch("unknown functor node", node=type(f).__name__)


def eval_map(
    f: FunctorExpr,
    fneg: MonotoneMap | None,
    fpos: MonotoneMap | None,
    caps: Caps = DEFAULT_CAPS,
) -> MonotoneMap:
    """Morphism action of f: eval_maps on one row.

    fneg runs in the contravariant direction (Xneg' -> Xneg), fpos in the
    covariant one (Xpos -> Xpos'); the result maps eval_obj(f, Xneg, Xpos)
    to eval_obj(f, Xneg', Xpos').  A None argument is permitted whenever f
    never consumes that slot.
    """
    out = eval_maps(f, _rows(fneg), _rows(fpos), caps)
    return MonotoneMap(out.dom, out.cod, out.arr[0])


def eval_ep(f: FunctorExpr, ep: EpPair, caps: Caps = DEFAULT_CAPS) -> EpPair:
    """Action on an embedding/projection pair.

    F(p, e) is the embedding and F(e, p) the projection; both laws are
    re-verified, and a failure is an internal bug, not a user error.
    """
    e2 = eval_map(f, ep.p, ep.e, caps)
    p2 = eval_map(f, ep.e, ep.p, caps)
    try:
        return verify_ep_pair(e2, p2)
    except NotEp as exc:
        raise InternalInvariantViolation(
            "functor action broke the ep laws", functor=to_src(f), cause=str(exc)
        ) from exc


# ---------------------------------------------------------------------------
# relational action
# ---------------------------------------------------------------------------


# eval_rel calls, and the ones a table answered, since import.
rel_cache_counts = {"calls": 0, "hits": 0}


def eval_rel(
    f: FunctorExpr,
    rneg: BinRel | None,
    spos: BinRel | None,
    caps: Caps = DEFAULT_CAPS,
    table: dict | None = None,
) -> BinRel:
    """Relational action F(rneg, spos); inputs and output are admissible.

    table, if given, holds the outputs of earlier calls with this f and
    caps (DomainChain.rel_table is its chain's), keyed by the inputs f
    reads: a slot whose polarity has no Var is left out of the key.  A
    call whose read inputs are in the table returns the stored output,
    which was checked when it was stored; a call that raises stores
    nothing.
    """
    for r in (rneg, spos):
        if r is not None and not is_admissible(r):
            raise InadmissibleRelation(
                "relational action needs admissible inputs", functor=to_src(f)
            )
    rel_cache_counts["calls"] += 1
    neg, pos = f.reads
    key = (rneg if neg else None, spos if pos else None)
    if table is not None and (out := table.get(key)) is not None:
        rel_cache_counts["hits"] += 1
        return out
    out = _eval_rel(f, rneg, spos, caps)
    if not is_admissible(out):
        raise InternalInvariantViolation(
            "relational action produced an inadmissible relation", functor=to_src(f)
        )
    if table is not None:
        table[key] = out
    return out


def _eval_rel(f, rneg, spos, caps) -> BinRel:
    if isinstance(f, One):
        return _ONE_REL
    if isinstance(f, Var):
        if spos is None:
            raise TypeMismatch("Var needs a relation in its slot", functor=to_src(f))
        return spos
    if isinstance(f, Const):
        return f.rel
    if isinstance(f, Lift):
        r = _eval_rel(f.body, rneg, spos, caps)
        p, _, up = _lift_c(r.carrier, caps)
        return BinRel(p, up.push(r.mask) | 1 << bottom_index(p))
    if isinstance(f, Prod):
        rl = _eval_rel(f.left, rneg, spos, caps)
        rr = _eval_rel(f.right, rneg, spos, caps)
        if len(rl) * len(rr) > caps.max_pairs:
            raise SizeCapExceeded(
                "product relation would be too large",
                size=len(rl) * len(rr),
                cap=caps.max_pairs,
            )
        # pairs related componentwise: the meet of the pulls along the
        # two projections
        p, left, right = _prod_projections(rl.carrier, rr.carrier, caps)
        return BinRel(p, left.pull(rl.mask) & right.pull(rr.mask))
    if isinstance(f, SumSep):
        rl = _eval_rel(f.left, rneg, spos, caps)
        rr = _eval_rel(f.right, rneg, spos, caps)
        p, _, _, inl, inr = _sum_c(rl.carrier, rr.carrier, caps)
        return BinRel(p, inl.push(rl.mask) | inr.push(rr.mask) | 1 << bottom_index(p))
    if isinstance(f, Fun):
        ra = _eval_rel(f.left, spos, rneg, caps)
        rb = _eval_rel(f.right, rneg, spos, caps)
        h, tables, _ = _hom_c(ra.carrier, rb.carrier, caps)
        ax, ay = np.nonzero(ra.matrix)
        ok = rb.matrix[tables[:, None, ax], tables[None, :, ay]].all(axis=2)
        return rel_from_matrix(h, ok)
    raise TypeMismatch("unknown functor node", node=type(f).__name__)


# ---------------------------------------------------------------------------
# law checking
# ---------------------------------------------------------------------------


def _law_rels(p: FinPoset) -> list[BinRel]:
    """A small admissible-relation pool on p for the relational law."""
    rels = [
        bottom_rel(p),
        diagonal(p),
        rel_from_matrix(p, p.leq),
        rel_from_matrix(p, p.leq.T),
        total_rel(p),
    ]
    return list(dict.fromkeys(rels))


@lru_cache(maxsize=None)
def _morphisms(x: FinPoset, y: FinPoset) -> np.ndarray:
    """[m, r, s]: the m-th monotone map x -> y is a morphism from the r-th law
    relation on x to the s-th one on y (the r-th is inside the s-th's pull)."""
    t = monotone_tables(x, y)
    img = np.array([s.matrix for s in _law_rels(y)])[:, t[:, :, None], t[:, None, :]]
    big = np.array([r.matrix for r in _law_rels(x)])
    return _frozen(~(big[None, :, None] & ~img.swapaxes(0, 1)[:, None]).any(axis=(3, 4)))


def check_functor_laws(
    f: FunctorExpr,
    budget: int = 20_000,
    action=None,
    caps: Caps = DEFAULT_CAPS,
    pool: list[FinPoset] | None = None,
) -> dict:
    """Verify functor laws on enumerated small inputs.

    Checks, each against its own instance budget: preservation of
    identities; preservation of composition; monotonicity of the morphism
    action; and relational functoriality (u : R' -> R and v : S -> S'
    imply F(u, v) : F(R, S) -> F(R', S')).  Raises LawViolation with the
    law name and a witness; returns a per-law instance report.

    The action argument substitutes an alternative morphism action with
    eval_map's signature (used to exercise deliberately broken actions).

    A law runs one block of posets (a tuple of its outer product) at a
    time: its instances, in nested-loop order and cut at the budget, are
    index rows into monotone-map tables, and one array comparison over the
    actions' results flags failing rows, which MonotoneMap and BinRel
    operations recheck in order for the witness.  The default action and
    eval_rel are read from tables built once per call, over every pair of
    maps of one argument type or of law relations on two posets; a custom
    action runs once per distinct pair.  Mixed types (or errors) flag the
    whole block, so broken actions fail as they would instance by instance.
    """
    act_fn = action if action is not None else eval_map
    posets = pool if pool is not None else small_pointed_posets()
    act = lru_cache(maxsize=None)(lambda neg, pos: act_fn(f, neg, pos, caps))
    rel_act = lru_cache(maxsize=None)(lambda r, s: eval_rel(f, r, s, caps))
    law_rels = lru_cache(maxsize=None)(_law_rels)

    @lru_cache(maxsize=None)
    def maps_between(x: FinPoset, y: FinPoset):
        """The monotone maps x -> y and their tables as one array."""
        return [MonotoneMap(x, y, t) for t in monotone_tables(x, y)], monotone_tables(x, y)

    def composite(x, y, z, g: np.ndarray, h: np.ndarray) -> np.ndarray:
        """Each (g-th map y -> z) @ (h-th map x -> y) as an index into x -> z."""
        return table_positions(x, z, monotone_tables(y, z)[g[:, None], monotone_tables(x, y)[h]])

    @lru_cache(maxsize=None)
    def table(neg: tuple, pos: tuple):
        """(tables, dom, cod): row i * (maps of type pos) + j is eval_maps on the
        i-th map of type neg and the j-th of type pos; None if it raises."""
        tn, tp = maps_between(*neg)[1], maps_between(*pos)[1]
        try:
            out = eval_maps(f, MapRows(*neg, tn.repeat(len(tp), 0)),
                            MapRows(*pos, np.tile(tp, (len(tn), 1))), caps)
        except Exception:
            return None
        return np.broadcast_to(out.arr, (len(tn) * len(tp), out.dom.n)), out.dom, out.cod

    @lru_cache(maxsize=None)
    def rel_table(x: FinPoset, y: FinPoset):
        """(matrices, carrier): row r * (law relations on y) + s is eval_rel on
        the r-th on x and the s-th on y; None on an error or mixed carriers."""
        try:
            outs = [rel_act(r, s) for r in law_rels(x) for s in law_rels(y)]
        except Exception:
            return None
        carriers = {q.carrier for q in outs}
        return (np.array([q.matrix for q in outs]), *carriers) if len(carriers) == 1 else None

    def acted(neg: tuple, pos: tuple, ni: np.ndarray, pi: np.ndarray):
        """The action on the rows (ni-th map of type neg, pi-th of type pos), a
        type being (dom, cod): each row's index into the results, and their
        (tables, dom, cod), or None unless they are maps of one type."""
        (negs, _), (poss, _) = maps_between(*neg), maps_between(*pos)
        if action is None:
            return ni * len(poss) + pi, table(neg, pos)
        pairs, idx = np.unique(ni * len(poss) + pi, return_inverse=True)
        outs = []
        for c in pairs.tolist():  # the custom action once per distinct pair
            try:
                outs.append(act(negs[c // len(poss)], poss[c % len(poss)]))
            except Exception as exc:  # raised again by the recheck
                outs.append(exc)
        types = {(m.dom, m.cod) if isinstance(m, MonotoneMap) else None for m in outs}
        one_type = len(types) == 1 and None not in types
        return idx, (np.array([m.arr for m in outs]), *types.pop()) if one_type else None

    def name(p: FinPoset) -> str:
        return p.label or f"poset{p.n}"

    report: dict = {
        "functor": to_src(f), "pool": [name(p) for p in posets], "budget": budget, "laws": {}
    }

    def run(law: str, arity: int, block) -> None:
        """block(*posets, room) checks the first `room` instances of its
        block and returns how many the block has."""
        count, complete = 0, True
        for ps in itertools.product(posets, repeat=arity):
            room = max(budget - count, 0)
            total = block(*ps, room)
            count += min(total, room)
            if total > room:
                complete = False
                break
        report["laws"][law] = {"instances": count, "complete": complete}

    def recheck(law: str, flagged: np.ndarray, witness) -> None:
        for k in np.flatnonzero(flagged).tolist():
            w = witness(k)
            if w is not None:
                raise LawViolation(f"functor law failed: {law}", law=law, **w)

    def identity(x, y, room):
        def witness(k):
            m = act(identity_map(x), identity_map(y))
            return None if m.is_identity() else {
                "neg": name(x), "pos": name(y), "image": list(m.table)
            }

        recheck("identity", np.ones(min(room, 1), dtype=bool), witness)
        return 1

    def composition(a, b, c, room):
        n1, n2, p1, p2 = (maps_between(*q)[0] for q in ((b, a), (c, b), (a, b), (b, c)))
        shape = (len(n1), len(n2), len(p1), len(p2))
        i1, i2, j1, j2 = np.unravel_index(np.arange(min(room, np.prod(shape))), shape)
        li, tl = acted((c, a), (a, c), composite(c, b, a, i1, i2), composite(a, b, c, j2, j1))
        ai, ta = acted((b, a), (a, b), i1, j1)
        bi, tb = acted((c, b), (b, c), i2, j2)
        flagged = np.ones(i1.size, dtype=bool)
        if tl and ta and tb and ta[2] == tb[1] and tl[1:] == (ta[1], tb[2]):
            flagged = (tl[0][li] != tb[0][bi[:, None], ta[0][ai]]).any(axis=1)

        def witness(k):
            fn1, fn2, fp1, fp2 = n1[i1[k]], n2[i2[k]], p1[j1[k]], p2[j2[k]]
            return None if act(fn1 @ fn2, fp2 @ fp1) == act(fn2, fp2) @ act(fn1, fp1) else {
                "posets": [name(a), name(b), name(c)],
                "fneg": [list(fn1.table), list(fn2.table)],
                "fpos": [list(fp1.table), list(fp2.table)],
            }

        recheck("composition", flagged, witness)
        return int(np.prod(shape))

    def monotonicity(a, b, room):
        (negs, tn), (poss, tp) = maps_between(b, a), maps_between(a, b)
        le_n, le_p = (p.leq[t[:, None], t[None, :]].all(axis=2) for p, t in ((a, tn), (b, tp)))
        inst = le_n[:, :, None, None] & le_p[None, None]
        n1, n2, p1, p2 = np.argwhere(inst)[:room].T
        idx, t = acted((b, a), (a, b), np.concatenate([n1, n2]), np.concatenate([p1, p2]))
        flagged = np.ones(n1.size, dtype=bool)
        if t:
            flagged = ~t[2].leq[t[0][idx[: n1.size]], t[0][idx[n1.size :]]].all(axis=1)

        def witness(k):
            lo, hi = act(negs[n1[k]], poss[p1[k]]), act(negs[n2[k]], poss[p2[k]])
            return None if lo.pointwise_leq(hi) else {
                "posets": [name(a), name(b)],
                "fneg": [list(negs[n1[k]].table), list(negs[n2[k]].table)],
                "fpos": [list(poss[p1[k]].table), list(poss[p2[k]].table)],
            }

        recheck("monotonicity", flagged, witness)
        return int(np.count_nonzero(inst))

    def relational(xp, x, y, yp, room):
        inst = _morphisms(xp, x)[:, None, :, :, None, None] & _morphisms(y, yp)[None, :, None, None]
        u, v, rp, r, s, sp = np.argwhere(inst)[:room].T
        us, vs = maps_between(xp, x)[0], maps_between(y, yp)[0]
        rps, rs, ss, sps = law_rels(xp), law_rels(x), law_rels(y), law_rels(yp)
        mi, t = acted((xp, x), (y, yp), u, v)
        big, small = rel_table(x, y), rel_table(xp, yp)
        flagged = np.ones(u.size, dtype=bool)
        if t and big and small and (big[1], small[1]) == t[1:]:
            tm = t[0][mi]
            image = small[0][(rp * len(sps) + sp)[:, None, None], tm[:, :, None], tm[:, None, :]]
            flagged = (big[0][r * len(ss) + s] & ~image).any(axis=(1, 2))

        def witness(k):
            m = act(us[u[k]], vs[v[k]])
            big, small = rel_act(rs[r[k]], ss[s[k]]), rel_act(rps[rp[k]], sps[sp[k]])
            return None if is_rel_morphism(m, big, small) else {
                "posets": [name(xp), name(x), name(y), name(yp)],
                "u": list(us[u[k]].table),
                "v": list(vs[v[k]].table),
                "R'": rps[rp[k]].sorted_pairs(),
                "R": rs[r[k]].sorted_pairs(),
                "S": ss[s[k]].sorted_pairs(),
                "S'": sps[sp[k]].sorted_pairs(),
            }

        recheck("relational", flagged, witness)
        return int(np.count_nonzero(inst))

    run("identity", 2, identity)
    run("composition", 3, composition)
    run("monotonicity", 2, monotonicity)
    run("relational", 4, relational)
    report["ok"] = True
    return report
