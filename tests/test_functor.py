"""The functor DSL: polarities, object/map/relation/ep actions, laws."""

from __future__ import annotations

import functools
import itertools
from math import comb
from types import SimpleNamespace

import numpy as np
import pytest

from relfix import engines, functor
from relfix.chain import build_chain
from relfix.config import DEFAULT_CAPS, Caps
from relfix.engines import compare_methods
from relfix.errors import (
    InadmissibleRelation,
    LawViolation,
    SizeCapExceeded,
    TypeMismatch,
)
from relfix.functor import (
    Const,
    Fun,
    Lift,
    MapRows,
    One,
    Prod,
    SumSep,
    Var,
    check_functor_laws,
    eval_ep,
    eval_map,
    eval_maps,
    eval_obj,
    eval_rel,
    hom_map,
    is_covariant,
    lift_map,
    prod_map,
    sum_map,
    to_src,
    validate_functor,
    var_polarities,
)
from relfix.poset import (
    MonotoneMap,
    chain_poset,
    enumerate_monotone_maps,
    hom_poset,
    identity_map,
    lift,
    monotone_tables,
    one,
    product,
    small_pointed_posets,
    sum_sep,
    validate_poset,
    vee,
)
from relfix.relations import (
    bottom_rel,
    diagonal,
    is_rel_morphism,
    rel_from_matrix,
    rel_from_pairs,
    total_rel,
)
from relfix.suites import _broken_action

C2 = chain_poset(2)

LAZY = SumSep(One(), Var())
STREAM = Lift(Prod(Const(C2, diagonal(C2)), Var()))
REFLEX = Lift(Fun(Var(), Var()))


def test_polarities():
    assert var_polarities(LAZY) == frozenset({1})
    assert var_polarities(REFLEX) == frozenset({1, -1})
    assert var_polarities(Fun(Var(), One())) == frozenset({-1})
    assert is_covariant(LAZY) and is_covariant(STREAM)
    assert not is_covariant(REFLEX)


def test_to_src_round_trips_through_the_grammar():
    assert to_src(LAZY) == "sum(one, D)"
    assert to_src(REFLEX) == "lift(fun(D, D))"
    assert "const(" in to_src(STREAM)


def test_validate_functor_rejects_inadmissible_const():
    bad = Const(C2, rel_from_pairs(C2, [(1, 1)]))
    with pytest.raises(InadmissibleRelation):
        validate_functor(Lift(bad))


def test_validate_functor_rejects_carrier_mismatch():
    bad = Const(C2, diagonal(chain_poset(3)))
    with pytest.raises(TypeMismatch):
        validate_functor(bad)


def test_eval_obj_sizes_follow_the_constructions():
    # |sum(one, X)| = |X| + 2, |lift(2 x X)| = 2|X| + 1,
    # |lift(X -> X)| = (number of monotone endomaps) + 1.
    for k in (1, 2, 5):
        x = chain_poset(k)
        assert eval_obj(LAZY, x, x).n == k + 2
        assert eval_obj(STREAM, x, x).n == 2 * k + 1
        assert eval_obj(REFLEX, x, x).n == comb(2 * k - 1, k) + 1


def test_eval_obj_mixed_variance_uses_both_arguments():
    c3 = chain_poset(3)
    h = eval_obj(Fun(Var(), Var()), C2, c3)  # maps from the neg slot
    assert h.n == comb(2 + 3 - 1, 2)


def test_eval_map_identity_and_known_collapse():
    from relfix.poset import const_map

    x = chain_poset(3)
    assert eval_map(LAZY, identity_map(x), identity_map(x)).is_identity()
    # sum(one, -) applied to the constant-bottom endomap: the right
    # summand collapses onto its injected bottom, the rest stays fixed.
    collapsed = eval_map(LAZY, None, const_map(x, x, x.bottom))
    assert collapsed.table == (0, 1, 2, 2, 2)


# The four map actions as element loops over descriptors: the reference the
# array actions (scatters through cached index arrays) must match.  The
# constructions are cached here only to keep the exhaustive test fast.
_lift, _product, _sum_sep, _hom_poset = map(functools.lru_cache(maxsize=None),
                                           (lift, product, sum_sep, hom_poset))


def _loop_lift_map(inner: MonotoneMap) -> MonotoneMap:
    dom, cod = _lift(inner.dom), _lift(inner.cod)
    table = [cod.elem_index["bot"]] * dom.n
    for i, d in enumerate(inner.dom.elems):
        image = inner.cod.elems[inner.table[i]]
        table[dom.elem_index[("up", d)]] = cod.elem_index[("up", image)]
    return MonotoneMap(dom, cod, table)


def _loop_prod_map(fl: MonotoneMap, fr: MonotoneMap) -> MonotoneMap:
    dom, cod = _product(fl.dom, fr.dom), _product(fl.cod, fr.cod)
    table = [0] * dom.n
    for i, dl in enumerate(fl.dom.elems):
        for j, dr in enumerate(fr.dom.elems):
            image = (fl.cod.elems[fl.table[i]], fr.cod.elems[fr.table[j]])
            table[dom.elem_index[(dl, dr)]] = cod.elem_index[image]
    return MonotoneMap(dom, cod, table)


def _loop_sum_map(fl: MonotoneMap, fr: MonotoneMap) -> MonotoneMap:
    dom, cod = _sum_sep(fl.dom, fr.dom), _sum_sep(fl.cod, fr.cod)
    table = [cod.elem_index["bot"]] * dom.n
    for tag, f in (("inl", fl), ("inr", fr)):
        for i, d in enumerate(f.dom.elems):
            image = f.cod.elems[f.table[i]]
            table[dom.elem_index[(tag, d)]] = cod.elem_index[(tag, image)]
    return MonotoneMap(dom, cod, table)


def _loop_hom_map(am: MonotoneMap, bm: MonotoneMap) -> MonotoneMap:
    dom, cod = _hom_poset(am.cod, bm.dom), _hom_poset(am.dom, bm.cod)
    table = []
    for t in dom.elems:
        comp = tuple(bm.table[t[am.table[x]]] for x in range(am.dom.n))
        table.append(cod.elem_index[comp])
    return MonotoneMap(dom, cod, table)


def _batch_of(maps):
    """The maps (all of one type) as the rows of one MapRows batch."""
    return MapRows(maps[0].dom, maps[0].cod, np.array([m.arr for m in maps]))


def _row(rows, r):
    return MonotoneMap(rows.dom, rows.cod, rows.arr[r])


def test_map_actions_match_their_element_loops():
    # one batch per type of the maps between posets of small_pointed_posets(),
    # and one per pair of types for the binary actions (every pair of maps,
    # row by row); each output row must be the element loop's map
    posets = small_pointed_posets()
    by_type = {
        (x, y): [MonotoneMap(x, y, t) for t in enumerate_monotone_maps(x, y)]
        for x, y in itertools.product(posets, repeat=2)
    }
    for maps in by_type.values():
        out = lift_map(_batch_of(maps))
        assert len(out.arr) == len(maps)
        for r, f in enumerate(maps):
            got, want = _row(out, r), _loop_lift_map(f)
            assert got == want and got.table == want.table
    count = 0
    for left, right in itertools.product(by_type.values(), repeat=2):
        pairs = list(itertools.product(left, right))
        fl, fr = _batch_of([p[0] for p in pairs]), _batch_of([p[1] for p in pairs])
        for action, loop in ((prod_map, _loop_prod_map), (sum_map, _loop_sum_map),
                             (hom_map, _loop_hom_map)):
            out = action(fl, fr)
            assert len(out.arr) == len(pairs)
            for r, (a, b) in enumerate(pairs):
                got, want = _row(out, r), loop(a, b)
                assert got == want and got.table == want.table, (action.__name__, a, b)
        count += len(pairs)
    assert count == sum(map(len, by_type.values())) ** 2 > 1000


def test_a_one_row_batch_pairs_with_every_row():
    x, y = chain_poset(3), vee()
    maps = [MonotoneMap(x, y, t) for t in enumerate_monotone_maps(x, y)]
    ends = [MonotoneMap(y, y, t) for t in enumerate_monotone_maps(y, y)]
    batch = _batch_of(maps)
    for e in ends:
        one_row = _batch_of([e])
        for action, loop in ((prod_map, _loop_prod_map), (sum_map, _loop_sum_map),
                             (hom_map, _loop_hom_map)):
            for out, want in ((action(one_row, batch), [loop(e, m) for m in maps]),
                              (action(batch, one_row), [loop(m, e) for m in maps])):
                assert [_row(out, r) for r in range(len(maps))] == want


def _dict_hom_map(am: MapRows, bm: MapRows) -> list:
    """hom_map's element ids by a dict from each table's bytes to its
    element, row by row (equal-length batches)."""
    tables = np.array(hom_poset(am.cod, bm.dom).elems, dtype=np.int64).reshape(-1, am.cod.n)
    targets = np.array(hom_poset(am.dom, bm.cod).elems, dtype=np.int64).reshape(-1, am.dom.n)
    index = {t.tobytes(): i for i, t in enumerate(targets)}
    return [[index[b[t[a]].tobytes()] for t in tables] for a, b in zip(am.arr, bm.arr)]


def _flat(atoms: int):
    return validate_poset(atoms + 1, [(0, i) for i in range(1, atoms + 1)], 0)


def test_hom_map_looks_tables_up_like_the_dict_it_replaced():
    # every pair of endomaps on every ordered corpus pair, and a hom with
    # 2,401 elements whose tables a radix code could not hold
    # (301 ** 8 > 2 ** 63): hom(chain(8), flat 300 atoms)
    for x, y in itertools.product(small_pointed_posets(), repeat=2):
        ex, ey = monotone_tables(x, x), monotone_tables(y, y)
        am = MapRows(x, x, np.repeat(ex, len(ey), axis=0))
        bm = MapRows(y, y, np.tile(ey, (len(ex), 1)))
        assert hom_map(am, bm).arr.tolist() == _dict_hom_map(am, bm)
    c8, f300 = chain_poset(8), _flat(300)
    up, down = np.minimum(np.arange(8) + 1, 7), np.maximum(np.arange(8) - 1, 0)
    am = MapRows(c8, c8, np.array([np.arange(8), up, down, np.zeros(8, dtype=np.int64)]))
    keep = np.arange(301)
    collapse = np.where(keep > 150, 0, keep)
    reverse = np.concatenate([[0], keep[:0:-1]])
    bm = MapRows(f300, f300, np.array([keep, reverse, collapse, reverse]))
    out = hom_map(am, bm)
    assert out.dom.n == out.cod.n == 2401 and out.arr[0].tolist() == list(range(2401))
    assert out.arr.tolist() == _dict_hom_map(am, bm)
    # a composed table outside the hom (bm not monotone) is still a KeyError
    swap = np.concatenate([[1], np.zeros(300, dtype=np.int64)])
    with pytest.raises(KeyError):
        hom_map(MapRows(c8, c8, am.arr[:1]), MapRows(f300, f300, swap[None]))


def test_eval_maps_is_eval_map_row_by_row():
    # the one-row case of eval_maps is eval_map; a batch gives the same rows,
    # mixed variance included, and an expression without Var gives one row
    x = chain_poset(3)
    ends = [MonotoneMap(x, x, t) for t in enumerate_monotone_maps(x, x)]
    negs, poss = _batch_of(ends), _batch_of(ends[::-1])
    for f in (LAZY, STREAM, REFLEX, Fun(Var(), One()), Fun(Fun(Var(), One()), Var())):
        out = eval_maps(f, negs, poss)
        assert len(out.arr) == len(ends)
        for r, (n, p) in enumerate(zip(ends, ends[::-1])):
            assert _row(out, r) == eval_map(f, n, p)
    closed = Lift(Prod(Const(C2, diagonal(C2)), One()))
    out = eval_maps(closed, None, None)
    assert len(out.arr) == 1 and _row(out, 0).is_identity()


def test_eval_rel_on_the_sum_functor():
    x = chain_poset(2)
    fx = eval_obj(LAZY, x, x)
    # the summed relation of total inputs keeps the summands apart
    out_total = eval_rel(LAZY, total_rel(x), total_rel(x))
    assert out_total.carrier == fx
    assert (fx.bottom, fx.bottom) in out_total
    assert len(out_total) < fx.n * fx.n
    # 1 bottom pair + 1x1 left block + 2x2 right block
    assert len(out_total) == 1 + 1 + 4


def test_eval_rel_of_diagonals_is_the_diagonal():
    x = chain_poset(2)
    for f in (LAZY, STREAM, REFLEX):
        fx = eval_obj(f, x, x)
        assert eval_rel(f, diagonal(x), diagonal(x)) == diagonal(fx)


def test_eval_rel_rejects_inadmissible_inputs():
    with pytest.raises(InadmissibleRelation):
        eval_rel(LAZY, rel_from_pairs(C2, [(1, 1)]), rel_from_pairs(C2, [(1, 1)]))


@pytest.fixture
def counted_runs(monkeypatch):
    """A count of the _eval_rel runs that answer eval_rel calls (recursive
    runs inside one call not counted)."""
    runs = [0]
    depth = [0]
    real = functor._eval_rel

    def counted(*args):
        runs[0] += depth[0] == 0
        depth[0] += 1
        try:
            return real(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(functor, "_eval_rel", counted)
    return runs


def _read_key(reads, rneg, spos):
    """The inputs a functor reads, given its slots as (neg, pos) flags."""
    return (rneg if reads[0] else None, spos if reads[1] else None)


# Which slots each functor reads, written down here rather than computed
# from var_polarities: Var sits in the positive slot of LAZY and STREAM, in
# both of REFLEX, only in the negative one of Fun(Var, One), and in the
# positive one of Fun(Fun(Var, One), One) (two contravariant positions).
READS = {
    LAZY: (False, True),
    STREAM: (False, True),
    REFLEX: (True, True),
    Fun(Var(), One()): (True, False),
    Fun(Fun(Var(), One()), One()): (False, True),
    Fun(Var(), Var()): (True, True),
}


@pytest.mark.parametrize(
    "f, depth, calls",
    [(LAZY, 40, 6640), (STREAM, 8, None), (REFLEX, 3, None)],
    ids=["lazy_nat_d40", "streams_d8", "reflexive_d3"],
)
def test_eval_rel_runs_once_per_distinct_read_inputs(
    monkeypatch, counted_runs, f, depth, calls
):
    recorded = []

    def recording(f, rneg, spos, caps=DEFAULT_CAPS, table=None):
        recorded.append((rneg, spos))
        return eval_rel(f, rneg, spos, caps, table)

    monkeypatch.setattr(engines, "eval_rel", recording)
    hits = functor.rel_cache_counts["hits"]
    ch = build_chain(f, depth)
    compare_methods(ch)
    # the oracle: one run per distinct read input among the recorded calls
    distinct = {_read_key(READS[f], rneg, spos) for rneg, spos in recorded}
    assert counted_runs[0] == len(distinct) == len(ch.rel_table) < len(recorded)
    assert set(ch.rel_table) == distinct
    assert functor.rel_cache_counts["hits"] - hits == len(recorded) - len(distinct)
    if calls is not None:  # the engines' calls are those of the bench pin
        assert len(recorded) == calls
    if READS[f] == (False, True):  # a covariant F: d distinct inputs per level
        assert len(distinct) == depth**2


def test_the_table_answers_interleaved_calls_like_a_fresh_run(counted_runs):
    c3 = chain_poset(3)
    pools = [
        [bottom_rel(p), diagonal(p), rel_from_matrix(p, p.leq), rel_from_matrix(p, p.leq.T),
         total_rel(p)]
        for p in (C2, c3)
    ]
    # two admissible relations that are neither symmetric nor reflexive
    pools[1] += [rel_from_pairs(c3, [(0, 0), (0, 2), (2, 1)]),
                 rel_from_pairs(c3, [(0, 0), (1, 0), (1, 2), (2, 2)])]
    caps_pair = (DEFAULT_CAPS, Caps(max_elements=10_000))
    for f, caps in itertools.product(READS, caps_pair):
        table, runs, fresh = {}, counted_runs[0], 0
        for pool in pools:
            instances = list(itertools.product(pool, pool))
            # each instance twice in a row, then the list with neg and pos
            # swapped, then once more in the first order
            seq = [i for i in instances for _ in range(2)]
            seq += [(s, r) for r, s in instances] + instances
            for r, s in seq:
                assert eval_rel(f, r, s, caps, table) == functor._eval_rel(f, r, s, caps)
            fresh += len(seq)
        want = {_read_key(READS[f], r, s) for pool in pools for r in pool for s in pool}
        assert set(table) == want
        # one run per entry, besides the oracle's own runs
        assert counted_runs[0] - runs - fresh == len(want)


def test_a_hit_still_checks_its_inputs():
    # LAZY does not read its negative slot, so an inadmissible relation there
    # has the key of a stored entry
    table = {}
    out = eval_rel(LAZY, diagonal(C2), diagonal(C2), DEFAULT_CAPS, table)
    assert eval_rel(LAZY, total_rel(C2), diagonal(C2), DEFAULT_CAPS, table) is out
    with pytest.raises(InadmissibleRelation):
        eval_rel(LAZY, rel_from_pairs(C2, [(1, 1)]), diagonal(C2), DEFAULT_CAPS, table)


def test_a_call_over_its_cap_leaves_no_table_entry(counted_runs):
    f = Prod(Var(), Var())
    c3 = chain_poset(3)
    table = {}
    with pytest.raises(SizeCapExceeded):
        eval_rel(f, None, total_rel(c3), Caps(max_pairs=50), table)
    assert table == {}
    assert counted_runs[0] == 1


def test_eval_ep_produces_valid_pairs():
    from relfix.ep import bottom_ep

    step = bottom_ep(one(), eval_obj(LAZY, one(), one()))
    for f in (LAZY, STREAM, REFLEX):
        base = bottom_ep(one(), eval_obj(f, one(), one()))
        lifted = eval_ep(f, base)
        assert (lifted.p @ lifted.e).is_identity()
        assert (lifted.e @ lifted.p).pointwise_leq(identity_map(lifted.cod))


def test_functor_laws_hold_for_the_canonical_three():
    for f in (LAZY, STREAM, REFLEX):
        report = check_functor_laws(f, budget=2000)
        assert set(report["laws"]) == {
            "identity",
            "composition",
            "monotonicity",
            "relational",
        }
        for law in report["laws"].values():
            assert law["instances"] > 0


def _swapped(f, neg, pos, caps=None):
    # flip the two halves of the hom action on endo-typed instances:
    # identities still map to identities, but composition breaks
    endo = neg.dom == neg.cod and pos.dom == pos.cod and neg.dom == pos.dom
    if isinstance(f, Fun) and endo:
        swapped = Fun(Var(), Var())  # its action on (pos, neg) is hom_map(pos, neg)
        return eval_map(swapped, pos, neg) if caps is None else eval_map(swapped, pos, neg, caps)
    return eval_map(f, neg, pos) if caps is None else eval_map(f, neg, pos, caps)


def test_broken_composition_action_is_caught():
    with pytest.raises(LawViolation) as err:
        check_functor_laws(Fun(Var(), Var()), budget=5000, action=_swapped)
    assert err.value.details["law"] in ("composition", "relational")


# ---------------------------------------------------------------------------
# the law checker against a per-instance oracle
# ---------------------------------------------------------------------------


def _per_instance_laws(f, budget=20_000, action=None, caps=DEFAULT_CAPS, pool=None):
    """check_functor_laws one instance at a time: the nested loops of each
    law yield its instances in order, and each instance within the budget
    is decided with the MonotoneMap and BinRel operations, up to the first
    failing one.  An instance past the budget is counted as missing and
    never evaluated."""
    act_fn = action if action is not None else eval_map
    posets = pool if pool is not None else small_pointed_posets()
    act_memo, rel_memo, maps_memo = {}, {}, {}

    def act(neg, pos):
        if (neg, pos) not in act_memo:
            act_memo[neg, pos] = act_fn(f, neg, pos, caps)
        return act_memo[neg, pos]

    def rel_act(r, s):
        if (r, s) not in rel_memo:
            rel_memo[r, s] = eval_rel(f, r, s, caps)
        return rel_memo[r, s]

    def maps(x, y):
        if (x, y) not in maps_memo:
            maps_memo[x, y] = [MonotoneMap(x, y, t) for t in enumerate_monotone_maps(x, y)]
        return maps_memo[x, y]

    def name(p):
        return p.label or f"poset{p.n}"

    report = {
        "functor": to_src(f),
        "pool": [name(p) for p in posets],
        "budget": budget,
        "laws": {},
    }

    def run(law, instances, decide):
        count = 0
        complete = True
        for instance in instances:
            if count >= budget:
                complete = False
                break
            count += 1
            witness = decide(*instance)
            if witness is not None:
                raise LawViolation(f"functor law failed: {law}", law=law, **witness)
        report["laws"][law] = {"instances": count, "complete": complete}

    def identity(x, y):
        m = act(identity_map(x), identity_map(y))
        return None if m.is_identity() else {
            "neg": name(x), "pos": name(y), "image": list(m.table)
        }

    def composition_instances():
        for a, b, c in itertools.product(posets, repeat=3):
            for fn1 in maps(b, a):
                for fn2 in maps(c, b):
                    for fp1 in maps(a, b):
                        for fp2 in maps(b, c):
                            yield a, b, c, fn1, fn2, fp1, fp2

    def composition(a, b, c, fn1, fn2, fp1, fp2):
        lhs = act(fn1 @ fn2, fp2 @ fp1)
        rhs = act(fn2, fp2) @ act(fn1, fp1)
        return None if lhs == rhs else {
            "posets": [name(a), name(b), name(c)],
            "fneg": [list(fn1.table), list(fn2.table)],
            "fpos": [list(fp1.table), list(fp2.table)],
        }

    def monotonicity_instances():
        for a, b in itertools.product(posets, repeat=2):
            for n1, n2 in itertools.product(maps(b, a), repeat=2):
                if not n1.pointwise_leq(n2):
                    continue
                for p1, p2 in itertools.product(maps(a, b), repeat=2):
                    if p1.pointwise_leq(p2):
                        yield a, b, n1, n2, p1, p2

    def monotonicity(a, b, n1, n2, p1, p2):
        lo, hi = act(n1, p1), act(n2, p2)
        return None if lo.pointwise_leq(hi) else {
            "posets": [name(a), name(b)],
            "fneg": [list(n1.table), list(n2.table)],
            "fpos": [list(p1.table), list(p2.table)],
        }

    def law_rels(p):
        rels = [bottom_rel(p), diagonal(p), rel_from_matrix(p, p.leq),
                rel_from_matrix(p, p.leq.T), total_rel(p)]
        return list(dict.fromkeys(rels))

    def relational_instances():
        for xp, x, y, yp in itertools.product(posets, repeat=4):
            for u in maps(xp, x):
                for v in maps(y, yp):
                    for rp in law_rels(xp):
                        for r in law_rels(x):
                            if not is_rel_morphism(u, rp, r):
                                continue
                            for s in law_rels(y):
                                for sp in law_rels(yp):
                                    if is_rel_morphism(v, s, sp):
                                        yield xp, x, y, yp, u, v, rp, r, s, sp

    def relational(xp, x, y, yp, u, v, rp, r, s, sp):
        m = act(u, v)
        ok = is_rel_morphism(m, rel_act(r, s), rel_act(rp, sp))
        return None if ok else {
            "posets": [name(xp), name(x), name(y), name(yp)],
            "u": list(u.table),
            "v": list(v.table),
            "R'": rp.sorted_pairs(),
            "R": r.sorted_pairs(),
            "S": s.sorted_pairs(),
            "S'": sp.sorted_pairs(),
        }

    run("identity", itertools.product(posets, repeat=2), identity)
    run("composition", composition_instances(), composition)
    run("monotonicity", monotonicity_instances(), monotonicity)
    run("relational", relational_instances(), relational)
    report["ok"] = True
    return report


def _outcome(check, *args, **kwargs):
    """The report, or the raised error's type, message and details."""
    try:
        return check(*args, **kwargs)
    except Exception as exc:  # the oracle and the checker must raise alike
        return type(exc).__name__, str(exc), getattr(exc, "details", None)


@pytest.mark.parametrize("budget", [0, 1, 7, 100, 4000])
@pytest.mark.parametrize("f", [LAZY, STREAM, REFLEX], ids=["lazy_nat", "streams", "reflexive"])
def test_law_reports_match_the_per_instance_oracle(f, budget):
    report = check_functor_laws(f, budget=budget)
    assert report == _per_instance_laws(f, budget=budget)
    assert report["ok"] and len(report["laws"]) == 4


@pytest.mark.parametrize("f", [LAZY, STREAM, REFLEX], ids=["lazy_nat", "streams", "reflexive"])
def test_laws_on_a_small_pool_are_complete_with_the_oracle_counts(f):
    pool = [one(), chain_poset(2)]
    report = check_functor_laws(f, budget=10**9, pool=pool)
    assert report == _per_instance_laws(f, budget=10**9, pool=pool)
    assert all(law["complete"] for law in report["laws"].values())


def _mistyped(f, neg, pos, caps=DEFAULT_CAPS):
    """The right table under a wrong codomain whenever pos is an identity
    on two or more elements and neg is not an identity."""
    m = eval_map(f, neg, pos, caps)
    if pos.is_identity() and pos.dom.n > 1 and not neg.is_identity():
        return MonotoneMap(m.dom, lift(m.cod), m.table)
    return m


@pytest.mark.parametrize(
    "f, action",
    [
        (Fun(Var(), Var()), _broken_action),
        (Fun(Var(), Var()), _swapped),
        (LAZY, _mistyped),
        (REFLEX, _mistyped),
    ],
    ids=["broken", "swapped", "mistyped_lazy_nat", "mistyped_reflexive"],
)
def test_violations_match_the_per_instance_oracle(f, action):
    with pytest.raises(LawViolation) as err:
        check_functor_laws(f, budget=5000, action=action)
    with pytest.raises(LawViolation) as want:
        _per_instance_laws(f, budget=5000, action=action)
    assert str(err.value) == str(want.value)
    assert err.value.details == want.value.details


def _antitone(f, neg, pos, caps=DEFAULT_CAPS):
    """Swaps the two maps one -> chain(2) before acting, so the action turns
    their order around: it breaks relational functoriality within two
    instances, monotonicity within three and composition within twenty."""
    if pos.dom.n == 1 and pos.cod.n == 2:
        pos = MonotoneMap(pos.dom, pos.cod, (1 - pos.table[0],))
    return eval_map(f, neg, pos, caps)


def _refusing(f, neg, pos, caps=DEFAULT_CAPS):
    """_antitone, but raising on the constant map chain(2) -> chain(2) at
    the top, which the composition law first meets two rows after a
    failing one."""
    if pos.table == (1, 1):
        raise ValueError("refused")
    return _antitone(f, neg, pos, caps)


def _miscod(f, neg, pos, caps=DEFAULT_CAPS):
    """A wrong codomain whenever pos is not an endomap."""
    m = eval_map(f, neg, pos, caps)
    return MonotoneMap(m.dom, lift(m.cod), m.table) if pos.dom != pos.cod else m


@pytest.mark.parametrize(
    "action, budget, law",
    [
        (_antitone, 2, "relational"),
        (_antitone, 7, "monotonicity"),
        (_antitone, 20, "composition"),
        (_refusing, 20, "composition"),
        (_miscod, 7, None),
        (_miscod, 100, None),
    ],
)
@pytest.mark.parametrize("f", [LAZY, STREAM, REFLEX], ids=["lazy_nat", "streams", "reflexive"])
def test_each_law_fails_like_the_per_instance_oracle(f, action, budget, law):
    got = _outcome(check_functor_laws, f, budget=budget, action=action)
    want = _outcome(_per_instance_laws, f, budget=budget, action=action)
    assert got == want
    if law is not None:
        assert want[0] == "LawViolation" and want[2]["law"] == law


def test_law_morphisms_are_is_rel_morphism_on_the_corpus():
    # the checker's array form against the scalar check, on every monotone
    # map and every pair of law relations of every ordered corpus pair
    for x, y in itertools.product(small_pointed_posets(), repeat=2):
        rs, ss = functor._law_rels(x), functor._law_rels(y)
        want = [[[is_rel_morphism(MonotoneMap(x, y, t), r, s) for s in ss] for r in rs]
                for t in monotone_tables(x, y)]
        assert functor._morphisms(x, y).tolist() == want


def _top_level_eval_maps(monkeypatch):
    """Record every top-level eval_maps call of the law checker (not the
    calls eval_maps makes on subexpressions): (fneg, fpos, result)."""
    calls, depth = [], [0]
    inner = functor.eval_maps

    def counted(g, fneg, fpos, caps=DEFAULT_CAPS):
        depth[0] += 1
        try:
            out = inner(g, fneg, fpos, caps)
        finally:
            depth[0] -= 1
        if depth[0] == 0:
            calls.append((fneg, fpos, out))
        return out

    monkeypatch.setattr(functor, "eval_maps", counted)
    return calls


@pytest.mark.parametrize("f", [LAZY, STREAM, REFLEX], ids=["lazy_nat", "streams", "reflexive"])
def test_the_law_checker_acts_once_per_block_and_argument_type(f, monkeypatch):
    # the default action makes one top-level eval_maps call per argument
    # type, not per block: a type is a pair (neg, pos) of (dom, cod) poset
    # pairs, and its table serves every law that uses it.  The identity law
    # acts through eval_map in its recheck, once per block.  The blocks are
    # the tuples run() draws from itertools.product, law by law.
    laws = []

    def product(posets, repeat):
        laws.append([])
        for ps in itertools.product(posets, repeat=repeat):
            laws[-1].append(ps)
            yield ps

    monkeypatch.setattr(functor, "itertools", SimpleNamespace(product=product))
    calls = _top_level_eval_maps(monkeypatch)
    report = check_functor_laws(f, budget=4000)
    identity, composition, monotonicity, relational = laws
    types = (
        {((c, a), (a, c)) for a, b, c in composition}
        | {((b, a), (a, b)) for a, b, c in composition}
        | {((c, b), (b, c)) for a, b, c in composition}
        | {((b, a), (a, b)) for a, b in monotonicity}
        | {((xp, x), (y, yp)) for xp, x, y, yp in relational}
    )
    assert report["ok"] and len(composition) == 27 and relational
    assert len(calls) <= len(identity) + len(types) < len(identity) + 3 * len(composition)


@pytest.mark.parametrize("f", [LAZY, STREAM, REFLEX], ids=["lazy_nat", "streams", "reflexive"])
def test_each_type_table_holds_the_action_on_every_pair_of_its_type(f, monkeypatch):
    # the checker reads the action on the i-th map of type neg and the j-th
    # of type pos at row i * (maps of type pos) + j of the type's table:
    # each row must be eval_map on that one pair
    calls = _top_level_eval_maps(monkeypatch)
    check_functor_laws(f, budget=4000)
    monkeypatch.undo()
    tables = 0
    for fneg, fpos, out in calls:
        negs, poss = monotone_tables(fneg.dom, fneg.cod), monotone_tables(fpos.dom, fpos.cod)
        if len(fneg.arr) != len(negs) * len(poss):
            continue  # the identity law's one-row call
        tables += 1
        assert fneg.arr.tolist() == np.repeat(negs, len(poss), 0).tolist()
        assert fpos.arr.tolist() == np.tile(poss, (len(negs), 1)).tolist()
        rows = np.broadcast_to(out.arr, (len(fneg.arr), out.dom.n))
        for row, neg, pos in zip(rows, fneg.arr, fpos.arr):
            one_pair = eval_map(f, MonotoneMap(fneg.dom, fneg.cod, neg),
                                MonotoneMap(fpos.dom, fpos.cod, pos))
            assert (out.dom, out.cod) == (one_pair.dom, one_pair.cod)
            assert row.tolist() == list(one_pair.table)
    assert tables >= 16


@pytest.mark.parametrize(
    "f, action",
    [(LAZY, eval_map), (STREAM, eval_map), (REFLEX, eval_map), (Fun(Var(), Var()), _broken_action)],
    ids=["lazy_nat", "streams", "reflexive", "corrupted"],
)
def test_a_custom_action_runs_once_per_distinct_pair(f, action):
    calls = []

    def recording(g, neg, pos, caps=DEFAULT_CAPS):
        calls.append((neg, pos))
        return action(g, neg, pos, caps)

    got = _outcome(check_functor_laws, f, budget=4000, action=recording)
    assert calls and len(calls) == len(set(calls))
    if action is eval_map:  # the same reports as the default action's
        assert got == check_functor_laws(f, budget=4000)
    else:
        assert got[0] == "LawViolation"
