"""Finite pointed posets, monotone maps, and the constructions on them."""

from __future__ import annotations

import itertools
import re
from math import comb

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from relfix.chain import build_chain
from relfix.config import Caps
from relfix.errors import (
    NoLeastElement,
    NotAPartialOrder,
    NotMonotone,
    SizeCapExceeded,
)
from relfix.functor import Lift, Prod, SumSep, Var
from relfix.poset import (
    FinPoset,
    _canonical_build,
    MonotoneMap,
    chain_poset,
    const_map,
    enumerate_monotone_maps,
    hom_poset,
    identity_map,
    lift,
    monotone_map,
    monotone_tables,
    monotonicity_witness,
    one,
    _heights,
    product,
    small_pointed_posets,
    sum_sep,
    table_positions,
    validate_poset,
    vee,
)
from relfix.suites import canonical_specs


@st.composite
def order_inputs(draw, min_size: int = 1, max_size: int = 5):
    """Arguments of validate_poset for a random pointed poset: a DAG on
    1..n-1 plus bottom edges from 0, with the labels shuffled."""
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    pairs = [(0, k) for k in range(1, n)]
    for i in range(1, n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                pairs.append((i, j))
    label = draw(st.permutations(range(n)))
    return n, [(label[i], label[j]) for i, j in pairs], label[0]


@st.composite
def pointed_posets(draw, min_size: int = 1, max_size: int = 5) -> FinPoset:
    """A random pointed poset, built from order_inputs."""
    return validate_poset(*draw(order_inputs(min_size, max_size)))


def test_one_is_a_single_point():
    p = one()
    assert p.n == 1
    assert p.bottom == 0
    assert p.le(0, 0)


def test_chain_poset_is_totally_ordered():
    c = chain_poset(4)
    assert c.n == 4
    assert c.bottom == 0
    for i in range(4):
        for j in range(4):
            assert c.le(i, j) == (i <= j)


def test_validate_poset_takes_transitive_closure():
    p = validate_poset(3, [(0, 1), (1, 2)], 0)
    assert p.le(0, 2)


def test_validate_poset_rejects_cycles():
    with pytest.raises(NotAPartialOrder):
        validate_poset(2, [(0, 1), (1, 0)], 0)


def test_validate_poset_rejects_wrong_bottom():
    with pytest.raises(NoLeastElement):
        validate_poset(2, [], 0)  # 0 and 1 incomparable, so no least element


@given(order_inputs(min_size=10, max_size=14))
def test_validate_poset_relabels_the_input_order_by_its_descriptors(args):
    # the oracle closes the input pairs by plain reachability; element i of
    # the result is input element elems[i]
    n, pairs, bottom = args
    above = {i: {i} for i in range(n)}
    for _ in range(n):
        for i, j in pairs:
            above[i] |= above[j]
    p = validate_poset(n, pairs, bottom)
    assert sorted(p.elems) == list(range(n))
    for i in range(n):
        for j in range(n):
            assert p.le(i, j) == (p.elems[j] in above[p.elems[i]])


def test_canonical_form_of_a_relabelled_chain():
    # In a chain all heights differ, so canonicalization sorts the
    # elements back into chain order no matter how the input labels them.
    shuffled = validate_poset(3, [(2, 0), (0, 1)], 2)
    straight = chain_poset(3)
    assert np.array_equal(shuffled.leq, straight.leq)
    assert shuffled.bottom == 0


def test_equal_but_distinct_posets_compare_and_hash_equal():
    # the same order built twice, once with other descriptors and a label
    a = chain_poset(3)
    b = validate_poset(3, [(2, 0), (0, 1)], 2, label="relabelled")
    assert a is not b and a.elems != b.elems
    assert a == b and b == a and hash(a) == hash(b)
    assert a == a and not (a != a)
    assert a != chain_poset(2) and a != "chain(3)"
    assert {a: 1}[b] == 1


def test_poset_keys_are_digests_and_equality_compares_the_orders():
    # the key holds 16 bytes whatever n is, not a second copy of the order
    # matrix; a forged digest match still compares the matrices themselves
    big = chain_poset(40)
    assert big._key == (40, 0, big._key[2]) and len(big._key[2]) == 16
    a, b = chain_poset(3), validate_poset(3, [(0, 1), (0, 2)], 0)
    assert a._key != b._key
    b.__dict__["_key"] = a._key
    assert hash(a) == hash(b) and a != b and b != a


@given(pointed_posets())
def test_random_posets_satisfy_the_axioms(p: FinPoset):
    for i in range(p.n):
        assert p.le(i, i)
        assert p.le(p.bottom, i)
        for j in range(p.n):
            if p.le(i, j) and p.le(j, i):
                assert i == j
            for k in range(p.n):
                if p.le(i, j) and p.le(j, k):
                    assert p.le(i, k)


@given(pointed_posets())
def test_canonicalization_sorts_by_height(p: FinPoset):
    def height(x: int) -> int:
        below = [y for y in range(p.n) if p.le(y, x) and y != x]
        return 1 + max((height(y) for y in below), default=-1)

    heights = [height(x) for x in range(p.n)]
    assert heights == sorted(heights)
    assert p.bottom == 0


def _heights_by_loop(leq: np.ndarray) -> np.ndarray:
    """Heights one element at a time in order of down-set size, each one
    more than the highest element strictly below it."""
    n = leq.shape[0]
    order = np.argsort(leq.sum(axis=0), kind="stable")
    heights = np.zeros(n, dtype=np.int64)
    for i in order:
        below = np.flatnonzero(leq[:, i])
        below = below[below != i]
        if below.size:
            heights[i] = heights[below].max() + 1
    return heights


@given(pointed_posets(), st.randoms(use_true_random=False))
def test_heights_match_the_element_loop_on_relabelled_orders(p: FinPoset, rnd):
    perm = list(range(p.n))
    rnd.shuffle(perm)
    raw = p.leq[np.ix_(perm, perm)]
    assert _heights(raw).tolist() == _heights_by_loop(raw).tolist()


def test_heights_match_the_element_loop_on_the_corpus_and_the_chains():
    posets = list(small_pointed_posets())
    for f, depth in canonical_specs().values():
        posets += build_chain(f, depth).levels
    for p in posets:
        assert _heights(p.leq).tolist() == _heights_by_loop(p.leq).tolist()


def test_monotone_map_rejects_order_violations():
    c3, c2 = chain_poset(3), chain_poset(2)
    with pytest.raises(NotMonotone):
        monotone_map(c3, c2, (1, 0, 0))


def _witness_by_loop(dom: FinPoset, cod: FinPoset, table) -> tuple | None:
    for i in range(dom.n):
        for j in range(dom.n):
            if dom.le(i, j) and not cod.le(table[i], table[j]):
                return (i, j)
    return None


@st.composite
def tables_between_wide_posets(draw):
    dom = draw(pointed_posets(min_size=10, max_size=12))
    cod = draw(pointed_posets(min_size=10, max_size=12))
    values = st.integers(min_value=0, max_value=cod.n - 1)
    return dom, cod, draw(st.lists(values, min_size=dom.n, max_size=dom.n))


@given(tables_between_wide_posets())
def test_monotonicity_witness_is_the_first_failing_pair_in_row_major_order(case):
    dom, cod, table = case
    got = monotonicity_witness(dom, cod, np.asarray(table, dtype=np.int64))
    assert got == _witness_by_loop(dom, cod, table)


def test_monotone_map_composition_and_identity():
    c3, c2 = chain_poset(3), chain_poset(2)
    f = monotone_map(c3, c2, (0, 0, 1))
    g = monotone_map(c2, c3, (0, 2))
    assert (f @ g).table == (0, 1)
    assert (g @ f).table == (0, 0, 2)
    assert (f @ identity_map(c3)) == f
    assert (identity_map(c2) @ f) == f
    assert identity_map(c3).is_identity()
    assert not f.is_identity()


def test_a_map_is_one_read_only_array_whatever_it_was_built_from():
    c3, c2 = chain_poset(3), chain_poset(2)
    source = np.array([0, 0, 1])
    built = [MonotoneMap(c3, c2, t) for t in ((0, 0, 1), [0, 0, 1], source, source.astype(np.int32))]
    source[2] = 0  # the map copied its table
    for m in built:
        assert m.arr.dtype == np.int64 and not m.arr.flags.writeable
        with pytest.raises(ValueError):
            m.arr[0] = 1
        assert m.table == (0, 0, 1) and m(2) == 1 and type(m(2)) is int
        assert m == built[0] and hash(m) == hash(built[0])
    composite = built[0] @ identity_map(c3)
    assert not composite.arr.flags.writeable and composite == built[0]
    assert len(set(built + [composite])) == 1
    assert MonotoneMap(c3, c3, (0, 0, 1)) != built[0]  # same table, other codomain


def test_pointwise_leq_on_maps():
    c3 = chain_poset(3)
    low = const_map(c3, c3, 0)
    assert low.pointwise_leq(identity_map(c3))
    assert not identity_map(c3).pointwise_leq(low)


def test_monotone_map_count_between_chains_matches_binomial():
    # Monotone maps m-chain -> n-chain are multisets: C(m + n - 1, m).
    for m, n in [(2, 2), (3, 3), (2, 3), (4, 2)]:
        got = sum(1 for _ in enumerate_monotone_maps(chain_poset(m), chain_poset(n)))
        assert got == comb(m + n - 1, m)


def test_enumerate_monotone_maps_is_lexicographic():
    tables = list(enumerate_monotone_maps(chain_poset(2), chain_poset(2)))
    assert tables == [(0, 0), (0, 1), (1, 1)]


def test_table_positions_find_every_monotone_table_and_no_other():
    corpus = small_pointed_posets() + [chain_poset(4)]
    for x in corpus:
        for y in corpus:
            tables = monotone_tables(x, y)
            assert table_positions(x, y, tables).tolist() == list(range(len(tables)))
            every = np.array(list(itertools.product(range(y.n), repeat=x.n)))
            got = table_positions(x, y, every[None])[0]
            monotone = [monotonicity_witness(x, y, t) is None for t in every]
            assert ((got >= 0) == monotone).all()
            assert (tables[got[monotone]] == every[monotone]).all()


def test_enumerate_monotone_maps_respects_the_cap():
    c4 = chain_poset(4)
    with pytest.raises(SizeCapExceeded):
        list(enumerate_monotone_maps(c4, c4, max_count=3))


def test_lift_adds_a_new_bottom():
    c2 = chain_poset(2)
    l = lift(c2)
    assert l.n == 3
    assert l.bottom == 0
    tops = [x for x in range(l.n) if not any(l.le(y, x) for y in range(l.n) if y != x)]
    assert tops == [0]  # only the new bottom has nothing strictly below


def test_product_order_is_componentwise():
    c2 = chain_poset(2)
    p = product(c2, c2)
    assert p.n == 4
    # exactly one pair of incomparable elements: (0,1) vs (1,0)
    incomparable = sum(
        1
        for i in range(p.n)
        for j in range(i + 1, p.n)
        if not p.le(i, j) and not p.le(j, i)
    )
    assert incomparable == 1


def test_sum_sep_glues_below_a_fresh_bottom():
    c2 = chain_poset(2)
    s = sum_sep(c2, c2)
    assert s.n == 5
    others = [x for x in range(s.n) if x != s.bottom]
    # the two summands stay incomparable except through the new bottom
    maximal = [x for x in others if not any(s.le(x, y) and x != y for y in others)]
    assert len(maximal) == 2


def _raw_layouts(x, y):
    """The three constructions' element layouts before canonicalization,
    built here from the definitions: (name, builder, leq, elems)."""
    lift_leq = np.zeros((x.n + 1, x.n + 1), dtype=bool)
    lift_leq[0] = True
    lift_leq[1:, 1:] = x.leq
    sum_leq = np.zeros((1 + x.n + y.n,) * 2, dtype=bool)
    sum_leq[0] = True
    sum_leq[1 : 1 + x.n, 1 : 1 + x.n] = x.leq
    sum_leq[1 + x.n :, 1 + x.n :] = y.leq
    return [
        ("lift", lambda: lift(x), lift_leq, ("bot",) + tuple(("up", d) for d in x.elems)),
        ("product", lambda: product(x, y),
         np.array([[x.le(a, c) and y.le(b, d) for c in range(x.n) for d in range(y.n)]
                   for a in range(x.n) for b in range(y.n)]),
         tuple((dx, dy) for dx in x.elems for dy in y.elems)),
        ("sum", lambda: sum_sep(x, y), sum_leq,
         ("bot",) + tuple(("inl", d) for d in x.elems) + tuple(("inr", d) for d in y.elems)),
    ]


def _corpus_pairs():
    posets = small_pointed_posets() + [product(chain_poset(3), vee()), lift(vee())]
    return [(x, y) for x in posets for y in posets]


@pytest.mark.parametrize("x, y", _corpus_pairs())
def test_constructions_know_their_heights_and_ranks(x, y):
    # the heights a construction passes are the scanned ones, the poset is
    # the one the scan builds, and rank sends each layout element to the id
    # that carries its descriptor
    for name, build, leq, elems in _raw_layouts(x, y):
        p, scanned = build(), _canonical_build(leq, elems, None)
        assert p == scanned and p.elems == scanned.elems, name
        assert np.array_equal(p.heights, _heights(p.leq)), name
        assert [p.elems[r] for r in p.rank.tolist()] == list(elems), name


@pytest.mark.parametrize("f, depth", [
    (SumSep(SumSep(Var(), Var()), Var()), 4),
    (Lift(Prod(Var(), Var())), 3),
    (SumSep(Lift(Var()), Lift(Var())), 5),
] + [(f, 40 if d == 6 else d) for f, d in canonical_specs().values()])
def test_chain_levels_carry_their_scanned_heights(f, depth):
    # every level of chains up to depth 40 has the heights of a scan and is
    # in the scan's canonical form
    for level in build_chain(f, depth).levels:
        assert np.array_equal(level.heights, _heights(level.leq))
        assert _canonical_build(level.leq, level.elems, None) == level


def test_hom_poset_is_ordered_pointwise():
    c2 = chain_poset(2)
    h = hom_poset(c2, c2)
    assert h.n == 3
    for i in range(h.n):
        for j in range(h.n):
            fi = MonotoneMap(c2, c2, h.elems[i])
            fj = MonotoneMap(c2, c2, h.elems[j])
            assert h.le(i, j) == fi.pointwise_leq(fj)


def test_hom_poset_order_matches_pointwise_comparison_on_a_wide_pair():
    # vee into a 3x3 grid: 196 maps, neither side a chain
    x, y = vee(), product(chain_poset(3), chain_poset(3))
    h = hom_poset(x, y)
    assert h.n == 196
    assert sorted(h.elems) == sorted(enumerate_monotone_maps(x, y))
    for i, f in enumerate(h.elems):
        for j, g in enumerate(h.elems):
            assert h.le(i, j) == all(y.le(a, b) for a, b in zip(f, g))


def test_hom_poset_respects_the_element_cap():
    c6 = chain_poset(6)
    with pytest.raises(SizeCapExceeded):
        hom_poset(c6, c6, Caps(max_elements=10, max_pairs=1000))


def test_to_dot_emits_covering_edges_only():
    c4 = chain_poset(4)
    dot = c4.to_dot(name="X")
    assert dot.startswith("digraph")
    assert dot.count("->") == 3  # chain of 4 has 3 covering edges
    assert dot.count("label") == 4


def test_to_dot_labels_each_node_with_its_id():
    # equal posets with different descriptors: lift's cache may hand either
    # one's elems to a later construction, so labels must not read elems
    c2, up = chain_poset(2), lift(one())
    assert c2 == up and c2.elems != up.elems
    assert c2.to_dot() == up.to_dot()
    d = chain_poset(4)
    labels = re.findall(r'^  (\d+) \[label="(.*)"\];$', d.to_dot(), re.M)
    assert labels == [(str(i), str(i)) for i in range(d.n)]
