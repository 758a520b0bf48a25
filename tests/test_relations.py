"""Relations, images, and the Galois connection between them."""

from __future__ import annotations

import functools
import itertools
import operator
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from relfix.chain import build_chain
from relfix.cofe import (
    _forest,
    _tree_masks,
    enumerate_uniform_masks,
    uniform_space_size,
)
from relfix import relations
from relfix.errors import TypeMismatch
from relfix.functor import One, SumSep, Var
from relfix.poset import chain_poset, monotone_map
from relfix.relations import (
    BinRel,
    PairTable,
    bottom_rel,
    diagonal,
    direct_image,
    intersect,
    inverse_image,
    is_admissible,
    is_rel_morphism,
    masks_to_rows,
    rel_from_pairs,
    rel_morphism_witness,
    rows_le,
    rows_to_masks,
    total_rel,
)

C2 = chain_poset(2)
C3 = chain_poset(3)
# 144 pair bits: wide enough that relations and pair tables on it take
# the numpy path, while those on C3 take the int path
C12 = chain_poset(12)


@st.composite
def rels_on(draw, carrier, admissible=False):
    pool = [(i, j) for i in range(carrier.n) for j in range(carrier.n)]
    pairs = [p for p in pool if draw(st.booleans())]
    if admissible:
        pairs.append((carrier.bottom, carrier.bottom))
    return rel_from_pairs(carrier, pairs)


@st.composite
def maps_c3_to_c2(draw):
    k = draw(st.integers(min_value=0, max_value=3))
    tables = [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]
    return monotone_map(C3, C2, tables[k])


def test_rel_sizes():
    assert len(diagonal(C3)) == 3
    assert len(total_rel(C3)) == 9
    assert len(bottom_rel(C3)) == 1


def test_rel_from_pairs_rejects_out_of_range():
    with pytest.raises(TypeMismatch):
        rel_from_pairs(C2, [(0, 5)])


def test_admissibility_is_the_bottom_pair():
    assert is_admissible(bottom_rel(C3))
    assert is_admissible(diagonal(C3))
    assert not is_admissible(rel_from_pairs(C3, [(1, 1)]))


def test_inclusion_needs_a_shared_carrier():
    with pytest.raises(TypeMismatch):
        diagonal(C2) <= diagonal(C3)


def test_inverse_image_by_hand():
    # f collapses the top two elements of the 3-chain onto the top of the
    # 2-chain; pulling back the diagonal relates everything f identifies.
    f = monotone_map(C3, C2, (0, 1, 1))
    pulled = inverse_image(f, diagonal(C2))
    assert pulled.sorted_pairs() == [(0, 0), (1, 1), (1, 2), (2, 1), (2, 2)]


def test_direct_image_by_hand():
    f = monotone_map(C3, C2, (0, 1, 1))
    pushed = direct_image(f, diagonal(C3))
    assert pushed.sorted_pairs() == [(0, 0), (1, 1)]


def test_intersect():
    r = rel_from_pairs(C2, [(0, 0), (0, 1)])
    s = rel_from_pairs(C2, [(0, 0), (1, 1)])
    assert intersect([r, s], C2).sorted_pairs() == [(0, 0)]
    assert intersect([], C2) == total_rel(C2)


def test_rel_morphism_definition():
    f = monotone_map(C3, C2, (0, 1, 1))
    r = rel_from_pairs(C3, [(0, 0), (1, 2)])
    assert is_rel_morphism(f, r, rel_from_pairs(C2, [(0, 0), (1, 1)]))
    assert not is_rel_morphism(f, r, rel_from_pairs(C2, [(0, 0)]))
    witness = rel_morphism_witness(f, r, rel_from_pairs(C2, [(0, 0)]))
    assert witness == (1, 2)  # the pair whose image escapes the target


@given(maps_c3_to_c2(), rels_on(C3, admissible=True), rels_on(C2, admissible=True))
def test_galois_adjunction(f, r, s):
    # Both images act on the lattices of admissible relations: the direct
    # image restores the bottom pair, so the adjunction needs S admissible.
    assert (direct_image(f, r) <= s) == (r <= inverse_image(f, s))


@given(maps_c3_to_c2(), rels_on(C2), rels_on(C2))
def test_inverse_image_preserves_intersections(f, s1, s2):
    lhs = inverse_image(f, intersect([s1, s2], C2))
    rhs = intersect([inverse_image(f, s1), inverse_image(f, s2)], C3)
    assert lhs == rhs


@given(maps_c3_to_c2(), rels_on(C3))
def test_morphism_means_image_below_target(f, r):
    pushed = direct_image(f, r)
    assert is_rel_morphism(f, r, pushed)
    for s in (diagonal(C2), total_rel(C2), bottom_rel(C2)):
        assert is_rel_morphism(f, r, s) == (pushed <= s)


def test_identity_morphism_statement_is_inclusion():
    ident = monotone_map(C3, C3, (0, 1, 2))
    r = rel_from_pairs(C3, [(0, 0), (1, 2)])
    s = rel_from_pairs(C3, [(0, 0), (1, 2), (2, 2)])
    assert is_rel_morphism(ident, r, s) == (r <= s)


@st.composite
def oracle_cases(draw):
    """A monotone map between chains with pair sets on its ends."""
    x = draw(st.sampled_from([C3, C12]))
    y = draw(st.sampled_from([C3, C12]))
    values = st.integers(min_value=0, max_value=y.n - 1)
    table = sorted(draw(st.lists(values, min_size=x.n, max_size=x.n)))

    def pair_set(p):
        ids = st.integers(min_value=0, max_value=p.n - 1)
        return draw(st.frozensets(st.tuples(ids, ids), max_size=p.n * p.n))

    return monotone_map(x, y, table), pair_set(x), pair_set(y), pair_set(y)


@given(oracle_cases())
def test_mask_operations_match_pair_set_semantics(case):
    # the oracle is plain set comprehension over pairs, the semantics the
    # mask encoding must keep on both of its paths
    f, r, s1, s2 = case
    x, y = f.dom, f.cod
    rel, srel1, srel2 = rel_from_pairs(x, r), rel_from_pairs(y, s1), rel_from_pairs(y, s2)
    b = y.bottom

    assert rel.pairs == r
    assert rel.sorted_pairs() == sorted(r)
    assert len(rel) == len(r)
    assert {(int(i), int(j)) for i, j in zip(*rel.matrix.nonzero())} == r
    assert inverse_image(f, srel1).pairs == {
        (i, j) for i in range(x.n) for j in range(x.n) if (f(i), f(j)) in s1
    }
    assert direct_image(f, rel).pairs == {(f(i), f(j)) for i, j in r} | {(b, b)}
    assert intersect([srel1, srel2], y).pairs == s1 & s2
    assert (srel1 <= srel2) == (s1 <= s2)
    assert (srel1 == srel2) == (s1 == s2)
    assert srel1 == rel_from_pairs(y, sorted(s1))
    assert hash(srel1) == hash(rel_from_pairs(y, sorted(s1)))
    escapes = [(i, j) for i, j in sorted(r) if (f(i), f(j)) not in s1]
    assert rel_morphism_witness(f, rel, srel1) == (escapes[0] if escapes else None)


@st.composite
def batch_cases(draw):
    """An element table between carriers whose masks are 1 to 400 bits
    wide, with a batch of masks on each end.  The table is injective (drawn
    without replacement), a run o, o+1, ..., o+kx-1 at any offset,
    arbitrary, or few-valued (1 to 3 distinct values on at least 10
    elements, so that it is wide).  Carriers of at most 9 elements (81
    bits) give narrow tables, the rest wide ones."""
    carriers = st.sampled_from([1, 2, 3, 4, 5, 7, 8, 9, 10, 12, 20])
    kx, ky = (draw(carriers) for _ in range(2))
    kind = draw(st.sampled_from(["injective", "run", "arbitrary", "few-valued"]))
    if kind in ("injective", "run"):
        kx, ky = min(kx, ky), max(kx, ky)
    if kind == "injective":
        table = draw(st.permutations(range(ky)))[:kx]
    elif kind == "run":
        o = draw(st.integers(0, ky - kx))
        table = list(range(o, o + kx))
    else:
        values = range(ky)
        if kind == "few-valued":
            kx = max(kx, 10)
            values = draw(st.lists(st.integers(0, ky - 1), min_size=1, max_size=3))
        table = draw(st.lists(st.sampled_from(values), min_size=kx, max_size=kx))
    batch = st.integers(min_value=0, max_value=5)
    n_dom, n_cod = draw(batch), draw(batch)
    dom = [draw(st.integers(0, (1 << kx * kx) - 1)) for _ in range(n_dom)]
    cod = [draw(st.integers(0, (1 << ky * ky) - 1)) for _ in range(n_cod)]
    return table, PairTable(table, ky), dom, cod


def pair_set_images(table, ky, dom_mask, cod_mask):
    """The pull of cod_mask and the push of dom_mask along table, as pair
    set comprehensions turned back into masks."""
    kx = len(table)
    pulled = {
        (x, y) for x in range(kx) for y in range(kx)
        if cod_mask >> (table[x] * ky + table[y]) & 1
    }
    pairs = [divmod(q, kx) for q in range(kx * kx) if dom_mask >> q & 1]
    pushed = {(table[x], table[y]) for x, y in pairs}
    return (
        sum(1 << (x * kx + y) for x, y in pulled),
        sum(1 << (a * ky + b) for a, b in pushed),
    )


@given(batch_cases())
def test_batch_images_match_the_scalar_ones_row_by_row(case):
    _, pt, dom, cod = case
    wx, wy = pt.kx * pt.kx, pt.ky * pt.ky
    cod_rows, dom_rows = masks_to_rows(cod, wy), masks_to_rows(dom, wx)
    assert cod_rows.shape == (len(cod), (wy + 7) // 8)
    assert rows_to_masks(cod_rows) == cod
    assert rows_to_masks(pt.pull_rows(cod_rows)) == [pt.pull(m) for m in cod]
    assert rows_to_masks(pt.push_rows(dom_rows)) == [pt.push(m) for m in dom]
    for order in "CF":
        rows = np.array(cod_rows, order=order)
        assert rows_le(rows[:, None], rows[None, :]).tolist() == [
            [(a | b) == b for b in cod] for a in cod
        ]


@given(st.integers(1, 9), st.data())
def test_rows_le_is_mask_inclusion_at_every_row_width(width, data):
    # rows of 2, 4 and 8 bytes are compared as words, the others byte by
    # byte; each layout must give (a | b) == b: broadcast rows, rows whose
    # last axis is strided, rows at an odd byte offset, and F-ordered rows
    masks = data.draw(st.lists(st.integers(0, (1 << 8 * width) - 1), min_size=1, max_size=6))
    masks += [masks[0] | m for m in masks]
    n, rows = len(masks), masks_to_rows(masks, 8 * width)
    want = [[(a | b) == b for b in masks] for a in masks]
    strided = np.zeros((n, 2 * width), dtype=np.uint8)
    strided[:, ::2] = rows
    shifted = np.zeros((n, width + 1), dtype=np.uint8)
    shifted[:, 1:] = rows
    for view in (rows, strided[:, ::2], shifted[:, 1:], np.asfortranarray(rows)):
        assert rows_le(view[:, None], rows[None, :]).tolist() == want
        assert rows_le(rows[:, None], view[None, :]).tolist() == want
        grid = np.broadcast_to(view[:, None], (n, n, width))
        assert rows_le(grid, np.broadcast_to(view[None, :], (n, n, width))).tolist() == want
        assert rows_le(view, view).all()


@given(batch_cases(), st.integers(0, 255))
def test_batch_images_are_c_rows_that_ignore_bits_above_the_width(case, junk):
    _, pt, dom, cod = case
    for rows_of, masks, w_in, w_out in [
        (pt.pull_rows, cod, pt.ky * pt.ky, pt.kx * pt.kx),
        (pt.push_rows, dom, pt.kx * pt.kx, pt.ky * pt.ky),
    ]:
        rows = masks_to_rows(masks, w_in)
        out = rows_of(rows)
        assert out.dtype == np.uint8 and out.shape == (len(masks), (w_out + 7) // 8)
        assert out.flags.c_contiguous
        # set bits above the width in the last byte of each row are not
        # part of the mask, as for unpackbits(count=width)
        padded = rows.copy()
        padded[:, -1] |= junk & (0xFF << (w_in - 1) % 8 + 1) & 0xFF
        assert np.array_equal(rows_of(padded), out)


@given(batch_cases(), st.integers(1, (1 << 300) - 1))
def test_push_is_the_pair_image_on_both_kinds_of_table(case, junk):
    # the reference is the pair set {(t[x], t[y]) for (x, y) in R}; set bits
    # above kx*kx, in the mask's last byte or far past it, are not part of it
    table, pt, dom, _ = case
    width = pt.kx * pt.kx
    pad = junk << width
    for mask in dom:
        pairs = [divmod(q, pt.kx) for q in range(width) if mask >> q & 1]
        image = {(table[x], table[y]) for x, y in pairs}
        want = sum(1 << (a * pt.ky + b) for a, b in image)
        assert pt.push(mask) == pt.push(mask | pad) == want
        if pt.arr is not None:
            injective = pt.run is not None or len(pt.image[0]) == pt.kx
            assert injective == (len(set(table)) == len(table))


def test_push_from_a_narrow_domain_into_a_wide_codomain_skips_numpy(monkeypatch):
    # a run at the top of the codomain, an injective spread and a
    # non-injective table, each from at most 9 elements into 41
    def fail(*args):
        raise AssertionError("push took the numpy path")

    tables = [list(range(32, 41)), [0, 5, 17, 40], [3, 3, 40], [40]]
    pts = [PairTable(t, 41) for t in tables]
    monkeypatch.setattr(relations, "_unpack", fail)
    monkeypatch.setattr(relations, "_pack", fail)
    rng = random.Random(41)
    for t, pt in zip(tables, pts):
        assert pt.arr is not None
        for mask in (1, (1 << len(t) ** 2) - 1, rng.getrandbits(len(t) ** 2)):
            assert pt.push(mask) == pair_set_images(t, 41, mask, 0)[1]


@given(batch_cases(), st.integers(1, (1 << 300) - 1))
def test_pull_is_the_pair_preimage_on_every_kind_of_table(case, junk):
    # set bits above ky*ky are not part of the mask, on any path
    table, pt, _, cod = case
    pad = junk << pt.ky * pt.ky
    for mask in cod:
        assert pt.pull(mask) == pt.pull(mask | pad) == pair_set_images(table, pt.ky, 0, mask)[0]
    if pt.arr is not None:
        runs = [o for o in range(pt.ky) if table == list(range(o, o + pt.kx))]
        assert pt.run == (runs[0] if runs else None)
        if not runs:
            values, inv = pt.image
            assert values.tolist() == sorted(set(table))
            assert np.array_equal(values[inv], pt.arr)


@pytest.mark.parametrize("kx, ky", [(1, 10), (4, 12), (10, 10), (10, 12), (12, 20)])
def test_run_tables_at_every_offset_are_block_slices(kx, ky):
    # every offset from 0 to ky - kx: the identity when kx == ky, a run
    # ending at ky - 1 at the last offset, a one-element table when kx == 1
    rng = random.Random(kx * 100 + ky)
    for o in range(ky - kx + 1):
        table = list(range(o, o + kx))
        pt = PairTable(table, ky)
        assert pt.arr is not None and pt.run == o
        for _ in range(3):
            dom_mask, cod_mask = rng.getrandbits(kx * kx), rng.getrandbits(ky * ky)
            assert (pt.pull(cod_mask), pt.push(dom_mask)) == pair_set_images(
                table, ky, dom_mask, cod_mask
            )


@pytest.mark.parametrize(
    "table",
    [
        [0, 1, 2, 3, 4, 6, 7, 8, 9, 10],  # one gap
        [2, 3, 4, 5, 6, 7, 8, 9, 10, 12],  # one gap before the last entry
        [0, 2, 1, 3, 4, 5, 6, 7, 8, 9],  # a permutation of a run, ends fixed
        [3, 4, 5, 6, 7, 8, 9, 10, 11, 2],  # a rotation of a run
        [0, 1, 1, 3, 4, 5, 6, 7, 8, 9],  # a repeat where the run would step
    ],
)
def test_tables_that_are_not_runs_do_not_take_the_run_path(table):
    pt = PairTable(table, 13)
    assert pt.arr is not None and pt.run is None
    rng = random.Random(sum(table))
    for _ in range(3):
        dom_mask, cod_mask = rng.getrandbits(100), rng.getrandbits(169)
        assert (pt.pull(cod_mask), pt.push(dom_mask)) == pair_set_images(
            table, 13, dom_mask, cod_mask
        )


@pytest.mark.parametrize("depth", [2, 3])
def test_uniform_masks_enumerate_the_tree_product(depth):
    # the oracle is the product over the trees below the root, taken one
    # mask at a time, which is how the space is defined
    chain = build_chain(SumSep(One(), Var()), depth)
    level = depth - 1
    children, root = _forest(chain, level)
    per_tree = [_tree_masks(children, c) for c in children[root]]
    oracle = (
        functools.reduce(operator.or_, combo, 1 << root)
        for combo in itertools.product(*per_tree)
    )
    count = 0
    for got, want in itertools.zip_longest(enumerate_uniform_masks(chain, level), oracle):
        assert got == want
        count += 1
    assert count == uniform_space_size(chain, level)
