"""Binary relations on carriers and the image operations between them.

A relation is a set of ordered pairs of element ids over a single carrier.
Admissible means it contains the bottom pair; in finite posets chain-closure
is automatic, so that one condition is the whole obligation.

A relation on an n-element carrier is stored as one int, its pair mask:
bit x*n + y is set when (x, y) is in the relation, so the set bits read
upward are the pairs in (x, y) order.  This module is the only one that
knows that layout.  Everything else goes through BinRel, whose pairs,
matrix, sorted_pairs and len are views of the mask, and through
PairTable, the action of an element map on pair bits: pull is the
inverse image and push the direct image, each worked on Python ints or
through numpy by the widths _INT_MAX_BITS gives.  Numpy works through
the table's image: along a run o, o+1, ..., pull and push are one block
slice, and any other pull gathers the columns on the image rows only.
Lift injections are runs; sum injections need not be, as ids follow
heights: into sum(const(chain(2), diag), X_2) inl is [1, 3].

A batch of masks is one 2-D uint8 array of packed rows, row i holding
mask i in the little-endian layout of one packed mask (bit q in byte
q // 8, at bit q % 8); masks_to_rows and rows_to_masks convert.
PairTable.pull_rows and push_rows map a whole batch: a narrow table ORs
the lookups of every input byte in its byte lookup tables, and a wide
one maps its rows one at a time through pull and push.  Every batch the
program maps is on a narrow table.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import TypeMismatch
from .poset import FinPoset, MonotoneMap

# Pair masks of at most this many bits (n*n on an n-element carrier) are
# narrow.  pull loops over the bits of a Python int when both of its masks
# are narrow, else goes through numpy (unpackbits, gather, packbits): the
# loop shifts the whole mask once per bit.  push picks by its domain alone:
# from a narrow one it ORs one looked-up image row per domain row, at most
# 9 shifts where numpy unpacks, zeroes and packs all ky*ky bits.  Narrow
# tables map batches through byte lookup tables.  Python 3.11.7, numpy
# 2.4.6, 2-vCPU VM, us (timeit minimum), int or rows / numpy:
#   pull along n = 7, 8, 9, 10: 6.2/6.2, 9.6/6.2, 10.8/7.4, 13.6/5.5
#   push of 1 or kx*kx bits along a run at the bottom or top of ky = 11, 81, 401:
#     kx = 1: 0.20-0.23/4.2-4.3, 0.20-0.24/5.5-5.7, 0.20-0.39/28.7-31.1
#     kx = 3: 0.35-0.39/4.3-4.5, 0.37-0.44/5.5-5.8, 0.38-0.61/29.6-37.9
#     kx = 9: 0.94-1.32/4.3-4.3, 0.99-1.33/5.4-5.6, 1.03-1.69/29.4-31.6
_INT_MAX_BITS = 81

# Wide pair tables built, how many are runs, and the largest (kx, ky) by kx * ky.
wide_table_counts = {"tables": 0, "runs": 0, "largest": (0, 0)}


def _unpack(mask: int, width: int) -> np.ndarray:
    """The low `width` bits of mask as a bool array, bit 0 first."""
    if mask.bit_length() > width:  # a one-word test; masking copies the int
        mask &= (1 << width) - 1
    raw = np.frombuffer(mask.to_bytes((width + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=width, bitorder="little").view(bool)


def _pack(bits: np.ndarray) -> int:
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def masks_to_rows(masks: Iterable[int], width: int) -> np.ndarray:
    """A batch of width-bit masks as packed rows, one row per mask."""
    nbytes = (width + 7) // 8
    data = b"".join(m.to_bytes(nbytes, "little") for m in masks)
    return np.frombuffer(data, dtype=np.uint8).reshape(-1, nbytes)


def rows_to_masks(rows: np.ndarray) -> list[int]:
    """The mask of every packed row, in row order."""
    data, k = rows.tobytes(), rows.shape[1]
    return [int.from_bytes(data[i : i + k], "little") for i in range(0, len(data), k)]


def rows_le(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inclusion of packed masks, row against row (the rows broadcast): as one
    word per row on rows of 2, 4 or 8 bytes, else byte by byte in F order."""
    if (k := a.shape[-1]) in (2, 4, 8):
        a, b = ((r if r.strides[-1] == 1 else r.copy()).view(f"u{k}")[..., 0] for r in (a, b))
        return (a & ~b) == 0
    return ~np.bitwise_and(a, ~b, order="F").any(axis=-1)


def _set_bits(mask: int, width: int) -> list[int]:
    """Indices of the set bits of mask, ascending."""
    return np.flatnonzero(_unpack(mask, width)).tolist()


def _mask_of(bits: Iterable[int], width: int) -> int:
    """The mask with exactly the given bit indices set."""
    out = np.zeros(width, dtype=bool)
    out[np.fromiter(bits, dtype=np.int64)] = True
    return _pack(out)


def _byte_lut(images: np.ndarray) -> np.ndarray:
    """The lookup table of a map that sends a mask to the union of the
    images of its bits, images[i] being the bool image of bit i: lut[b, v]
    is the packed image of byte value v at input byte b."""
    bits = np.zeros((-(-len(images) // 8) * 8, images.shape[1]), dtype=bool)
    bits[: len(images)] = images
    one = np.packbits(bits, axis=1, bitorder="little")
    one = one.reshape(len(bits) // 8, 8, one.shape[1])
    lut = np.zeros((len(one), 256, one.shape[2]), dtype=np.uint8)
    for k in range(8):
        lut[:, 1 << k : 2 << k] = lut[:, : 1 << k] | one[:, k, None]
    return lut


def _apply_lut(lut: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The packed images of packed rows: the OR of each byte's lookup."""
    out = lut[0].take(rows[:, 0], axis=0)
    for b in range(1, len(lut)):
        out |= lut[b].take(rows[:, b], axis=0)
    return out


class BinRel:
    """A binary relation on one carrier poset, stored as its pair mask."""

    __slots__ = ("carrier", "mask", "_hash")

    def __init__(self, carrier: FinPoset, mask: int):
        self.carrier = carrier
        self.mask = mask
        self._hash = None

    @property
    def pairs(self) -> frozenset:
        return frozenset(self.sorted_pairs())

    @property
    def matrix(self) -> np.ndarray:
        n = self.carrier.n
        return _unpack(self.mask, n * n).reshape(n, n)

    def sorted_pairs(self) -> list[tuple[int, int]]:
        n = self.carrier.n
        return [divmod(q, n) for q in _set_bits(self.mask, n * n)]

    def __contains__(self, pair) -> bool:
        x, y = pair
        n = self.carrier.n
        return 0 <= x < n and 0 <= y < n and bool((self.mask >> (x * n + y)) & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __le__(self, other: "BinRel") -> bool:
        if self.carrier != other.carrier:
            raise TypeMismatch("relation inclusion needs a shared carrier")
        return (self.mask | other.mask) == other.mask

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BinRel)
            and self.mask == other.mask
            and self.carrier == other.carrier
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.carrier, self.mask))
        return self._hash

    def __repr__(self) -> str:
        return f"BinRel({len(self)} pairs on {self.carrier.n} elements)"


class PairTable:
    """An element table t from a kx- to a ky-element carrier, acting on
    pair bits: bit x*kx + y goes to bit t[x]*ky + t[y].  A wide table (arr
    set) has run = o when it is o, o+1, ..., o+kx-1; any other has its
    image (v, inv): its distinct values ascending, with arr == v[inv]."""

    __slots__ = ("kx", "ky", "arr", "run", "image", "_index", "_luts", "_rows")

    def __init__(self, table: Sequence[int] | np.ndarray, ky: int):
        table = np.asarray(table, dtype=np.int64)
        self.kx = kx = len(table)
        self.ky = ky
        self.arr = self.run = self.image = self._index = self._rows = None
        self._luts = {}
        if kx * kx <= _INT_MAX_BITS:  # push's rows, relative to bit lo*ky + lo
            t = table.tolist()
            lo, cols = min(t, default=0), [0]
            for v in t:  # cols[row]: the image columns of a kx-bit row
                cols += [c | 1 << (v - lo) for c in cols]
            self._rows = cols, [(v - lo) * ky for v in t], lo * (ky + 1)
        if max(kx, ky) ** 2 > _INT_MAX_BITS:
            a = self.arr = table
            if a[-1] - a[0] == kx - 1 and (np.diff(a) == 1).all():
                self.run = int(a[0])
            else:
                seen = np.zeros(ky, dtype=bool)
                seen[a] = True
                self.image = np.flatnonzero(seen), (np.cumsum(seen) - 1)[a]
            counts = wide_table_counts
            counts["tables"] += 1
            counts["runs"] += self.run is not None
            counts["largest"] = max(counts["largest"], (kx, ky), key=lambda t: t[0] * t[1])
        else:
            self._index = (table[:, None] * ky + table).ravel().tolist()

    @property
    def index(self) -> list[int]:
        """The codomain bit of every domain bit."""
        if self._index is None:
            a = self.arr
            self._index = (a[:, None] * self.ky + a[None, :]).ravel().tolist()
        return self._index

    def _lut(self, push: bool) -> np.ndarray:
        """The byte lookup table of push or of pull of a narrow table, built
        on first use: push sends domain bit q to codomain bit index[q], and
        pull sends codomain bit j to every domain bit q with index[q] == j."""
        if push not in self._luts:
            hits = np.asarray(self._index)[:, None] == np.arange(self.ky * self.ky)
            self._luts[push] = _byte_lut(hits if push else hits.T)
        return self._luts[push]

    def pull_rows(self, rows: np.ndarray) -> np.ndarray:
        """pull applied to every row of a batch of packed codomain masks."""
        if self.arr is None:
            return _apply_lut(self._lut(False), rows)
        return masks_to_rows(map(self.pull, rows_to_masks(rows)), self.kx * self.kx)

    def push_rows(self, rows: np.ndarray) -> np.ndarray:
        """push applied to every row of a batch of packed domain masks:
        each image bit is the OR of the domain bits that land on it."""
        if self.arr is None:
            return _apply_lut(self._lut(True), rows)
        return masks_to_rows(map(self.push, rows_to_masks(rows)), self.ky * self.ky)

    def pull(self, mask: int) -> int:
        """The domain bits whose image bit is set in mask."""
        if self.arr is not None:
            k, o = self.ky, self.run
            u = _unpack(mask, k * k).reshape(k, k)
            if o is None:  # gather columns on the image rows only, then copy rows
                v, inv = self.image
                return _pack(u.take(v, 0).take(self.arr, 1).take(inv, 0))
            return _pack(u[o : o + self.kx, o : o + self.kx])
        out = 0
        for q, j in enumerate(self._index):
            if (mask >> j) & 1:
                out |= 1 << q
        return out

    def push(self, mask: int) -> int:
        """The image bits of the set bits of mask (bits above kx*kx are not
        part of it)."""
        if self._rows is not None:
            cols, shifts, base = self._rows
            kx, row, out = self.kx, (1 << self.kx) - 1, 0
            for s in shifts:
                out |= cols[mask & row] << s
                mask >>= kx
            return out << base
        a, kx, ky, o = self.arr, self.kx, self.ky, self.run
        bits = _unpack(mask, kx * kx).reshape(kx, kx)
        out = np.zeros((ky, ky), dtype=bool)
        if o is not None:
            out[o : o + kx, o : o + kx] = bits
        elif len(self.image[0]) == kx:
            # distinct pairs land on distinct pairs: scatter the columns,
            # then the rows, along the table; no kx*kx index is built
            half = np.zeros((kx, ky), dtype=bool)
            half[:, a] = bits
            out[a] = half
        else:
            x, y = np.nonzero(bits)
            out[a[x], a[y]] = True
        return _pack(out)


@lru_cache(maxsize=None)
def cached_pair_table(key: bytes, ky: int) -> PairTable:
    """The pair table of the int64 table whose bytes are key, into a
    ky-element carrier, built once: maps with one table share its lookups."""
    return PairTable(np.frombuffer(key, dtype=np.int64), ky)


def pair_table(f: MonotoneMap) -> PairTable:
    return cached_pair_table(f.key, f.cod.n)


def rel_from_pairs(carrier: FinPoset, pairs: Iterable[tuple[int, int]]) -> BinRel:
    n = carrier.n
    ps = [(int(a), int(b)) for a, b in pairs]
    for a, b in ps:
        if not (0 <= a < n and 0 <= b < n):
            raise TypeMismatch("relation pair out of range", pair=(a, b), size=n)
    return BinRel(carrier, _mask_of((a * n + b for a, b in ps), n * n))


def rel_from_matrix(carrier: FinPoset, m: np.ndarray) -> BinRel:
    """The relation of a boolean n x n matrix on the carrier."""
    return BinRel(carrier, _pack(np.asarray(m, dtype=bool).ravel()))


def bottom_index(carrier: FinPoset) -> int:
    """The bit of the bottom pair."""
    return carrier.bottom * carrier.n + carrier.bottom


def admissible_masks(carrier: FinPoset):
    """Yield the mask of every admissible relation on the carrier, ascending."""
    bot = 1 << bottom_index(carrier)
    return (m for m in range(1 << (carrier.n * carrier.n)) if m & bot)


def admissible_rows(carrier: FinPoset) -> tuple[list[int], np.ndarray]:
    """Every admissible mask of the carrier, ascending, as ints and as packed rows."""
    masks = list(admissible_masks(carrier))
    return masks, masks_to_rows(masks, carrier.n * carrier.n)


def diagonal(carrier: FinPoset) -> BinRel:
    n = carrier.n
    return BinRel(carrier, _mask_of(range(0, n * n, n + 1), n * n))


def total_rel(carrier: FinPoset) -> BinRel:
    return BinRel(carrier, (1 << (carrier.n * carrier.n)) - 1)


def bottom_rel(carrier: FinPoset) -> BinRel:
    """The least admissible relation: just the bottom pair."""
    return BinRel(carrier, 1 << bottom_index(carrier))


def is_admissible(rel: BinRel) -> bool:
    return bool((rel.mask >> bottom_index(rel.carrier)) & 1)


def inverse_image(f: MonotoneMap, s: BinRel) -> BinRel:
    """f*S = all pairs whose images land in S.

    Preserves admissibility whenever S is admissible and f maps bottom to
    bottom; call sites that need admissibility must check it.
    """
    if s.carrier != f.cod:
        raise TypeMismatch("inverse image: relation lives on the codomain")
    return BinRel(f.dom, pair_table(f).pull(s.mask))


def direct_image(f: MonotoneMap, r: BinRel) -> BinRel:
    """f_!R = the pointwise image of R, with the bottom pair added back."""
    if r.carrier != f.dom:
        raise TypeMismatch("direct image: relation lives on the domain")
    return BinRel(f.cod, pair_table(f).push(r.mask) | 1 << bottom_index(f.cod))


def intersect(rels: Iterable[BinRel], carrier: FinPoset) -> BinRel:
    """Intersection of a family; the empty family yields the total relation."""
    rels = list(rels)
    if not rels:
        return total_rel(carrier)
    if any(r.carrier != carrier for r in rels):
        raise TypeMismatch("intersection needs a shared carrier")
    mask = rels[0].mask
    for r in rels[1:]:
        mask &= r.mask
    return BinRel(carrier, mask)


def rel_morphism_witness(f: MonotoneMap, r: BinRel, s: BinRel):
    """f : R -> S exactly when R is inside the inverse image f*S.  The
    least pair of R outside f*S, in (x, y) order, or None if f : R -> S."""
    if r.carrier != f.dom or s.carrier != f.cod:
        raise TypeMismatch("relation morphism: carriers must match dom/cod")
    escapes = r.mask & ~pair_table(f).pull(s.mask)
    return divmod((escapes & -escapes).bit_length() - 1, f.dom.n) if escapes else None


def is_rel_morphism(f: MonotoneMap, r: BinRel, s: BinRel) -> bool:
    return rel_morphism_witness(f, r, s) is None
