"""The ordered-family-of-equivalences structure on relation families.

n-equality, dyadic distances, Cauchy limits, and the contractiveness
check for the relational operator.

n-equality has three characterizations on uniform families, all computed
and cross-asserted here:

1. levelwise prefix equality: R_m = S_m for every m < n;
2. equal inverse images of the gluings under pi_{n-1};
3. pi_{n-1} a morphism in both directions between the gluings.

0-equality is the total relation (always true).  Families that are not
uniform have no gluing, so for them n-equality falls back to the prefix
characterization alone.

The contractiveness check is exhaustive whenever the space of uniform
families fits the budget.  When only the quotient by the top level fits,
it enumerates sections: every uniform family on the depth-(N-1) prefix,
standing for every family with that prefix.  Sections decide the pair implication
exactly, because n ranges over 0..N and two uniform families with equal
levels below N fall in the same class for every such n, while the default
operator reads only input levels below N (engines._psi), so its outputs
are functions of the shared prefix.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .chain import (
    DomainChain,
    RelFamily,
    family_from_limit,
    glue_family,
    is_uniform_family,
)
from .errors import (
    CharacterizationMismatch,
    InternalInvariantViolation,
    NotCauchy,
    TypeMismatch,
)
from .functor import eval_rel, to_src
from .relations import (
    BinRel,
    bottom_index,
    intersect,
    inverse_image,
    is_rel_morphism,
    masks_to_rows,
    pair_table,
    rows_to_masks,
)

__all__ = [
    "prefix_equal",
    "n_equal",
    "Distance",
    "ofe_distance",
    "CauchySeq",
    "validate_cauchy",
    "cofe_limit",
    "uniform_space_size",
    "uniform_mask_blocks",
    "enumerate_uniform_masks",
    "sample_uniform_masks",
    "check_contractive",
]


# ---------------------------------------------------------------------------
# n-equality and distance
# ---------------------------------------------------------------------------


def prefix_equal(r: RelFamily, s: RelFamily, n: int) -> bool:
    """Levelwise equality strictly below level n."""
    return all(r[m] == s[m] for m in range(n))


def n_equal(chain: DomainChain, r: RelFamily, s: RelFamily, n: int) -> bool:
    """The n-th equivalence of the OFE on families.

    Valid for n in 0..N+1; (N+1)-equality is equality of whole families.
    On uniform families all three characterizations are evaluated and any
    disagreement raises CharacterizationMismatch (a bug signal, since the
    characterizations are provably equivalent there).
    """
    if not 0 <= n <= chain.depth + 1:
        raise TypeMismatch("n-equality index out of range", n=n, depth=chain.depth)
    by_prefix = prefix_equal(r, s, n)
    if is_uniform_family(r) and is_uniform_family(s):
        gr = glue_family(chain, r)
        gs = glue_family(chain, s)
        if n == 0:
            by_pi = by_morphism = True
        else:
            pi = chain.pi(n - 1)
            by_pi = inverse_image(pi, gr) == inverse_image(pi, gs)
            by_morphism = is_rel_morphism(pi, gr, gs) and is_rel_morphism(pi, gs, gr)
        if not by_prefix == by_pi == by_morphism:
            raise CharacterizationMismatch(
                "n-equality characterizations disagree",
                n=n,
                prefix=by_prefix,
                pi_inverse_image=by_pi,
                pi_morphism=by_morphism,
            )
    return by_prefix


@dataclass(frozen=True)
class Distance:
    """A dyadic distance; at_truncation marks "0 at truncation depth N"
    (equal through every representable level, not provably equal beyond)."""

    value: Fraction
    at_truncation: bool

    def __str__(self) -> str:
        if self.at_truncation:
            return "0 (at truncation depth)"
        return str(self.value)


def ofe_distance(chain: DomainChain, r: RelFamily, s: RelFamily) -> Distance:
    """2^-n for the greatest n with n-equality, 0 at the truncation cap."""
    n = 0
    while n <= chain.depth and n_equal(chain, r, s, n + 1):
        n += 1
    if n == chain.depth + 1:
        return Distance(Fraction(0), True)
    return Distance(Fraction(1, 2 ** n), False)


# ---------------------------------------------------------------------------
# Cauchy sequences and limits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CauchySeq:
    """A finite sequence of families with a claimed modulus.

    modulus[n] is an index from which on all terms are n-equal; it has one
    entry for each n in 0..N+1 and must be monotone.
    """

    terms: tuple
    modulus: tuple


def validate_cauchy(chain: DomainChain, seq: CauchySeq) -> None:
    """Check the Cauchy witness; raises NotCauchy with the failing data."""
    k = len(seq.terms)
    if k == 0:
        raise NotCauchy("empty sequence", n=0)
    if len(seq.modulus) != chain.depth + 2:
        raise NotCauchy(
            "modulus needs one entry per n in 0..N+1",
            got=len(seq.modulus),
            expected=chain.depth + 2,
        )
    for n in range(chain.depth + 1):
        if seq.modulus[n] > seq.modulus[n + 1]:
            raise NotCauchy("modulus not monotone", n=n)
    for t in seq.terms:
        if not is_uniform_family(t):
            raise NotCauchy("terms must be uniform families")
    for n, m in enumerate(seq.modulus):
        if not 0 <= m < k:
            raise NotCauchy("modulus index out of range", n=n, index=m)
        for i in range(m, k):
            for j in range(i + 1, k):
                if not n_equal(chain, seq.terms[i], seq.terms[j], n):
                    raise NotCauchy(
                        "witnessed n-equality fails", n=n, indices=(i, j)
                    )


def cofe_limit(chain: DomainChain, seq: CauchySeq) -> RelFamily:
    """The limit family of a Cauchy sequence.

    Follows the completeness proof: S_n is the inverse image under
    pi_{n-1} of the glued modulus-n tail term, the limit gluing is the
    intersection of the S_n, and the result is pulled back to a family.
    The proof's decreasing-chain property of the S_n and the n-equality
    of the limit with each tail are re-verified.
    """
    validate_cauchy(chain, seq)
    glued = {}

    def tail_glued(n: int) -> BinRel:
        m = seq.modulus[n]
        if m not in glued:
            glued[m] = glue_family(chain, seq.terms[m])
        return glued[m]

    esses = []
    for n in range(1, chain.depth + 2):
        esses.append(inverse_image(chain.pi(n - 1), tail_glued(n)))
    for i in range(len(esses) - 1):
        if not esses[i + 1] <= esses[i]:
            raise NotCauchy(
                "S-chain is not decreasing",
                n=i + 1,
                difference=sorted(esses[i + 1].pairs - esses[i].pairs)[:5],
            )
    limit_glued = intersect(esses, chain.top)
    fam = family_from_limit(chain, limit_glued)
    if not is_uniform_family(fam):
        raise InternalInvariantViolation("limit family is not uniform")
    for n in range(chain.depth + 2):
        if not n_equal(chain, fam, seq.terms[seq.modulus[n]], n):
            raise NotCauchy("limit is not n-equal to its tail", n=n)
    return fam


# ---------------------------------------------------------------------------
# the uniform space as downsets of the truncation forest
# ---------------------------------------------------------------------------
#
# A relation on X_L is uniform iff it contains the bottom pair and is
# closed under every truncation endomap pi_j applied to both components.
# The pi-images of a pair form a chain down to (bot, bot), so uniform
# relations are exactly the down-closed pair sets of the ancestry forest
# that contain the root; they can be counted, enumerated and sampled by
# tree products.


def _forest(chain: DomainChain, level: int) -> tuple:
    """(children of each pair bit, root bit) of the ancestry forest on
    X_level: the parent of a pair is its image under the deepest
    truncation pi_j that moves it."""
    carrier = chain.levels[level]
    root = bottom_index(carrier)
    images = [
        pair_table(chain.level_pi(j, level)).index for j in reversed(range(level + 1))
    ]
    children: dict = {q: [] for q in range(carrier.n * carrier.n)}
    for q in children:
        parent = next((img[q] for img in images if img[q] != q), None)
        if q != root and parent is not None:
            children[parent].append(q)
    return children, root


def _ways(children: dict, node: int) -> int:
    """Downsets of the subtree at node, the empty one included."""
    w = 1
    for c in children[node]:
        w *= _ways(children, c)
    return 1 + w


def uniform_space_size(chain: DomainChain, level: int | None = None) -> int:
    """Exact number of uniform admissible relations on X_level."""
    level = chain.depth if level is None else level
    children, root = _forest(chain, level)
    return math.prod(_ways(children, c) for c in children[root])


def _tree_masks(children: dict, node: int) -> list:
    """All downset bitmasks of the subtree at node (including empty)."""
    sub = [1 << node]
    for c in children[node]:
        sub = [m | cm for m in sub for cm in _tree_masks(children, c)]
    return [0] + sub


# Rows per block of packed masks in uniform_mask_blocks and
# check_contractive.  Measured with Python 3.11 and numpy 2.4 on a 2-vCPU
# VM, the contractive check of lazy_nat depth 3 (1,285,000 section masks)
# takes 1.7 s with 512-row blocks (which hold only 257 rows there, since
# the inner trees must fit), 0.43 s with 4,096 and 0.38 s with 32,768,
# while its peak RSS grows by 0.8 MB and 5.3 MB with the last two.
BLOCK_ROWS = 4096


def uniform_mask_blocks(chain: DomainChain, level: int | None = None):
    """Yield every uniform relation on X_level as packed mask rows (see
    relations.masks_to_rows), at most BLOCK_ROWS rows a block.

    The order is that of itertools.product over the trees below the root.
    The trailing trees whose product fits a block are expanded once into
    an inner block; each yielded block ORs it with the next run of outer
    combinations, which itertools.product supplies.
    """
    level = chain.depth if level is None else level
    width = chain.levels[level].n ** 2
    children, root = _forest(chain, level)
    per_tree = [_tree_masks(children, c) for c in children[root]]
    split, inner_size = len(per_tree), 1
    while split and inner_size * len(per_tree[split - 1]) <= BLOCK_ROWS:
        split -= 1
        inner_size *= len(per_tree[split])
    inner = masks_to_rows(
        (_union(combo) | 1 << root for combo in itertools.product(*per_tree[split:])),
        width,
    )
    outer = map(_union, itertools.product(*per_tree[:split]))
    for chunk in _chunks(outer, BLOCK_ROWS // inner_size):
        rows = masks_to_rows(chunk, width)
        yield (rows[:, None, :] | inner[None, :, :]).reshape(-1, inner.shape[1])


def _union(masks) -> int:
    return functools.reduce(operator.or_, masks, 0)


def _chunks(items, size: int):
    """Consecutive lists of up to size items."""
    while chunk := list(itertools.islice(items, size)):
        yield chunk


def enumerate_uniform_masks(chain: DomainChain, level: int | None = None):
    """Yield every uniform relation on X_level as its pair mask; the
    root bit (bottom pair) is always set."""
    for block in uniform_mask_blocks(chain, level):
        yield from rows_to_masks(block)


def sample_uniform_masks(
    chain: DomainChain, count: int, seed: int, level: int | None = None
):
    """Seeded uniform-ish sample of the downset space (with replacement)."""
    level = chain.depth if level is None else level
    children, root = _forest(chain, level)
    rng = random.Random(seed)
    wcache = {c: _ways(children, c) for c in children}

    def pick(node: int) -> int:
        w = wcache[node]
        if rng.randrange(w) == 0:
            return 0
        m = 1 << node
        for c in children[node]:
            m |= pick(c)
        return m

    for _ in range(count):
        m = 1 << root
        for c in children[root]:
            m |= pick(c)
        yield m


# ---------------------------------------------------------------------------
# contractiveness
# ---------------------------------------------------------------------------


def _combined_ids(columns: list, size: int) -> np.ndarray:
    """One id per row for the tuple of its column values, equal exactly
    when the tuples are equal (mixed radix, renumbered before it
    overflows).  The columns hold nonnegative integers."""
    acc = np.zeros(size, dtype=np.int64)
    bound = 1
    for ids in columns:
        radix = int(ids.max()) + 1
        if bound * radix >= 1 << 62:
            acc = np.unique(acc, return_inverse=True)[1].ravel().astype(np.int64)
            bound = int(acc.max()) + 1
        acc = acc * radix + ids
        bound *= radix
    return acc


def _distinct_masks(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of a batch of packed masks.  Sorting the combined
    ids is much cheaper than np.unique(rows, axis=0), which sorts a void
    view of the rows."""
    ids = _combined_ids([rows[:, j] for j in range(rows.shape[1])], len(rows))
    return rows[np.unique(ids, return_index=True)[1]]


def check_contractive(
    chain: DomainChain,
    op=None,
    full_budget: int = 60_000,
    section_budget: int = 2_000_000,
    samples: int = 20_000,
    seed: int = 0,
) -> dict:
    """Check that op improves n-equality: n_equal(R, S, n) implies
    n_equal(op R, op S, n+1), over the space of uniform families.

    Report-valued (never raises on counterexamples).  Strategy:

    * full: the whole space of uniform relations on X_N fits full_budget;
      every family is enumerated and op applied to each.
    * sections: the space quotiented by the top level fits; every uniform
      family on the depth-(N-1) prefix is enumerated.  Requires the default
      op, and is exact for it: psi reads only input levels below N, so its
      outputs are functions of the prefix (a property the tests pin).
    * sampled: seeded sampling of the full space.

    The default operator psi cannot fail the implication, so its check
    groups nothing.  psi's output level 0 is total on the one-point X_0
    and its output level m+1 is eval_rel(F, R_m, R_m), so its output
    levels up to n are a function of the input levels below n: families
    that agree below n get outputs that agree up to n.  The check still
    runs psi levelwise over the enumerated space: each block of packed
    masks is pulled down the step chain to every level below the
    enumeration level, deduplicated at each level before the next step,
    and eval_rel (with its caps) runs once on each new (level, mask), the
    levels ascending.  In full
    mode those are all the levels psi reads, 0..N-1; on sections they are
    0..N-2, and the section masks at level N-1 never meet eval_rel.

    A custom op runs once per family, in enumeration order.  For each n,
    the first family with given input levels below n is the witness of
    that key, and each later family with the same key whose output levels
    up to n differ from the witness's is a counterexample.  The check
    stops after the family that brings the count of counterexamples to
    five.
    """
    depth = chain.depth
    space = uniform_space_size(chain)
    report: dict = {
        "functor": to_src(chain.functor),
        "depth": depth,
        "space_size": space,
        "op": "psi" if op is None else "custom",
        "counterexamples": [],
        "ok": True,
    }
    if space <= full_budget:
        strategy, level = "full", depth
    elif (
        op is None
        and depth >= 1
        and (section_space := uniform_space_size(chain, depth - 1)) <= section_budget
    ):
        strategy, level = "sections", depth - 1
        report["section_space"] = section_space
    else:
        strategy, level = "sampled", depth
        report["seed"] = seed
    report["strategy"] = strategy
    if strategy == "sampled":
        sampled = sample_uniform_masks(chain, samples, seed, depth)
        width = chain.levels[depth].n ** 2
        blocks = (masks_to_rows(c, width) for c in _chunks(sampled, BLOCK_ROWS))
    else:
        blocks = uniform_mask_blocks(chain, level)

    enumerated = 0
    conflicts = report["counterexamples"]
    if op is None:
        # the input levels are those below the enumeration level; in
        # section mode the top compared n is N-1, so they stop at N-2
        done: set = set()
        for block in blocks:
            below = [block]  # pulling along e_{m -> level} is one step at a time
            for step in reversed(chain.steps[:level]):
                below.append(_distinct_masks(pair_table(step.e).pull_rows(below[-1])))
            for m, rows in enumerate(reversed(below[1:])):
                for mask in rows_to_masks(rows):
                    if (m, mask) not in done:
                        done.add((m, mask))
                        rel = BinRel(chain.levels[m], mask)
                        eval_rel(chain.functor, rel, rel, chain.caps)
            enumerated += len(block)
    else:
        groups: list = [dict() for _ in range(depth + 1)]
        for mask in itertools.chain.from_iterable(map(rows_to_masks, blocks)):
            enumerated += 1
            fam = family_from_limit(chain, BinRel(chain.top, mask))
            out = op(chain, fam)
            ins = tuple(fam[m].mask for m in range(depth))
            outs = tuple(out[m].mask for m in range(depth + 1))
            for n, group in enumerate(groups):
                want, witness = group.setdefault(ins[:n], (outs[: n + 1], mask))
                if want != outs[: n + 1]:
                    conflicts.append(
                        {
                            "n": n,
                            "output_level": next(
                                m for m in range(n + 1) if want[m] != outs[m]
                            ),
                            "mask_a": witness,
                            "mask_b": mask,
                        }
                    )
            if len(conflicts) >= 5:
                report["stopped_early"] = True
                break
        report["ok"] = not conflicts
    report["enumerated"] = enumerated

    return report
