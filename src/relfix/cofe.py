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
it decides sections: every uniform family on the depth-(N-1) prefix,
standing for every family with that prefix.  Sections decide the pair
implication exactly, because n ranges over 0..N and two uniform families
with equal levels below N fall in the same class for every such n, while
the default operator reads only input levels below N (engines._psi), so
its outputs are functions of the shared prefix.  A space that neither
fits raises SizeCapExceeded.

For the default operator the check asks eval_rel its questions level by
level, without enumerating the space it decides: restricting the uniform
relations on X_L along e_{m -> L} gives exactly the uniform relations on
X_m (e*R is uniform, and every uniform S is e*(p*S) with p*S uniform), so
the questions are those of the uniform relations on each X_m below L.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

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
    SizeCapExceeded,
    TypeMismatch,
)
from .functor import eval_rel, to_src
from .relations import (
    BinRel,
    bottom_index,
    intersect,
    inverse_image,
    is_rel_morphism,
    pair_table,
)


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
# that contain the root; they can be counted and enumerated by tree
# products.


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


def enumerate_uniform_masks(chain: DomainChain, level: int | None = None):
    """Yield every uniform relation on X_level as its pair mask, in the
    order of itertools.product over the trees below the root; the root bit
    (bottom pair) is always set.  A space larger than chain.caps.max_pairs
    raises SizeCapExceeded before any mask list is built."""
    level = chain.depth if level is None else level
    children, root = _forest(chain, level)
    size, cap = math.prod(_ways(children, c) for c in children[root]), chain.caps.max_pairs
    if size > cap:
        raise SizeCapExceeded("uniform relations over the cap", level=level, size=size, cap=cap)
    per_tree = [_tree_masks(children, c) for c in children[root]]
    for combo in itertools.product(*per_tree):
        yield functools.reduce(operator.or_, combo, 1 << root)


# ---------------------------------------------------------------------------
# contractiveness
# ---------------------------------------------------------------------------


_FULL_BUDGET = 60_000  # uniform relations on X_N
_SECTION_BUDGET = 2_000_000  # uniform relations on X_{N-1}


def check_contractive(chain: DomainChain, op=None) -> dict:
    """Check that op improves n-equality: n_equal(R, S, n) implies
    n_equal(op R, op S, n+1), over the space of uniform families.

    Report-valued (never raises on counterexamples).  Strategy:

    * full: the whole space of uniform relations on X_N fits _FULL_BUDGET;
      it is decided exhaustively.
    * sections: the space quotiented by the top level fits
      _SECTION_BUDGET; the space decided is that of the uniform families
      on the depth-(N-1) prefix.  Requires the default op, and is exact
      for it: psi reads only input levels below N, so its outputs are
      functions of the prefix (a property the tests pin).

    A space neither strategy can decide raises SizeCapExceeded, naming
    space_size, section_space (when computed) and the budget.

    The default operator psi cannot fail the implication: its output
    level 0 is total on the one-point X_0 and its output level m+1 is
    eval_rel(F, R_m, R_m), so families that agree below n get outputs
    that agree up to n.  The check therefore enumerates nothing at the
    level L of the space decided (N or N-1).  It asks eval_rel (with its
    caps) once about each uniform relation on X_m for m = 0..L-1, which
    are the space's questions: restricting a uniform R on X_L along
    e = e_{m -> L} gives a uniform e*R, and every uniform S on X_m is
    e*(p*S) with p*S uniform, since p.e is the identity.  In full mode
    those are all the levels psi reads, 0..N-1; on sections they are
    0..N-2.  enumerated is the size of the space decided.

    A custom op runs once per family, in enumeration order.  For each n,
    the first family with given input levels below n is the witness of
    that key, and each later family with the same key whose output
    levels up to n differ from the witness's is a counterexample.  The
    check stops after the family that brings the count of
    counterexamples to five.
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
    if space <= _FULL_BUDGET:
        report["strategy"], level = "full", depth
    elif op is not None:
        raise SizeCapExceeded(
            "uniform space over the full budget", space_size=space, budget=_FULL_BUDGET
        )
    else:
        section_space = uniform_space_size(chain, depth - 1)
        if section_space > _SECTION_BUDGET:
            raise SizeCapExceeded(
                "section space over the budget",
                space_size=space,
                section_space=section_space,
                budget=_SECTION_BUDGET,
            )
        report["strategy"], level = "sections", depth - 1
        report["section_space"] = section_space

    if op is None:
        for m in range(level):
            for mask in enumerate_uniform_masks(chain, m):
                rel = BinRel(chain.levels[m], mask)
                eval_rel(chain.functor, rel, rel, chain.caps)
        report["enumerated"] = report.get("section_space", space)
        return report

    enumerated = 0
    conflicts = report["counterexamples"]
    groups: list = [dict() for _ in range(depth + 1)]
    for mask in enumerate_uniform_masks(chain, depth):
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
