"""Inverse-limit chains at finite depth.

A DomainChain truncates the recursive domain equation D = F(D, D) at a
chosen depth N: levels X_0 = 1 and X_{i+1} = eval_obj(F, X_i, X_i), with
the identification of F(X_i, X_i) and X_{i+1} being literal equality (the
mediating isomorphism is the identity by construction).  The connecting
embedding/projection pairs are step_0 = the bottom pair into X_1 and
step_{i+1} = eval_ep(F, step_i).

The depth-N poset X_N stands in for the bilimit; every statement about
the true limit is replaced by its level-N instance.  In particular the
truncation projections pi_0 <= pi_1 <= ... <= pi_N reach the identity at
j = N instead of converging to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import Caps, DEFAULT_CAPS
from .ep import EpPair, bottom_ep, compose_ep, identity_ep
from .errors import (
    DualMismatch,
    InadmissibleRelation,
    LawViolation,
    SizeCapExceeded,
    TypeMismatch,
)
from .functor import FunctorExpr, MapRows, eval_ep, eval_maps, eval_obj, to_src, validate_functor
from .poset import FinPoset, MonotoneMap, identity_map, one
from .relations import (
    BinRel,
    bottom_rel,
    diagonal,
    direct_image,
    intersect,
    inverse_image,
    is_admissible,
    rel_morphism_witness,
    total_rel,
)


class DomainChain:
    """The truncated chain X_0 .. X_N with its e/p structure.

    Holds the steps and the depth + 1 cumulative pairs cums[j] : X_j ->
    X_N, built by one downward fold over the steps; every other composite
    pair and truncation endomap is composed from two of those.  Immutable
    once built, except rel_table: the table of the functor's relational
    action that the engines pass to eval_rel, so each level input is
    solved once per chain.  Construct through build_chain, which also runs
    the invariant checks.
    """

    def __init__(
        self,
        functor: FunctorExpr,
        depth: int,
        levels: tuple,
        steps: tuple,
        caps: Caps,
    ):
        self.functor = functor
        self.depth = depth
        self.levels = levels
        self.steps = steps
        self.caps = caps
        cums = [identity_ep(levels[depth])]
        for step in reversed(steps):
            cums.append(compose_ep(step, cums[-1]))
        self.cums = tuple(reversed(cums))
        self.rel_table: dict = {}

    def __repr__(self) -> str:
        sizes = [p.n for p in self.levels]
        return f"<DomainChain {to_src(self.functor)} depth={self.depth} sizes={sizes}>"

    def ep(self, j: int, n: int) -> EpPair:
        """The composite EpPair X_j -> X_n for j <= n: through X_N and back."""
        if not 0 <= j <= n <= self.depth:
            raise TypeMismatch("ep indices out of range", j=j, n=n, depth=self.depth)
        low, high = self.cums[j], self.cums[n]
        return EpPair(high.p @ low.e, low.p @ high.e)

    def level_pi(self, j: int, n: int) -> MonotoneMap:
        """The truncation endomap e . p : X_n -> X_n through level j <= n."""
        pair = self.ep(j, n)
        return pair.e @ pair.p

    def pi(self, j: int) -> MonotoneMap:
        """The truncation projection pi_j on the top level X_N."""
        return self.level_pi(j, self.depth)

    @property
    def top(self) -> FinPoset:
        return self.levels[self.depth]

    @property
    def pis(self) -> list[MonotoneMap]:
        return [self.pi(j) for j in range(self.depth + 1)]


def build_chain(f: FunctorExpr, depth: int, caps: Caps = DEFAULT_CAPS) -> DomainChain:
    """Build and verify the depth-N chain for the functor expression f.

    Verifies, at every level: the ep laws of each step (inside eval_ep);
    pi_0 = the constant-bottom endomap; the pis increase to the identity;
    idempotence; and the recurrence pi_{j+1} on X_{n+1} equals
    eval_map(f, pi_j on X_n, pi_j on X_n).
    """
    if depth < 0:
        raise TypeMismatch("depth must be nonnegative", depth=depth)
    validate_functor(f)
    levels = [one()]
    for i in range(depth):
        try:
            levels.append(eval_obj(f, levels[-1], levels[-1], caps))
        except SizeCapExceeded as exc:
            raise SizeCapExceeded(
                f"level {i + 1} of the chain exceeds the size caps: {exc.message}",
                level=i + 1,
                functor=to_src(f),
                **exc.details,
            ) from exc
    steps = []
    if depth >= 1:
        steps.append(bottom_ep(levels[0], levels[1]))
        for i in range(1, depth):
            steps.append(eval_ep(f, steps[-1], caps))
    chain = DomainChain(f, depth, tuple(levels), tuple(steps), caps)
    _verify_chain(chain)
    return chain


def _verify_chain(chain: DomainChain) -> None:
    """The pi invariants, from the steps alone.

    Level m's truncation endomaps pi_0 .. pi_m are the rows of one array:
    step m-1 conjugates level m-1's rows (e . pi . p) and the identity is
    the last row, so only two levels' rows are live at a time.  One
    eval_maps call on level m-1's rows gives all m recurrence instances.  At the top
    those rows must be the chain's pis, which come from the cumulative
    pairs.
    """
    n = chain.depth
    f = chain.functor

    def fail(check: str, **details):
        raise LawViolation(
            f"chain invariant failed: {check}",
            check=check,
            functor=to_src(f),
            depth=n,
            **details,
        )

    top = chain.top
    pis = chain.pis
    if not pis[n].is_identity():
        fail("pi_N is the identity")
    rows = np.zeros((1, 1), dtype=np.int64)  # X_0 is one point: pi_0 is its identity
    for m, x in enumerate(chain.levels):
        if m:
            step, low, lower = chain.steps[m - 1], chain.levels[m - 1], rows
            rows = np.vstack([step.e.arr[lower[:, step.p.arr]], np.arange(x.n)])
            pis_low = MapRows(low, low, lower)
            rhs = eval_maps(f, pis_low, pis_low, chain.caps)
            got = np.broadcast_to(rhs.arr, (m, rhs.dom.n))
            same = (rhs.dom, rhs.cod) == (x, x)
            bad = (got != rows[1:]).any(axis=1) if same else np.ones(m, dtype=bool)
            if bad.any():
                j = int(np.argmax(bad))
                fail("pi recurrence", j=j, level=m - 1,
                     lhs=tuple(rows[j + 1].tolist()), rhs=tuple(got[j].tolist()))
        if (rows[0] != x.bottom).any():
            fail("pi_0 is constant bottom", level=m)
    for j, pj in enumerate(pis):
        if (pj.arr != rows[j]).any():
            fail("pi_j from the cumulative pairs", j=j)
        if (pj @ pj) != pj:
            fail("pi_j idempotent", j=j)
        if not pj.pointwise_leq(pis[min(j + 1, n)]):
            fail("pi_j increasing", j=j)
        if not pj.pointwise_leq(identity_map(top)):
            fail("pi_j below identity", j=j)


def truncation_projections(chain: DomainChain) -> tuple[list[MonotoneMap], dict]:
    """Return pi_0..pi_N together with their verification report.

    build_chain, the only constructor of a DomainChain, has verified every
    check the report names, so none runs again here.
    """
    pis = chain.pis
    report = {
        "depth": chain.depth,
        "sizes": [p.n for p in chain.levels],
        "pis": [p.arr.tolist() for p in pis],
        "checks": {
            "pi_0_constant_bottom": True,
            "pi_monotone_increase": True,
            "pi_idempotent": True,
            "pi_N_identity": True,
            "pi_recurrence": True,
        },
    }
    return pis, report


# ---------------------------------------------------------------------------
# relation families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RelFamily:
    """A level-indexed family of admissible relations R_n on X_n.

    Families are the finite presentation of admissible relations on the
    bilimit; equality and hashing compare the relations only.
    """

    rels: tuple
    chain: DomainChain = field(compare=False, hash=False, repr=False)

    def __getitem__(self, n: int) -> BinRel:
        return self.rels[n]

    def __len__(self) -> int:
        return len(self.rels)

    def __repr__(self) -> str:
        return f"<RelFamily {[len(r) for r in self.rels]} pairs by level>"


def make_family(chain: DomainChain, rels) -> RelFamily:
    rels = tuple(rels)
    if len(rels) != chain.depth + 1:
        raise TypeMismatch(
            "family length must be depth + 1", got=len(rels), depth=chain.depth
        )
    for m, r in enumerate(rels):
        if r.carrier != chain.levels[m]:
            raise TypeMismatch("family level on the wrong carrier", level=m)
        if not is_admissible(r):
            raise InadmissibleRelation("family level misses the bottom pair", level=m)
    return RelFamily(rels, chain)


def total_family(chain: DomainChain) -> RelFamily:
    return RelFamily(tuple(total_rel(p) for p in chain.levels), chain)


def bottom_family(chain: DomainChain) -> RelFamily:
    return RelFamily(tuple(bottom_rel(p) for p in chain.levels), chain)


def diagonal_family(chain: DomainChain) -> RelFamily:
    return RelFamily(tuple(diagonal(p) for p in chain.levels), chain)


def family_from_limit(chain: DomainChain, rel: BinRel) -> RelFamily:
    """Pull a relation on X_N back to a family via the cumulative embeddings."""
    if rel.carrier != chain.top:
        raise TypeMismatch("relation must live on the top level")
    return make_family(chain, (inverse_image(c.e, rel) for c in chain.cums))


def glue_family(chain: DomainChain, fam: RelFamily) -> BinRel:
    """Glue a coherent family to a single relation on X_N.

    Computes the intersection of inverse images along the cumulative
    projections and, independently, the union of direct images along the
    cumulative embeddings; the two asserts are a theorem for coherent
    families, so a mismatch is raised as a hard error.
    """
    top = chain.top
    via_p = intersect([inverse_image(c.p, r) for c, r in zip(chain.cums, fam.rels)], top)
    union = 0
    for c, r in zip(chain.cums, fam.rels):
        union |= direct_image(c.e, r).mask
    via_e = BinRel(top, union)
    if via_p != via_e:
        only_p = sorted(via_p.pairs - via_e.pairs)
        only_e = sorted(via_e.pairs - via_p.pairs)
        raise DualMismatch(
            "inverse-image and direct-image gluings disagree",
            only_inverse=only_p[:5],
            only_direct=only_e[:5],
        )
    return via_p


# ---------------------------------------------------------------------------
# family predicates
# ---------------------------------------------------------------------------


def coherence_witness(fam: RelFamily):
    """None if R_n = inverse_image(step_n.e, R_{n+1}) at every n, else a witness."""
    chain = fam.chain
    for m in range(chain.depth):
        back = inverse_image(chain.steps[m].e, fam[m + 1])
        if back != fam[m]:
            diff = back.pairs ^ fam[m].pairs
            return {"level": m, "difference": sorted(diff)[:5]}
    return None


def is_coherent(fam: RelFamily) -> bool:
    return coherence_witness(fam) is None


def levelwise_uniform_witness(fam: RelFamily):
    """None if every truncation endomap is a morphism R_n -> R_n, else a witness."""
    chain = fam.chain
    for m in range(chain.depth + 1):
        for j in range(m + 1):
            w = rel_morphism_witness(chain.level_pi(j, m), fam[m], fam[m])
            if w is not None:
                return {"level": m, "j": j, "pair": w}
    return None


def is_levelwise_uniform(fam: RelFamily) -> bool:
    return levelwise_uniform_witness(fam) is None


def is_uniform_family(fam: RelFamily) -> bool:
    """Coherent and levelwise uniform: the families in bijection with
    uniform admissible relations on X_N."""
    return is_coherent(fam) and is_levelwise_uniform(fam)
