"""Three constructions of the recursive relation and their comparison.

All engines work on level-indexed relation families (see chain.RelFamily):
uniform admissible relations on the bilimit correspond exactly to such
families, and families make the methods directly comparable level by
level.

* solve_knaster_tarski: least fixed point of the mixed-variance pair
  operator (neg, pos) -> (psi(pos, neg), psi(neg, pos)) on the lattice
  L = (families)^op x families, iterated from the L-bottom (total
  family, bottom family).
* solve_kleene: the forward inverse-limit family R_{n+1} = F(R_n, R_n).
* solve_banach: iteration of the contractive one-sided operator from an
  arbitrary start, with per-level stabilization tracking.

KT and Banach provably converge within depth + 2 applications; both cap
at depth + 4 and raise a hard error beyond, converting silent divergence
into a diagnosable failure.
"""

from __future__ import annotations

import time

from .chain import (
    DomainChain,
    RelFamily,
    bottom_family,
    coherence_witness,
    glue_family,
    total_family,
)
from .errors import (
    CoherenceViolation,
    InternalInvariantViolation,
    MethodDisagreement,
    NegPosMismatch,
    NotContractive,
)
from .functor import eval_rel, to_src
from .relations import BinRel, rel_morphism_witness, total_rel


def _psi(chain: DomainChain, neg: RelFamily, pos: RelFamily) -> RelFamily:
    """The levelwise operator: level 0 is the total relation on the
    one-point poset, level m+1 is eval_rel(F, neg[m], pos[m])."""
    f, caps, table = chain.functor, chain.caps, chain.rel_table
    rels = [total_rel(chain.levels[0])]
    rels += [eval_rel(f, n, p, caps, table) for n, p in zip(neg.rels[:-1], pos.rels)]
    return RelFamily(tuple(rels), chain)


def psi_step(chain: DomainChain, fam: RelFamily) -> RelFamily:
    """One application of the relational operator.

    Level 0 is the total relation on the one-point poset; level n+1 is
    eval_rel(F, R_n, R_n).  The level-n output depends only on input
    levels below n, which is the contractiveness mechanism.
    """
    return _psi(chain, fam, fam)


def _ceiling(chain: DomainChain) -> int:
    return chain.depth + 4


def solve_knaster_tarski(chain: DomainChain) -> tuple[tuple[RelFamily, RelFamily], int]:
    """Least fixed point (neg, pos) of the pair operator from the L-bottom.

    Iterates (neg, pos) <- (psi(pos, neg), psi(neg, pos)) from (total
    family, bottom family) until stationary; each step must ascend in L,
    where neg shrinks while pos grows.  The returned count includes the
    confirming application.  The fixed point must have equal halves; a
    mismatch contradicts the antisymmetry argument and is raised loudly.
    """
    neg, pos = total_family(chain), bottom_family(chain)
    levels = range(chain.depth + 1)
    iterations = 0
    while True:
        nxt_neg, nxt_pos = _psi(chain, pos, neg), _psi(chain, neg, pos)
        iterations += 1
        if not all(nxt_neg[m] <= neg[m] and pos[m] <= nxt_pos[m] for m in levels):
            raise InternalInvariantViolation(
                "Knaster-Tarski iteration failed to ascend", iteration=iterations
            )
        if nxt_neg == neg and nxt_pos == pos:
            break
        neg, pos = nxt_neg, nxt_pos
        if iterations > _ceiling(chain):
            raise InternalInvariantViolation(
                "Knaster-Tarski exceeded its iteration ceiling",
                ceiling=_ceiling(chain),
            )
    for m in levels:
        if neg[m] != pos[m]:
            raise NegPosMismatch(
                "fixed point has unequal halves",
                level=m,
                difference=sorted(neg[m].pairs ^ pos[m].pairs)[:5],
            )
    return (neg, pos), iterations


def solve_kleene(chain: DomainChain) -> RelFamily:
    """The forward family R_0 = total on 1, R_{n+1} = eval_rel(F, R_n, R_n).

    Asserts coherence: the inverse image along each step embedding
    recovers the previous level.
    """
    rels = [total_rel(chain.levels[0])]
    for m in range(chain.depth):
        rels.append(eval_rel(chain.functor, rels[m], rels[m], chain.caps, chain.rel_table))
    fam = RelFamily(tuple(rels), chain)
    witness = coherence_witness(fam)
    if witness is not None:
        raise CoherenceViolation("forward family is not coherent", **witness)
    return fam


def solve_banach(
    chain: DomainChain, start: RelFamily | None = None
) -> tuple[RelFamily, list[int]]:
    """Iterate psi_step from a start family until stationary.

    Returns the fixed point and the stabilization profile: for each level
    m, the first iteration index from which that level never changes
    again, i.e. 1 + the last iteration that changed it (0 if none did).
    Contractiveness makes level m stable from iteration m+1 at the latest;
    a later level raises NotContractive.

    That bound is the Cauchy modulus of the iterates, so they need no
    further check: iterates i < j with i >= n agree at every level m < n,
    since both are at or past profile[m] <= m+1 <= n and so equal the
    fixed point there.  Only the current iterate is kept.
    """
    cur = start if start is not None else total_family(chain)
    levels = range(chain.depth + 1)
    profile = [0] * len(levels)
    iteration = 0
    while True:
        nxt = psi_step(chain, cur)
        iteration += 1
        changed = [m for m in levels if nxt[m] != cur[m]]
        if not changed:
            break
        for m in changed:
            profile[m] = iteration
        cur = nxt
        if iteration > _ceiling(chain):
            raise InternalInvariantViolation(
                "Banach iteration exceeded its ceiling", ceiling=_ceiling(chain)
            )
    bad = [m for m in levels if profile[m] > m + 1]
    if bad:
        raise NotContractive(
            "levels stabilized later than the contractive bound",
            levels=bad,
            profile=profile,
        )
    return nxt, profile


def check_uniform(chain: DomainChain, rel: BinRel) -> tuple[bool, dict | None]:
    """Is every truncation projection a morphism R -> R on the top level?

    Returns (verdict, witness), the witness naming the failing projection
    index and pair.
    """
    for i in range(chain.depth + 1):
        w = rel_morphism_witness(chain.pi(i), rel, rel)
        if w is not None:
            return False, {"i": i, "pair": w}
    return True, None


def _agree(a: RelFamily, b: RelFamily, message: str, methods: tuple) -> None:
    """Raise MethodDisagreement at the first level where a and b differ."""
    for m, (ra, rb) in enumerate(zip(a.rels, b.rels)):
        if ra != rb:
            raise MethodDisagreement(
                message, methods=methods, level=m, difference=sorted(ra.pairs ^ rb.pairs)[:5]
            )


def compare_methods(chain: DomainChain, on_phase=None) -> dict:
    """Run all three engines and check they agree.

    Asserts levelwise set equality of the three families (plus a second
    Banach run from the bottom family), equality of the gluings, and the
    fixed-point equation R_{n+1} = eval_rel(F, R_n, R_n) for the agreed
    family.  The returned report carries JSON-ready fields; keys starting
    with an underscore hold the raw objects and are stripped before
    serialization.  on_phase(name, seconds), if given, is called after
    each phase with its wall time: kt, kleene, banach, banach_from_bottom,
    gluing (with the levelwise agreement check), unfolding and uniform.
    """
    marks = [time.monotonic()]

    def done(name: str) -> None:
        marks.append(time.monotonic())
        if on_phase is not None:
            on_phase(name, marks[-1] - marks[-2])

    (_, kt_pos), kt_iterations = solve_knaster_tarski(chain)
    done("kt")
    kleene = solve_kleene(chain)
    done("kleene")
    banach, profile = solve_banach(chain)
    done("banach")
    banach_low, _ = solve_banach(chain, start=bottom_family(chain))
    done("banach_from_bottom")

    families = {
        "knaster_tarski": kt_pos,
        "kleene": kleene,
        "banach": banach,
        "banach_from_bottom": banach_low,
    }
    names = list(families)
    for other in names[1:]:
        _agree(families[names[0]], families[other], "engines disagree", (names[0], other))
    glued = {name: glue_family(chain, fam) for name, fam in families.items()}
    for other in names[1:]:
        if glued[names[0]] != glued[other]:
            raise MethodDisagreement(
                "gluings disagree",
                methods=(names[0], other),
                difference=sorted(glued[names[0]].pairs ^ glued[other].pairs)[:5],
            )
    done("gluing")
    _agree(psi_step(chain, kleene), kleene, "fixed-point equation fails", ("unfolding",))
    done("unfolding")
    uniform, uniform_witness = check_uniform(chain, glued["kleene"])
    done("uniform")
    return {
        "functor": to_src(chain.functor),
        "depth": chain.depth,
        "sizes": [p.n for p in chain.levels],
        "kt_iterations": kt_iterations,
        "banach_profile": profile,
        "agreement": True,
        "fixed_point_equation": True,
        "uniform": uniform,
        "uniform_witness": uniform_witness,
        "family": [kleene[m].sorted_pairs() for m in range(chain.depth + 1)],
        "glued": glued["kleene"].sorted_pairs(),
        "_family": kleene,
        "_glued": glued["kleene"],
    }
