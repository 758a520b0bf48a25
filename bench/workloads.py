"""The benchmark's workloads: fixed ladder rows plus one seeded equation.

Each item is one CLI invocation together with what its oracle needs.
Relate items carry the spec text the benchmark hands to the program and
the level sizes the benchmark expects, computed here in closed form;
the program never sees the seed, only the generated spec text.

Generated equations use the covariant grammar
    one | const(chain(k), diag) | D | lift(F) | prod(F, G) | sum(F, G)
whose carrier sizes follow the recurrence one = 1, const = k, D = x,
lift = n + 1, prod = a * b, sum = 1 + a + b, starting from X_0 = one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

BUNDLED = ("lazy_nat", "streams", "reflexive")
SUITES = ("lemma2", "functor_laws", "adjunction", "contractive", "karoubi", "duality")

# Expressions are nested tuples: ("one",), ("const", k), ("D",),
# ("lift", e), ("prod", a, b), ("sum", a, b).
ONE = ("one",)
D = ("D",)


def const(k: int) -> tuple:
    return ("const", k)


def lift(e: tuple) -> tuple:
    return ("lift", e)


def prod(a: tuple, b: tuple) -> tuple:
    return ("prod", a, b)


def sum_(a: tuple, b: tuple) -> tuple:
    return ("sum", a, b)


def to_text(e: tuple) -> str:
    tag = e[0]
    if tag == "one":
        return "one"
    if tag == "D":
        return "D"
    if tag == "const":
        return f"const(chain({e[1]}), diag)"
    return f"{tag}({', '.join(to_text(c) for c in e[1:])})"


def size(e: tuple, x: int) -> int:
    """Carrier size of e applied to a carrier of size x."""
    tag = e[0]
    if tag == "one":
        return 1
    if tag == "D":
        return x
    if tag == "const":
        return e[1]
    if tag == "lift":
        return size(e[1], x) + 1
    if tag == "prod":
        return size(e[1], x) * size(e[2], x)
    if tag == "sum":
        return 1 + size(e[1], x) + size(e[2], x)
    raise ValueError(f"unknown node {tag!r}")


def level_sizes(e: tuple, depth: int) -> list[int]:
    sizes = [1]
    for _ in range(depth):
        sizes.append(size(e, sizes[-1]))
    return sizes


def spec_text(e: tuple, depth: int) -> str:
    return f"domain D = {to_text(e)}\ndepth {depth}\n"


# ---------------------------------------------------------------------------
# seeded generator
# ---------------------------------------------------------------------------

# relate_deep: carriers grow by a constant per level (D occurs once, outside
# any product), so depth rather than width sets the cost.  The bands are
# narrow because the run time of compare_methods on these chains grows
# steeply with both depth and carrier size, and the seeded item must cost
# about the same for every seed: in practice they admit growth by 3 per
# level at depth 20 (61 elements), in many shapes.
DEEP_DEPTHS = range(20, 25)
DEEP_TOP = (55, 65)

# relate_wide: carriers grow geometrically; the pair is accepted when the
# top carrier is a few hundred elements and the closed-form scan work
# (depth + 2) * sum of n_m^2 lies near a fixed target, which keeps the
# item's run time roughly seed-independent.
WIDE_TOP = (200, 400)
WIDE_WORK = (1.4e6, 2.0e6)


def _small_const(rng: random.Random) -> tuple:
    return rng.choice([ONE, const(2), const(3), lift(ONE)])


def _narrow(rng: random.Random, budget: int) -> tuple:
    """A D-linear expression whose size is x + c for a small c >= 1."""
    if budget == 0:
        return D
    inner = _narrow(rng, budget - 1)
    kind = rng.choice(["lift", "sum_l", "sum_r"])
    if kind == "lift":
        return lift(inner)
    c = _small_const(rng)
    return sum_(c, inner) if kind == "sum_l" else sum_(inner, c)


def _wide(rng: random.Random, budget: int) -> tuple:
    """A covariant expression drawn from the whole grammar."""
    if budget == 0:
        return rng.choice([D, D, ONE, const(2), const(3)])
    kind = rng.choice(["lift", "prod", "sum", "leaf"])
    if kind == "leaf":
        return _wide(rng, 0)
    if kind == "lift":
        return lift(_wide(rng, budget - 1))
    ctor = prod if kind == "prod" else sum_
    return ctor(_wide(rng, budget - 1), _wide(rng, budget - 1))


def scan_work(e: tuple, depth: int) -> int:
    return (depth + 2) * sum(n * n for n in level_sizes(e, depth))


def draw_deep(seed: int) -> tuple[tuple, int]:
    rng = random.Random(f"relate_deep:{seed}")
    while True:
        e = _narrow(rng, rng.randint(1, 3))
        depths = [
            d for d in DEEP_DEPTHS if DEEP_TOP[0] <= level_sizes(e, d)[-1] <= DEEP_TOP[1]
        ]
        if depths:
            return e, depths[0]


def draw_wide(seed: int) -> tuple[tuple, int]:
    rng = random.Random(f"relate_wide:{seed}")
    while True:
        e = _wide(rng, rng.randint(1, 3))
        sizes = level_sizes(e, 12)
        if sizes[2] <= sizes[1] or sizes[3] <= sizes[2]:
            continue  # not growing: a narrow or constant equation
        depths = [
            d
            for d in range(2, 13)
            if WIDE_TOP[0] <= sizes[d] <= WIDE_TOP[1]
            and WIDE_WORK[0] <= scan_work(e, d) <= WIDE_WORK[1]
        ]
        if depths:
            return e, rng.choice(depths)


# ---------------------------------------------------------------------------
# items
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Item:
    """One CLI invocation of a workload and what its oracle checks."""

    name: str
    kind: str  # "relate", "golden" or "suite"
    spec: str | None = None  # spec text to write, for relate items
    depth: int = 0
    sizes: tuple = ()
    suite: str | None = None
    expect_exit: int = 0


def relate_item(name: str, e: tuple, depth: int) -> Item:
    return Item(
        name=name,
        kind="relate",
        spec=spec_text(e, depth),
        depth=depth,
        sizes=tuple(level_sizes(e, depth)),
    )


def fun_row_sizes(depth: int) -> list[int]:
    """Level sizes of D = lift(fun(const(chain(2), diag), D)).

    Built independently of relfix: an element of hom(chain(2), X) is a
    pair a <= b of X, ordered componentwise, and lift adds a new bottom.
    """
    elems = [0]
    leq = {(0, 0)}
    sizes = [1]
    for _ in range(depth):
        homs = [(a, b) for a in elems for b in elems if (a, b) in leq]
        new = [None] + homs
        idx = range(len(new))
        leq = {
            (i, j)
            for i in idx
            for j in idx
            if i == 0
            or (j != 0 and (new[i][0], new[j][0]) in leq and (new[i][1], new[j][1]) in leq)
        }
        elems = list(idx)
        sizes.append(len(elems))
    return sizes


# lift(fun(const(chain(2), diag), D)) is outside the covariant grammar; its
# sizes come from fun_row_sizes.
FUN_ROW = ("fun_ch2_d4", "domain D = lift(fun(const(chain(2), diag), D))\ndepth 4\n", 4)


def items(workload: str, seed: int) -> list[Item]:
    """The workload's items in round-robin order."""
    if workload == "relate_deep":
        fun_name, fun_text, fun_depth = FUN_ROW
        return [
            relate_item("lazy_nat_d20", sum_(ONE, D), 20),
            relate_item("lazy_nat_d40", sum_(ONE, D), 40),
            *[Item(name=b, kind="golden") for b in BUNDLED],
            Item(
                name=fun_name,
                kind="relate",
                spec=fun_text,
                depth=fun_depth,
                sizes=tuple(fun_row_sizes(fun_depth)),
            ),
            relate_item("seeded", *draw_deep(seed)),
        ]
    if workload == "relate_wide":
        return [
            relate_item("streams_d8", lift(prod(const(2), D)), 8),
            relate_item("prod_lift_d3", prod(lift(D), lift(D)), 3),
            relate_item("seeded", *draw_wide(seed)),
        ]
    if workload == "check_all":
        return [Item(name=s, kind="suite", suite=s) for s in SUITES] + [
            Item(name="corrupted", kind="suite", suite="corrupted", expect_exit=1)
        ]
    raise KeyError(workload)


WORKLOADS = ("relate_deep", "relate_wide", "check_all")
