"""Answers the benchmark checks each report against.

Nothing here calls relfix: relate answers come from the closed-form sizes
in workloads.py and from the fact that, with diag constants, the
canonical relation is the identity on every level; the bundled specs are
compared byte for byte with the committed golden reports; the suite
answers are their documented verdicts and instance counts.
"""

from __future__ import annotations

import itertools
import json
import os

from workloads import Item

# adjunction_suite walks every (f, R, S) over the small-poset corpus;
# adjunction_instance_count derives the same number independently.
ADJUNCTION_INSTANCES = 2_795_737


def _small_corpus() -> list[tuple[int, set]]:
    """one, chain(2), chain(3) and vee as (size, order pairs)."""

    def chain(n):
        return n, {(i, j) for i in range(n) for j in range(n) if i <= j}

    vee = (3, {(0, 0), (1, 1), (2, 2), (0, 1), (0, 2)})
    return [chain(1), chain(2), chain(3), vee]


def adjunction_instance_count() -> int:
    """Sum over poset pairs (X, Y) of |mono(X, Y)| * |adm(X)| * |adm(Y)|,
    where adm(P) counts the relations on P holding the bottom pair."""
    corpus = _small_corpus()

    def monotone(x, y):
        (nx, lx), (ny, ly) = x, y
        return sum(
            all((t[a], t[b]) in ly for a, b in lx)
            for t in itertools.product(range(ny), repeat=nx)
        )

    def adm(p):
        return 2 ** (p[0] * p[0] - 1)

    return sum(monotone(x, y) * adm(x) * adm(y) for x in corpus for y in corpus)


def _diagonal(n: int) -> list:
    return [[i, i] for i in range(n)]


def _relate_problems(item: Item, report: dict) -> list[str]:
    r = report.get("result", {})
    d = item.depth
    want = {
        "agreement": True,
        "fixed_point_equation": True,
        "uniform": True,
        "uniform_witness": None,
        "depth": d,
        "sizes": list(item.sizes),
        "kt_iterations": d + 1,
        "banach_profile": list(range(d + 1)),
        "glued": _diagonal(item.sizes[-1]),
        "family": [_diagonal(n) for n in item.sizes],
    }
    problems = [f"{key} is not {value!r}" for key, value in want.items() if r.get(key) != value]
    if report.get("command") != "relate":
        problems.append("command is not relate")
    return problems


def _suite_problems(item: Item, report: dict) -> list[str]:
    r = report.get("result", {})
    if item.suite == "corrupted":
        return [] if r.get("caught") is True else ["corrupted action was not caught"]
    problems = [] if r.get("ok") is True else [f"suite {item.suite} is not ok"]
    if item.suite == "adjunction" and r.get("instances") != ADJUNCTION_INSTANCES:
        problems.append(f"adjunction instances {r.get('instances')} != {ADJUNCTION_INSTANCES}")
    return problems


def problems(item: Item, exit_code, report_bytes: bytes | None, root: str) -> list[str]:
    """Why an execution's outcome is wrong; empty when it is right."""
    if exit_code != item.expect_exit:
        return [f"exit code {exit_code}, expected {item.expect_exit}"]
    if report_bytes is None:
        return ["no report written"]
    if item.kind == "golden":
        golden = os.path.join(root, "tests", "golden", f"{item.name}_relate.json")
        with open(golden, "rb") as fh:
            return [] if fh.read() == report_bytes else ["report differs from the golden file"]
    try:
        report = json.loads(report_bytes)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    if item.kind == "relate":
        return _relate_problems(item, report)
    return _suite_problems(item, report)
