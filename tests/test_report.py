"""Report serialization: canonical JSON, hashing, and envelope fields."""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relfix import cli
from relfix.report import canonical_json, make_report, spec_sha256, to_jsonable

HERE = Path(__file__).parent


def _stdlib(value) -> str:
    """The canonical form as the standard library renders it."""
    return json.dumps(to_jsonable(value), sort_keys=True, indent=2) + "\n"


def test_to_jsonable_strips_private_keys_and_converts_values():
    payload = {
        "b": (1, 2),
        "a": Fraction(1, 4),
        "_raw": object(),
        "flag": np.bool_(True),
        "count": np.int64(7),
        "nested": {"_hidden": 1, "shown": [Fraction(3, 2)]},
    }
    out = to_jsonable(payload)
    assert out == {
        "b": [1, 2],
        "a": "1/4",
        "flag": True,
        "count": 7,
        "nested": {"shown": ["3/2"]},
    }


def test_to_jsonable_rejects_unknown_types():
    with pytest.raises(TypeError):
        to_jsonable({"x": object()})


def test_canonical_json_is_sorted_and_newline_terminated():
    text = canonical_json({"z": 1, "a": 2})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"z"')
    assert json.loads(text) == {"z": 1, "a": 2}
    assert canonical_json({"a": 2, "z": 1}) == text


def test_spec_sha256():
    source = "domain D = sum(one, D)\ndepth 6\n"
    assert spec_sha256(source) == hashlib.sha256(source.encode()).hexdigest()


def test_make_report_envelope():
    report = make_report("relate", "domain D = sum(one, D)\ndepth 1\n", 5, {"x": 1})
    assert set(report) == {"tool_version", "command", "spec_sha256", "seed", "result"}
    assert report["seed"] == 5
    assert report["command"] == "relate"
    assert report["result"] == {"x": 1}


class Pair(NamedTuple):
    lo: object
    hi: object


class Members(dict):
    pass


_ints = st.integers(-(2**70), 2**70)
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    _ints,
    st.text(),  # non-ASCII, quotes, backslashes and control characters
    st.fractions(),
    st.builds(np.bool_, st.booleans()),
    st.builds(np.int64, st.integers(-(2**63), 2**63 - 1)),
    st.floats(),  # nan and the infinities included
)
_rows = st.one_of(
    st.lists(st.lists(_ints, min_size=2, max_size=2)),  # family pairs
    st.lists(st.lists(_ints, max_size=4)),  # ragged rows, empty ones too
    st.lists(st.lists(st.booleans() | _ints, min_size=3, max_size=3)),  # bools among ints
    st.lists(st.builds(Pair, _ints, _ints)),
)
_keys = st.one_of(st.text(max_size=3), st.integers(-2, 2), st.sampled_from(["1", "_", "_x"]))


def _dicts(values):
    plain = st.dictionaries(_keys, values, max_size=4)
    hiding = plain.map(lambda d: {**d, "_raw": object(), 1: d.get(1, 0)})
    return st.one_of(plain, plain.map(Members), hiding)


_values = st.recursive(
    _leaves | _rows,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.builds(Pair, kids, kids),
        _dicts(kids),
    ),
    max_leaves=40,
)


@settings(derandomize=True, max_examples=250, deadline=None)
@given(_values)
@example({1: "a", "1": "b"})
@example({"1": "b", 1: "a"})
@example({"_": {"x": object()}, "e": [], "d": {}, "t": (), "m": Members(), "p": Pair(1, True)})
@example([[1, 2], [True, 3]])
@example({"n": [float("nan"), float("inf"), -float("inf"), 0.5]})
def test_canonical_json_is_the_stdlib_rendering(value):
    assert canonical_json(value) == _stdlib(value)


@pytest.mark.parametrize(
    "value",
    [object(), {"a": object()}, [1, object()], [[1, 2], [3, object()]], Pair(object(), 1)],
    ids=["top", "member", "item", "row", "namedtuple"],
)
def test_canonical_json_rejects_a_leaked_object(value):
    with pytest.raises(TypeError):
        canonical_json(value)


@pytest.mark.parametrize("path", sorted((HERE / "golden").glob("*.json")), ids=lambda p: p.stem)
def test_each_golden_is_in_canonical_form(path):
    text = path.read_text(encoding="utf-8")
    assert canonical_json(json.loads(text)) == text


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--spec", str(HERE / "specs" / "lazy_nat.spec")],
        ["karoubi", "--poset", "chain(4)"],
    ],
    ids=["solve_lazy_nat", "karoubi_chain4"],
)
def test_reports_without_a_golden_match_the_stdlib_rendering(argv, monkeypatch, capsys):
    # equal-width int rows (pi_tables) in the one, bool matrix rows in the other
    reports = []
    write = cli.write_report
    monkeypatch.setattr(cli, "write_report", lambda r, path: reports.append(r) or write(r, path))
    assert cli.main(argv) == 0
    (report,) = reports
    text = capsys.readouterr().out
    assert text == _stdlib(report)
    result = report["result"]
    if "pi_tables" in result:
        assert len(set(map(len, result["pi_tables"]))) == 1
    else:
        assert {type(v) for row in result["cpo"]["order"] for v in row} == {bool}
