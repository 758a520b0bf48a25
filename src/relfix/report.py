"""Deterministic JSON report emission.

Reports are plain dicts; this module owns their canonical form, the text
``json.dumps(to_jsonable(report), sort_keys=True, indent=2) + "\n"``:

- underscore-prefixed keys (raw objects kept for callers) are dropped,
  every other key becomes ``str(key)``, and a later key that collides
  with an earlier one after ``str`` wins;
- fractions become strings, tuples lists, numpy bools and integers
  Python ones, and any other type raises TypeError;
- object members are sorted by key; each member or item sits on its own
  line, two spaces deeper than its container's, after ``,`` ending the
  line before; a key is followed by ``": "``; an empty container is
  ``{}`` or ``[]``;
- strings are ASCII-escaped, and the text ends with one newline.

So identical inputs yield byte-identical files.  ``canonical_json``
writes that text in one pass into one list of chunks: json's indenting
encoder is pure Python and would run after a full ``to_jsonable`` copy.
A list of same-typed leaves is one join, and a list of equal-length int
rows (the relation families' pairs, ``pi_tables``) one row template.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import chain

import numpy as np

from .version import __version__


def to_jsonable(obj):
    """Recursively reduce a report value to JSON-ready data.

    Unknown object types raise TypeError: a leaked raw object is a bug in
    report assembly, not something to serialize by repr.
    """
    if isinstance(obj, dict):
        return {
            str(k): to_jsonable(v)
            for k, v in obj.items()
            if not str(k).startswith("_")
        }
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"non-serializable report value of type {type(obj).__name__}")


_str = json.encoder.encode_basestring_ascii
# text of the leaves by exact type (an int subclass such as bool is not int)
_LEAF = {
    int: int.__repr__,
    str: _str,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda v: "null",
}


def _emit(obj, nl: str, out: list) -> None:
    """Append obj's canonical text to out; nl is a newline and the indent
    of obj's line."""
    leaf = _LEAF.get(type(obj))
    if leaf is not None:
        out.append(leaf(obj))
    elif isinstance(obj, dict):
        members = {str(k): v for k, v in obj.items()}
        keys = sorted(k for k in members if not k.startswith("_"))
        if not keys:
            out.append("{}")
            return
        inner, sep = nl + "  ", "{"
        for k in keys:
            out.append(sep + inner + _str(k) + ": ")
            _emit(members[k], inner, out)
            sep = ","
        out.append(nl + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        joined = _joined(obj, inner)
        if joined is not None:
            out += ("[" + inner, joined, nl + "]")
            return
        sep = "["
        for v in obj:
            out.append(sep + inner)
            _emit(v, inner, out)
            sep = ","
        out.append(nl + "]")
    else:
        out.append(json.dumps(to_jsonable(obj)))


def _joined(seq, nl: str) -> str | None:
    """The text of seq's items, one per line indented as nl ends, when they
    are leaves of one type or equal-length rows of plain ints; else None."""
    types = set(map(type, seq))
    if len(types) == 1 and (leaf := _LEAF.get(next(iter(types)))) is not None:
        return ("," + nl).join(map(leaf, seq))
    if not all(issubclass(t, (list, tuple)) for t in types):
        return None
    widths = set(map(len, seq))
    if len(widths) != 1 or 0 in widths or type(seq[0][0]) is not int:
        return None  # rejects a wide bool matrix on its first item, before the scan
    if set(map(type, chain.from_iterable(seq))) != {int}:
        return None
    inner = nl + "  "
    row = "[" + inner + ("," + inner).join(["%d"] * widths.pop()) + nl + "]"
    return ("," + nl).join([row] * len(seq)) % tuple(chain.from_iterable(seq))


def canonical_json(report: dict) -> str:
    """The canonical text of report (see the module docstring)."""
    out = []
    _emit(report, "\n", out)
    out.append("\n")
    return "".join(out)


def spec_sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def make_report(command: str, spec_source: str | None, seed: int | None, result: dict) -> dict:
    return {
        "tool_version": __version__,
        "command": command,
        "spec_sha256": spec_sha256(spec_source) if spec_source is not None else None,
        "seed": seed,
        "result": result,
    }


def write_report(report: dict, path: str | None) -> str:
    """Serialize; write to path when given.  Returns the text either way."""
    text = canonical_json(report)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
