"""No private helper without a caller: every function, method or class in
src/relfix whose name has one leading underscore is referenced somewhere in
the package outside its own definition.  References from tests or from the
benchmark do not count, since they do not make a helper part of the
program."""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "relfix"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
PRIVATE = re.compile(r"_[^_].*")


def _referenced_names(node: ast.AST) -> list[str]:
    """Every name read in node's subtree, as a bare name or an attribute."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
    return out


def test_every_private_helper_is_referenced_outside_its_definition():
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }
    everywhere = Counter(n for tree in trees.values() for n in _referenced_names(tree))
    dead = []
    for file, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, DEFS) and PRIVATE.fullmatch(node.name):
                inside = _referenced_names(node).count(node.name)
                if everywhere[node.name] == inside:
                    dead.append(f"{file}:{node.lineno} {node.name}")
    assert dead == []
