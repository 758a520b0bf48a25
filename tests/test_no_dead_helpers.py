"""Every name is declared once, where it is defined, and is there for a
caller.  No private helper without a caller: every function, method or
class in src/relfix whose name has one leading underscore is referenced
somewhere in the package outside its own definition.  References from
tests or from the benchmark do not count, since they do not make a helper
part of the program.  No public name without a caller: every module-level
public function or class, and every public method or property of a class,
is referenced in the package outside its own definition, or README.md
names it in backquotes with the reason it stays.  And no second
declaration: importing the package binds only its version and loads no
other module, so each name is imported from the module that defines it."""

from __future__ import annotations

import ast
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

from relfix.version import __version__

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "relfix"
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


def _trees() -> dict[str, ast.Module]:
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }


def test_every_private_helper_is_referenced_outside_its_definition():
    trees = _trees()
    everywhere = Counter(n for tree in trees.values() for n in _referenced_names(tree))
    dead = []
    for file, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, DEFS) and PRIVATE.fullmatch(node.name):
                inside = _referenced_names(node).count(node.name)
                if everywhere[node.name] == inside:
                    dead.append(f"{file}:{node.lineno} {node.name}")
    assert dead == []


def _public_defs(tree: ast.Module):
    """Module-level public functions and classes, and the public methods and
    properties of those classes."""
    for node in tree.body:
        if isinstance(node, DEFS) and not node.name.startswith("_"):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (
                    m for m in node.body if isinstance(m, DEFS) and not m.name.startswith("_")
                )


def test_every_public_name_is_referenced_or_named_in_the_readme():
    trees = _trees()
    everywhere = Counter(n for tree in trees.values() for n in _referenced_names(tree))
    readme = set(re.findall(r"`(\w+)`", (ROOT / "README.md").read_text(encoding="utf-8")))
    unused = [
        f"{file}:{node.lineno} {node.name}"
        for file, tree in trees.items()
        for node in _public_defs(tree)
        if everywhere[node.name] == _referenced_names(node).count(node.name)
        and node.name not in readme
    ]
    assert unused == []


def test_importing_the_package_loads_and_binds_only_the_version():
    # a fresh interpreter, since the test runner has the package's modules
    # loaded; `version` is the submodule that binding __version__ imports
    code = (
        "import sys\n"
        "import relfix\n"
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('relfix.')),\n"
        "      sorted(n for n in vars(relfix) if not n.startswith('_')), relfix.__version__)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"['relfix.version'] ['version'] {__version__}\n"
