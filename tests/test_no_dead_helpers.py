"""No private helper without a caller: every function, method or class in
src/relfix whose name has one leading underscore is referenced somewhere in
the package outside its own definition.  References from tests or from the
benchmark do not count, since they do not make a helper part of the
program.  And no stale export: every name a module's __all__ lists is
bound in that module, since nothing star-imports these modules and a
deleted name would otherwise stay listed unnoticed.  And no public name
without a caller: every module-level public function or class is
referenced in the package outside its own definition, its module's
__all__ and __init__.py, or README.md names it in backquotes with the
reason it stays."""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

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


def _module_bindings(tree: ast.Module) -> tuple[set[str], list[str]]:
    """(names bound at module level, the names __all__ lists)."""
    bound: set[str] = set()
    exported: list[str] = []
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, DEFS):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                bound.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
                if isinstance(target, ast.Name) and target.id == "__all__":
                    exported = [ast.literal_eval(e) for e in node.value.elts]
        else:
            # module-level blocks (if, try, ...) bind names too
            todo.extend(n for n in ast.iter_child_nodes(node) if isinstance(n, ast.stmt))
    return bound, exported


def test_every_name_in_all_is_bound_in_its_module():
    unbound = []
    for path in sorted(SRC.glob("*.py")):
        bound, exported = _module_bindings(ast.parse(path.read_text(encoding="utf-8")))
        unbound += [f"{path.name} {name}" for name in exported if name not in bound]
    assert unbound == []


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


def test_every_public_name_is_referenced_or_named_in_the_readme():
    # __all__ lists strings and __init__.py only re-exports, so neither
    # counts as a reference
    trees = _trees()
    del trees["__init__.py"]
    everywhere = Counter(n for tree in trees.values() for n in _referenced_names(tree))
    readme = set(re.findall(r"`(\w+)`", (ROOT / "README.md").read_text(encoding="utf-8")))
    unused = [
        f"{file}:{node.lineno} {node.name}"
        for file, tree in trees.items()
        for node in tree.body
        if isinstance(node, DEFS) and not node.name.startswith("_")
        and everywhere[node.name] == _referenced_names(node).count(node.name)
        and node.name not in readme
    ]
    assert unused == []
