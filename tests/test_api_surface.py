"""No API in src/ that only tests use.

Every top-level function and class of irsplan, and every method defined in
a class body, must be referenced somewhere in src/irsplan or perfbench/
outside its own definition: as a name, an attribute, an imported name, or
a string naming it (the benchmark's tracer names its targets that way).
Dunder methods run implicitly and are exempt.  Helpers that only tests
need belong in tests/oracles.py.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "irsplan").glob("*.py"))
USERS = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))


def _definitions(tree: ast.Module):
    """(name, node) of the module's functions, classes and class methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield item.name, item


def _references(tree: ast.Module, skip: ast.AST | None) -> set[str]:
    """Names used in tree outside the subtree skip."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_definition_has_a_caller():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in USERS}
    refs = {path: _references(tree, None) for path, tree in trees.items()}
    unused = []
    for path in SOURCES:
        elsewhere = set().union(*(refs[p] for p in USERS if p != path))
        for name, node in _definitions(trees[path]):
            if name not in elsewhere and name not in _references(trees[path], node):
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, "referenced by nothing in src/ or perfbench/: " + ", ".join(unused)
