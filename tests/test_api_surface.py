"""No API, field or parameter in src/ that only tests use.

Every top-level function and class of irsplan must be referenced somewhere
in src/irsplan or perfbench/ outside its own definition: as a name, an
attribute, an imported name, or a string naming it (the benchmark's tracer
names its targets that way).  A method or property defined in a class body
must be read there as an attribute (obj.name); a string does not count, so
a JSON key cannot hide a dead property.  Dunder methods run implicitly and
are exempt.  Helpers that only tests need belong in tests/oracles.py.

Every dataclass field must be read there too, as an attribute or a string
(dataclasses.fields and getattr reach fields by name).  Names are matched
without their owner, so a field that shares its name with a field read
elsewhere escapes: a CandidateSpot.grid_w would hide behind
cfg.layout.grid_w.  Every parameter with a default must be passed, by
keyword or by position, by some call in src/irsplan or perfbench/; calls
are matched to definitions by the called name alone, and a call with
*args or **kwargs passes every positional or keyword parameter.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "irsplan").glob("*.py"))
USERS = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))


def _definitions(tree: ast.Module):
    """(name, node, is_member) of the module's functions and classes, and
    of the methods and properties of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield item.name, item, True


def _references(tree: ast.Module, skip: ast.AST | None, member: bool) -> set[str]:
    """Names used in tree outside the subtree skip; of a member, only the
    attributes read."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif member:
            pass
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _trees():
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in USERS}


def test_every_definition_has_a_caller():
    trees = _trees()
    refs = {
        (path, member): _references(tree, None, member)
        for path, tree in trees.items()
        for member in (False, True)
    }
    unused = []
    for path in SOURCES:
        for name, node, member in _definitions(trees[path]):
            elsewhere = set().union(*(refs[p, member] for p in USERS if p != path))
            if name not in elsewhere and name not in _references(trees[path], node, member):
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, "referenced by nothing in src/ or perfbench/: " + ", ".join(unused)


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def test_every_dataclass_field_is_read():
    trees = _trees()
    reads = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                reads.add(node.value)
    unread = [
        f"{path.name}:{item.lineno} {node.name}.{item.target.id}"
        for path in SOURCES
        for node in ast.walk(trees[path])
        if isinstance(node, ast.ClassDef) and _is_dataclass(node)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        and item.target.id not in reads
    ]
    assert not unread, "dataclass fields read by nothing: " + ", ".join(unread)


def _defaulted(node: ast.FunctionDef, is_method: bool):
    """(positional index or None, name) of each parameter with a default;
    the index counts from the first argument a call passes."""
    a = node.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    skip = 1 if is_method and positional else 0
    for i, arg in enumerate(positional[first:], first):
        yield i - skip, arg.arg
    for arg, default in zip(a.kwonlyargs, a.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _calls(node: ast.AST, scope, out: dict):
    """Called name -> [(enclosing function, Call node)] under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            name = getattr(child.func, "id", getattr(child.func, "attr", None))
            out.setdefault(name, []).append((scope, child))
        inner = child if isinstance(child, ast.FunctionDef) else scope
        _calls(child, inner, out)
    return out


def _passes(call: ast.Call, index, name: str, dead: set[str]) -> bool:
    """Whether call passes the parameter, with a value other than one of
    the unpassed parameters (dead) of the function it sits in."""
    values = [k.value for k in call.keywords if k.arg in (name, None)]
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred) or i == index:
            values.append(arg)
    return any(not (isinstance(v, ast.Name) and v.id in dead) for v in values)


def test_every_defaulted_parameter_is_passed():
    # A parameter passed only as the value of another unpassed parameter
    # (a default forwarded down a chain of calls) is unpassed too, so
    # iterate to a fixed point.
    trees = _trees()
    calls: dict = {}
    for tree in trees.values():
        _calls(tree, None, calls)
    params = []
    for path in SOURCES:
        tree = trees[path]
        methods = {
            id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for item in node.body
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                for index, name in _defaulted(node, id(node) in methods):
                    params.append((path, node, index, name))
    dead: dict[int, set[str]] = {}
    while True:
        found = {}
        for path, node, index, name in params:
            if not any(
                _passes(call, index, name, dead.get(id(scope), set()))
                for scope, call in calls.get(node.name, [])
            ):
                found.setdefault(id(node), set()).add(name)
        if found == dead:
            break
        dead = found
    unpassed = [
        f"{path.name}:{node.lineno} {node.name}({name}=)"
        for path, node, _, name in params
        if name in dead.get(id(node), set())
    ]
    assert not unpassed, "parameters no call passes: " + ", ".join(unpassed)


def _imported(tree: ast.Module):
    """(line, bound name) of each import statement at module level;
    from __future__ imports bind nothing the module reads."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.partition(".")[0]


def test_every_import_is_used():
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}:{line} {name}" for line, name in _imported(tree) if name not in used
        ]
    assert not unused, "imported and never used: " + ", ".join(unused)
