"""Every module-level private name of the package is read somewhere in it.

Stdlib `ast` stands in for a dead-code linter.  A private name is a
module-level `_name` (not a dunder) bound by `def`, `class` or an
assignment.  It counts as read when some module of the package loads it,
as a bare name or as an attribute (`ang._grid_levels`); a store, such as
a rebinding or an assignment to an attribute, does not count.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "greenray"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _defined(tree: ast.Module) -> set[str]:
    """Private names bound at the top level of a module."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)}
    return {n for n in names if _is_private(n)}


def _read(tree: ast.Module) -> set[str]:
    """Names a module loads, bare or as attributes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """`module:name` of each private module-level name no module reads."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    read = set().union(*map(_read, trees.values()))
    return sorted(f"{mod}:{name}" for mod, tree in trees.items()
                  for name in _defined(tree) - read)


def test_dead_private_name_detector():
    sources = {
        "a.py": ("_used = 1\n_dead, _CONST = 2, 3\n__dunder__ = 4\n"
                 "def _f():\n    _local = 5\n    return _used\n"
                 "class _Cls:\n    pass\n_typed: int = 6\n"
                 "def public():\n    return _CONST + b._attr()\n"),
        "b.py": ("from a import _Cls, _typed\n_Cls = 7\n"
                 "public.x = _typed\npublic._stored = 8\n"
                 "_dead = 9\n_stored = 10\ndef _attr():\n    return 0\n"),
    }
    # an import, a rebinding and an attribute store are not reads; _f is
    # never called, and _local is not module-level
    assert dead_private_names(sources) == [
        "a.py:_Cls", "a.py:_dead", "a.py:_f",
        "b.py:_Cls", "b.py:_dead", "b.py:_stored"]


def test_no_dead_private_names():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert dead_private_names(sources) == []


def foreign_private_loads(source: str) -> list[str]:
    """`module:name` of each private name a module loads from another
    module of the package: imported by `from .x import _name`, or read as
    an attribute of a package module bound by `from . import x`."""
    tree = ast.parse(source)
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            found += [f"{node.module}:{a.name}" for a in node.names
                      if _is_private(a.name)]
            if node.module is None:
                modules |= {a.asname or a.name for a in node.names}
    found += [f"{node.value.id}:{node.attr}" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)
              and isinstance(node.value, ast.Name)
              and node.value.id in modules and _is_private(node.attr)]
    return sorted(found)


def test_foreign_private_load_detector():
    source = ("from . import render, angles as ang\n"
              "from .rectify import _kernel, public\n"
              "from .tree import (TreeNode as _TreeNode)\n"
              "def _own():\n    return public(ang._grid, render.svg)\n"
              "x = _own() + obj._field\nang._cache = 1\n")
    # a module's own private names, an attribute of an object and an
    # attribute store are not loads from another module
    assert foreign_private_loads(source) == ["ang:_grid", "rectify:_kernel"]


def test_cli_loads_no_private_names():
    assert foreign_private_loads((PACKAGE / "cli.py").read_text()) == []
