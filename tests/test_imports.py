"""Every name a module of the package imports is used in that module.

Stdlib `ast` stands in for a linter: a name bound by `import` or
`from ... import` counts as used when the module reads it as a name
(attribute access included), or lists it in `__all__`.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "greenray"


def unused_imports(source: str) -> list[str]:
    """Imported names that the module source never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_unused_import_detector():
    source = ("import math\nimport os.path\nfrom a import b, c as d\n"
              "from __future__ import annotations\n"
              "__all__ = ['b']\nx = os.path.join(math.pi)\n")
    assert unused_imports(source) == ["d"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []
