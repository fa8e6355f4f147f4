"""Every name a module of the package imports is used in that module,
and no run of the package loads scipy.

Stdlib `ast` stands in for a linter: a name bound by `import` or
`from ... import` counts as used when the module reads it as a name
(attribute access included), or lists it in `__all__`.
"""

import ast
import json
import os
import subprocess
import sys
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


# Run in a fresh interpreter: import the package and the CLI, run CLI
# `tree`, one displacement, one transported boundary distance and CLI
# `probe` (its displacements), then list the scipy modules loaded.
_STARTUP = """
import json, sys
import greenray, greenray.cli
from greenray import (ContinuumMap, GreenSystem, PotentialHomeo,
                      build_quadratic_pair, quasihyperbolic_displacement,
                      transported_boundary_distance)
out = sys.argv[1]
codes = [greenray.cli.main(["--output-dir", out + "/tree", "tree", "--c", "-3",
                            "--depth", "4"]),
         greenray.cli.main(["--output-dir", out + "/probe", "probe", "--c",
                            "-1", "--displacement-points", "2"])]
cm = ContinuumMap(GreenSystem.from_c(-1.0), PotentialHomeo.scaling(1.5))
est = quasihyperbolic_displacement(cm, 1.2 + 0.7j)
hd = transported_boundary_distance(build_quadratic_pair(-3.0, -5.0), 64, 10)
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps([codes, est.estimate > 0.0, hd > 0.0, loaded]))
"""


def test_startup_loads_no_scipy(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _STARTUP, str(tmp_path)],
                         capture_output=True, text=True, env=env,
                         timeout=120, check=True)
    codes, displaced, distance, loaded = json.loads(
        out.stdout.splitlines()[-1])
    assert codes == [0, 0] and (tmp_path / "tree" / "tree.json").exists()
    assert (tmp_path / "probe" / "displacement.csv").exists()
    assert displaced and distance
    assert loaded == []
