"""Mutation check of greenray's guards: does some tier-1 test catch each one?

Each mutant is a triple (file, exact text, replacement) that breaks one
guard.  The runner copies the repository to a temporary directory,
applies one mutant there, and runs tier-1 with `-x`.  The repository
itself is never edited.  Tier-1 must first pass on an unmutated copy, or
the run stops.  A mutant is killed when the run fails and its first failing
test passes again once the mutant is undone; a run that fails for another
reason (a runtime budget overrun, say) reads "unclear", not killed.
Mutant runs leave out the static dead-name test (`STATIC`), which a mutant
can fail by leaving a private name unread: a kill names a behaviour test.
SIGTERM ends a run as an exit does, so its temporary copy is removed.

    python tools/mutants.py              # every mutant, then a table
    python tools/mutants.py --check      # each text occurs once; no tests

A full run makes one tier-1 run per mutant (tens of seconds each); `--check`
is instant and keeps the table from going stale when the code changes.
Standard library only.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# what the copy leaves out: version control and run leftovers
SKIP = (".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_out",
        ".bench_build", ".benchmarks", "out")
# a static test that fails on the code's text, not on what it does
STATIC = "tests/test_private_names.py::test_no_dead_private_names"


class Mutant(NamedTuple):
    name: str
    path: str
    text: str
    replacement: str


POT = "src/greenray/potential.py"
RECT = "src/greenray/rectify.py"
TREE = "src/greenray/tree.py"

MUTANTS = (
    # the non-real argument lift is certified only while |c/z^2| < 1/2
    Mutant("same_side_domain_0.9", POT,
           "    if abs(c / (z * z)) >= 0.5:",
           "    if abs(c / (z * z)) >= 0.9:"),
    # a crashed target descent is retried on the rays +-2^-45 away
    Mutant("transport_no_retry", RECT,
           "    for t in (theta, (theta + 2.0 ** -45) % 1.0, "
           "(theta - 2.0 ** -45) % 1.0):",
           "    for t in (theta,):"),
    # a target level whose batch descent raises is redone ray by ray
    Mutant("transport_level_no_redo", RECT,
           "        except GreenrayError:\n            ws = [_target_point(",
           "        except ():\n            ws = [_target_point("),
    # a descent through a precritical point is RayCrash
    Mutant("precritical_guard_off", POT,
           "    guard = 1e-12 * max(1.0, abs(c))",
           "    guard = 0.0 * max(1.0, abs(c))"),
    # ... also on the one-ray, one-target point step
    Mutant("point_precritical_guard_off", POT,
           "    near = np.abs(dzs) <= guard",
           "    near = np.abs(dzs) < 0.0"),
    # a float batch keeps `_ray_angle` wherever a ray may crash
    Mutant("float_screen_off", POT,
           "    return None if crash.any() else t",
           "    return t"),
    # a target exactly at an access's crash potential is RayCrash
    Mutant("crash_potential_off", POT,
           "    at_crash = any(abs(g - gp) <= sys.tol for g in targets)",
           "    at_crash = False"),
    # angles within guard distance of a skeleton arc are OnSkeleton
    Mutant("on_skeleton_off", POT,
           "    if _near_skeleton(sys, theta, g, 10.0 * sys.tol):",
           "    if False:"),
    # a Cantor real c > 1/4 sits on the periodic ray 0 and is refused
    Mutant("real_c_above_quarter", POT,
           "        if g0 > 0.0 and c.imag == 0.0 and c.real > 0.25:",
           "        if False:"),
    # the decoder: one outer access of each node is its window's seam
    Mutant("decoder_seam_off", TREE,
           "                ang.entering_access(n.windows, n.outer_accesses)",
           "                pass"),
    # the decoder: a child's outer accesses are its parent's inner ones
    Mutant("decoder_glue_off", TREE,
           "            if child.outer_accesses != n.inner_accesses:",
           "            if False:"),
    # `_cloud_distances`: relative pad on every computed bound
    Mutant("cloud_pad_off", RECT,
           "_PAD = 1.0 + 2.0 ** -20 ",
           "_PAD = 1.0 "),
    # `_cloud_distances`: absolute pad for squares that underflow
    Mutant("cloud_tiny_off", RECT,
           "_TINY = 2.0 ** -500 ",
           "_TINY = 0.0 "),
)


def check_texts() -> list[str]:
    """One line per mutant whose text does not occur exactly once."""
    bad = []
    for m in MUTANTS:
        n = (ROOT / m.path).read_text(encoding="utf-8").count(m.text)
        if n != 1:
            bad.append(f"{m.name}: {m.text.strip()!r} occurs {n} times "
                       f"in {m.path}")
    return bad


def copy_repo(tmp: str) -> Path:
    """A copy of the repository under `tmp`, without `SKIP`."""
    repo = Path(tmp) / "repo"
    shutil.copytree(ROOT, repo, ignore=shutil.ignore_patterns(*SKIP))
    return repo


def pytest(repo: Path, *args: str) -> tuple[bool, str]:
    """(passed, the first failing test or '') of tier-1 in `repo`, with
    extra pytest `args` (test ids, `--deselect`)."""
    env = dict(os.environ, PYTHONPATH=str(repo / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p",
         "no:cacheprovider", "--continue-on-collection-errors", *args],
        cwd=repo, env=env, capture_output=True, text=True)
    first = next((line.split(" ", 1)[1].split(" - ")[0]
                  for line in proc.stdout.splitlines()
                  if line.startswith(("FAILED ", "ERROR "))), "")
    return proc.returncode == 0, first


def run_one(m: Mutant) -> tuple[str, str, float]:
    """(result, the first failing test or '', seconds) for one mutant."""
    with tempfile.TemporaryDirectory(prefix="greenray-mutant-") as tmp:
        repo = copy_repo(tmp)
        target = repo / m.path
        text = target.read_text(encoding="utf-8")
        target.write_text(text.replace(m.text, m.replacement, 1),
                          encoding="utf-8")
        t0 = time.perf_counter()
        passed, first = pytest(repo, "--deselect", STATIC)
        secs = time.perf_counter() - t0
        if passed:
            return "SURVIVED", "", secs
        # the failure is the mutant's only if undoing it mends that test
        target.write_text(text, encoding="utf-8")
        killed = bool(first) and pytest(repo, first)[0]
        return "killed" if killed else "unclear", first, secs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--check", action="store_true",
                    help="only check that each mutant's text occurs once")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    bad = check_texts()
    for line in bad:
        print(line, file=sys.stderr)
    if bad or args.check:
        if not bad:
            print(f"{len(MUTANTS)} mutants, each text found once")
        return 1 if bad else 0
    with tempfile.TemporaryDirectory(prefix="greenray-mutant-") as tmp:
        passed, first = pytest(copy_repo(tmp))
    if not passed:
        print(f"tier-1 fails without a mutant ({first or 'no test named'}); "
              "no mutant run", file=sys.stderr)
        return 1
    print("| mutant | file | result | first failing test | s |")
    print("|---|---|---|---|---|")
    not_killed = 0
    for m in MUTANTS:
        result, first, secs = run_one(m)
        not_killed += result != "killed"
        print(f"| `{m.name}` | `{m.path}` | {result} | "
              f"{f'`{first}`' if first else ''} | {secs:.0f} |", flush=True)
    return 1 if not_killed else 0


if __name__ == "__main__":
    sys.exit(main())
