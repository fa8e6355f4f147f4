"""Bad values for every numeric CLI flag, run in process through `main`.

Each run must return 0, or return 1 with one `error: <Name>:` line naming
a documented error and leave no file behind; no exception may escape
`main`.  Values argparse's own `type=` rejects (exit 2) are left out.
"""

import argparse
import inspect
import re

import greenray.errors
from greenray.cli import build_parser, main

BAD = ("nan", "inf", "-1", "0")
ERROR_NAMES = {name for name, cls in inspect.getmembers(greenray.errors,
                                                        inspect.isclass)
               if issubclass(cls, greenray.errors.GreenrayError)}
# tiny runs; "{tree}" is a depth-2 tree.json made first
BASE = {
    "green": ["--c", "-1", "--nx", "2", "--ny", "2"],
    "ray": ["--c", "-3", "--angle", "1/3", "--g-lo", "0.1", "--g-hi", "1",
            "--samples", "2"],
    "equipot": ["--c", "-3", "--g", "0.3", "--samples", "3"],
    "tree": ["--c", "-3", "--depth", "2"],
    "collapse": ["--tree", "{tree}"],
    "rectify": ["--source-c=-3", "--target-c=-5", "--samples", "2"],
    "converge": ["--source-c=-3", "--target-c=-5", "--samples", "2",
                 "--n-list", "1,2"],
    "probe": ["--c", "-1", "--z0", "0.3,0.6", "--radii", "0.1",
              "--displacement-points", "1"],
}
# numbers written as text: each template takes the bad value once
TEXT = {
    "--angle": ["{}"],
    "--critical-value-angle": ["{}"],
    "--window": ["{},1,-1,1", "-1,{},-1,1", "-1,1,{},1", "-1,1,-1,{}"],
    "--k": ["scale:{}"],
    "--z0": ["{}", "{},0.6", "0.3,{}"],
    "--radii": ["{}", "0.1,{}"],
    "--n-list": ["{}", "1,{}"],
}
NOT_NUMERIC = {"--output-dir", "--config", "--tree", "--structure", "--d",
               "--emit"}


def _options(parser):
    """The parser's flags that take a value."""
    return [a for a in parser._actions if a.option_strings and a.nargs != 0]


def _parses(cast, text):
    try:
        cast(text)
    except ValueError:
        return False
    return True


def _cases():
    """(argv, flag) of every bad value of every numeric flag."""
    ap = build_parser()
    sub = next(a for a in ap._actions
               if isinstance(a, argparse._SubParsersAction))
    # global flags go before a rectify run, a subcommand's after its own
    commands = [(ap, "rectify", True)]
    commands += [(p, name, False) for name, p in sub.choices.items()]
    out = []
    for parser, command, is_global in commands:
        for action in _options(parser):
            flag = action.option_strings[0]
            if action.type in (int, float):
                values = [v for v in BAD if _parses(action.type, v)]
            else:
                assert flag in TEXT or flag in NOT_NUMERIC, flag
                values = [t.format(v) for t in TEXT.get(flag, ()) for v in BAD]
            for v in values:
                # --flag=value, since a value may start with "-"
                opt = [f"{flag}={v}"]
                run = [command, *BASE[command]]
                out.append((opt + run if is_global else run + opt, flag))
    return out


def test_bad_values_end_in_a_documented_error(tmp_path, capsys):
    assert main(["--output-dir", str(tmp_path / "t"), "tree", "--c", "-3",
                 "--depth", "2"]) == 0
    tree = str(tmp_path / "t" / "tree.json")
    cases = _cases()
    assert {flag for _, flag in cases} >= {"--seed", "--nx", "--angle",
                                           "--m0", "--hausdorff-rays",
                                           "--radii", "--n-list", "--k"}
    faults = []
    for i, (argv, flag) in enumerate(cases):
        argv = [a.format(tree=tree) for a in argv]
        out = tmp_path / f"r{i}"
        capsys.readouterr()
        try:
            code = main(["--output-dir", str(out), *argv])
        except (Exception, SystemExit) as exc:  # noqa: BLE001 - reported
            faults.append((argv, f"raised {type(exc).__name__}: {exc}"))
            continue
        err = capsys.readouterr().err.splitlines()
        if code == 0:
            continue
        named = re.match(r"error: (\w+): ", err[0]) if len(err) == 1 else None
        if code != 1 or named is None or named[1] not in ERROR_NAMES:
            faults.append((argv, f"exit {code}, stderr {err}"))
        elif out.exists() and any(p.is_file() for p in out.rglob("*")):
            faults.append((argv, "exit 1 left " + ", ".join(
                p.name for p in out.rglob("*") if p.is_file())))
    assert faults == []
