import json

import pytest

import greenray.cli
import greenray.structures
from greenray.cli import main
from greenray.structures import VirtualStructure, serialize_structure
from greenray.tree import deserialize_tree


def run(args):
    return main([str(a) for a in args])


def test_tree_command_counts(tmp_path):
    out = tmp_path / "t"
    assert run(["--output-dir", out, "tree", "--c", "-3", "--depth", "3"]) == 0
    tree = deserialize_tree((out / "tree.json").read_text())
    assert len(tree.nodes) == 15
    thin = json.loads((out / "thinness.json").read_text())
    assert thin["verdict"] == "thin_certified"
    manifest = json.loads((out / "manifest.json").read_text())
    assert {a["path"] for a in manifest["artifacts"]} == \
        {"tree.json", "thinness.json"}


def test_determinism_identical_manifests(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["--output-dir", out, "--seed", "7", "rectify",
                    "--source-c=-3", "--target-c=-5", "--pair-k",
                    "--samples", "16"]) == 0
    ma = json.loads((a / "manifest.json").read_text())
    mb = json.loads((b / "manifest.json").read_text())
    assert ma["artifacts"] == mb["artifacts"]
    assert (a / "rectify_residuals.csv").read_bytes() == \
        (b / "rectify_residuals.csv").read_bytes()


def test_collapse_identity_cli(tmp_path):
    t = tmp_path / "t"
    assert run(["--output-dir", t, "tree", "--c", "-3", "--depth", "3"]) == 0
    s = tmp_path / "id.json"
    s.write_text(serialize_structure(VirtualStructure.identity()))
    out = tmp_path / "c"
    assert run(["--output-dir", out, "collapse", "--tree", t / "tree.json",
                "--structure", s, "--m0", "0.03"]) == 0
    before = deserialize_tree((t / "tree.json").read_text())
    after = deserialize_tree((out / "collapsed.json").read_text())
    assert len(after.nodes) == len(before.nodes)
    mods_b = sorted(n.modulus for n in before.nodes.values() if not n.is_root)
    mods_a = sorted(n.modulus for n in after.nodes.values() if not n.is_root)
    assert mods_a == mods_b
    adm = json.loads((out / "admissibility.json").read_text())
    assert adm["verdict"] == "admissible_certified"


def test_collapse_certifies_once(tmp_path, capsys, monkeypatch):
    t = tmp_path / "t"
    assert run(["--output-dir", t, "tree", "--c", "-3", "--depth", "3"]) == 0
    calls = []
    admissible = greenray.structures.admissible

    def counted(*args):
        calls.append(args)
        return admissible(*args)

    monkeypatch.setattr(greenray.cli, "admissible", counted)
    monkeypatch.setattr(greenray.structures, "admissible", counted)
    out = tmp_path / "c"
    assert run(["--output-dir", out, "collapse", "--tree", t / "tree.json",
                "--m0", "0.03"]) == 0
    assert len(calls) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert {a["path"] for a in manifest["artifacts"]} == \
        {"collapsed.json", "admissibility.json"}

    calls.clear()
    bad = tmp_path / "bad"
    assert run(["--output-dir", bad, "collapse", "--tree", t / "tree.json",
                "--m0", "5"]) == 1
    assert len(calls) == 1
    assert capsys.readouterr().err.startswith(
        "error: NotAdmissible: structure not certified admissible at m0=5.0:")
    assert list(bad.iterdir()) == []


def test_rectify_identity_residuals(tmp_path):
    out = tmp_path / "r"
    assert run(["--output-dir", out, "rectify", "--source-c=-3",
                "--target-c=-3", "--k=id", "--d=id", "--samples=100"]) == 0
    summary = json.loads((out / "rectify_summary.json").read_text())
    # identity transport keeps every residual within 10 tol
    assert summary["max_potential_residual"] <= 10.0 * 1e-9
    assert summary["max_angle_residual"] <= 10.0 * 1e-9
    rows = (out / "rectify_residuals.csv").read_text().strip().split("\n")
    assert len(rows) == 101


def test_tree_skeleton_csv(tmp_path):
    out = tmp_path / "sk"
    assert run(["--output-dir", out, "tree", "--c", "-3", "--depth", "2",
                "--skeleton", "1"]) == 0
    rows = (out / "skeleton.csv").read_text().strip().split("\n")
    assert rows[0] == "re,im,potential,angle"
    assert len(rows) > 3


@pytest.mark.parametrize("flag, value", [("--depth", 300), ("--skeleton", 300)])
def test_tree_caps_reject_before_work(tmp_path, capsys, monkeypatch, flag,
                                      value):
    def no_work(*args, **kwargs):
        raise AssertionError("oversized run started")

    monkeypatch.setattr(greenray.cli, "GreenSystem", None)
    monkeypatch.setattr(greenray.cli, "build_quadratic_tree", no_work)
    monkeypatch.setattr(greenray.cli, "skeleton", no_work)
    args = {"--depth": 3, "--skeleton": 0, flag: value}
    out = tmp_path / "x"
    code = run(["--output-dir", out, "tree", "--c", "-3",
                *(str(a) for kv in args.items() for a in kv)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: InvalidInput: {flag} {value} exceeds the cap")
    assert list(out.iterdir()) == []


def test_ray_crash_maps_to_error_name(tmp_path, capsys):
    code = run(["--output-dir", tmp_path / "x", "ray", "--c", "-3",
                "--angle", "1/4", "--g-lo", "0.05", "--g-hi", "1.0",
                "--samples", "8"])
    assert code == 1
    assert "RayCrash" in capsys.readouterr().err


def test_ray_above_potential_cap_writes_nothing(tmp_path, capsys):
    # past potential ~709 the far point overflows to NaN
    out = tmp_path / "x"
    code = run(["--output-dir", out, "ray", "--c", "-3", "--angle", "0.1",
                "--g-lo", "1", "--g-hi", "800", "--samples", "3"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: InvalidInput:")
    assert not (out / "ray.csv").exists()


def test_critical_level_maps_to_error_name(tmp_path, capsys):
    # equipotential exactly at G(0) is not Jordan
    from greenray.potential import GreenSystem, critical_potential
    g0 = critical_potential(GreenSystem.from_c(-3.0))
    code = run(["--output-dir", tmp_path / "x", "equipot", "--c", "-3",
                "--g", repr(g0), "--samples", "16"])
    assert code == 1
    assert "CriticalLevel" in capsys.readouterr().err


def test_config_file(tmp_path):
    cfg = tmp_path / "sys.cfg"
    cfg.write_text("# system\nc_re = -3.0\nc_im = 0.0\ntol = 1e-10\n")
    out = tmp_path / "g"
    assert run(["--output-dir", out, "--config", cfg, "green",
                "--window=-1,1,-1,1", "--nx", "4", "--ny", "4"]) == 0
    rows = (out / "green.csv").read_text().strip().split("\n")
    assert len(rows) == 17


def test_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("c_re -3\n")
    code = run(["--output-dir", tmp_path / "x", "--config", cfg, "green"])
    assert code == 1
    assert "ConfigError" in capsys.readouterr().err


@pytest.mark.parametrize("args, name", [
    (["green", "--c", "-3", "--escape-radius", "1"], "InvalidInput"),
    (["green", "--c", "-3", "--window", "1,2"], "ConfigError"),
    (["ray", "--c", "-3", "--angle", "1/3", "--g-lo", "0.5", "--g-hi", "0.1"],
     "InvalidInput"),
    (["tree", "--c", "-3", "--depth", "0"], "InvalidInput"),
    (["green", "--c", "1e200"], "InvalidInput"),
    (["ray", "--c", "-3", "--angle", "abc", "--g-lo", "0.1", "--g-hi", "1"],
     "ConfigError"),
    (["tree", "--c", "-3", "--depth", "2", "--critical-value-angle", "1/0"],
     "ConfigError"),
    (["converge", "--source-c=-3", "--target-c=-5", "--n-list", "1,2.5"],
     "ConfigError"),
    (["probe", "--c", "-1", "--radii", "0.1,x"], "ConfigError"),
    (["probe", "--c", "-1", "--z0", "1,0,2"], "ConfigError"),
    (["tree", "--c", "-3", "--depth", "2", "--skeleton", "-1"], "InvalidInput"),
], ids=["escape_radius", "window", "g_range", "depth", "huge_c",
        "angle", "critical_value_angle", "n_list", "radii", "z0",
        "skeleton_depth"])
def test_invalid_input_maps_to_error_name(tmp_path, capsys, args, name):
    assert run(["--output-dir", tmp_path / "x", *args]) == 1
    assert capsys.readouterr().err.startswith(f"error: {name}:")


def test_converge_command(tmp_path):
    out = tmp_path / "cv"
    assert run(["--output-dir", out, "converge", "--source-c=-3",
                "--target-c=-5", "--d", "id", "--k", "id",
                "--n-list", "1,2", "--samples", "6"]) == 0
    rows = (out / "converge.csv").read_text().strip().split("\n")
    assert rows[0] == "n,sup_distance,dropped_samples"
    assert len(rows) == 3


def test_probe_command(tmp_path):
    out = tmp_path / "p"
    assert run(["--output-dir", out, "probe", "--c", "0", "--k", "scale:1.5",
                "--z0", "1.0,0.0", "--radii", "0.01,0.001",
                "--probe-g", "0.05", "--displacement-points", "3"]) == 0
    assert (out / "probe_quotients.csv").exists()
    assert (out / "displacement.csv").exists()


def test_svg_outputs(tmp_path):
    out = tmp_path / "s"
    assert run(["--output-dir", out, "tree", "--c", "-3", "--depth", "3",
                "--svg"]) == 0
    svg = (out / "tree.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    out2 = tmp_path / "e"
    assert run(["--output-dir", out2, "equipot", "--c", "-3", "--g", "0.3",
                "--samples", "24", "--svg"]) == 0
    assert (out2 / "equipot.svg").exists()
