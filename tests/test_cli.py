import json
from fractions import Fraction
from hashlib import sha256

import numpy as np
import pytest

import greenray.cli
import greenray.render
import greenray.rectify
import greenray.structures
from greenray.angles import circ_dist
from greenray.cli import main
from greenray.potential import (GreenSystem, critical_potential, escape_green,
                                invert_green_coords, julia_samples,
                                log_bottcher)
from greenray.rectify import (TransportMap, build_quadratic_pair,
                              transport_exterior, transport_with_residuals,
                              transported_boundary_distance)
from greenray.structures import (CircleCDF, PotentialHomeo, VirtualStructure,
                                 deserialize_structure, serialize_structure)
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


@pytest.mark.parametrize("value", [None, [5, 4]], ids=["null", "above_one"])
def test_collapse_cli_rejects_bad_access_angle(tmp_path, capsys, value):
    # null decodes as inf and made collapse fail in float(Fraction) with an
    # OverflowError traceback; 5/4 was accepted and collapsed
    out = tmp_path / "t"
    assert run(["--output-dir", out, "tree", "--c", "-3",
                "--depth", "3"]) == 0
    doc = json.loads((out / "tree.json").read_text())
    doc["nodes"][5]["outer_accesses"][1] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["--output-dir", tmp_path / "c", "collapse", "--tree", bad]) == 1
    assert capsys.readouterr().err.startswith(
        "error: SchemaError: bad access angle in outer")


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
    # one batched escape call gives each point's scalar potential bit for bit
    sys_ = GreenSystem.from_c(-3.0)
    for row in rows[1:]:
        re, im, g, _ = map(float, row.split(","))
        assert escape_green(sys_, complex(re, im))[0] == g


def no_work(*args, **kwargs):
    raise AssertionError("a rejected run started")


@pytest.mark.parametrize("flag, value", [("--depth", 300), ("--skeleton", 300),
                                         ("--depth", 0), ("--skeleton", -1)])
def test_tree_caps_reject_before_work(tmp_path, capsys, monkeypatch, flag,
                                      value):
    monkeypatch.setattr(greenray.cli, "GreenSystem", None)
    monkeypatch.setattr(greenray.cli, "build_quadratic_tree", no_work)
    monkeypatch.setattr(greenray.cli, "skeleton", no_work)
    args = {"--depth": 3, "--skeleton": 0, flag: value}
    out = tmp_path / "x"
    code = run(["--output-dir", out, "tree", "--c", "-3",
                *(str(a) for kv in args.items() for a in kv)])
    assert code == 1
    err = capsys.readouterr().err
    low, cap = (1, greenray.cli.MAX_TREE_DEPTH) if flag == "--depth" else \
        (0, greenray.cli.MAX_SKELETON_DEPTH)
    assert err.startswith(f"error: InvalidInput: {flag} {value} is outside "
                          f"[{low}, {cap}]")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("flag, value", [("--nx", 513), ("--ny", 100000),
                                         ("--nx", 0)])
def test_green_grid_caps_reject_before_work(tmp_path, capsys, monkeypatch,
                                            flag, value):
    monkeypatch.setattr(greenray.cli, "GreenSystem", None)
    monkeypatch.setattr(greenray.cli, "escape_green_bulk", no_work)
    out = tmp_path / "x"
    assert run(["--output-dir", out, "green", "--c", "-1",
                flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: InvalidInput: {flag} {value} is outside "
                          f"[1, {greenray.cli.MAX_GRID_SIDE}]")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("argv, flag", [
    (["rectify", "--source-c=-3", "--target-c=-5"], "--samples"),
    (["converge", "--source-c=-3", "--target-c=-5"], "--samples"),
    (["probe", "--c", "-1"], "--displacement-points"),
], ids=["rectify", "converge", "probe"])
@pytest.mark.parametrize("value", [-3, 0, greenray.cli.MAX_SAMPLES + 1])
def test_sample_counts_reject_before_work(tmp_path, capsys, monkeypatch, argv,
                                          flag, value):
    monkeypatch.setattr(greenray.cli, "GreenSystem", None)
    for name in ("build_quadratic_pair", "TransportMap", "convergence_study",
                 "ContinuumMap", "julia_samples", "_build_system"):
        monkeypatch.setattr(greenray.cli, name, no_work)
    out = tmp_path / "x"
    assert run(["--output-dir", out, *argv, flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: InvalidInput: {flag} {value} is outside "
                          f"[1, {greenray.cli.MAX_SAMPLES}]")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("argv, low", [
    (["ray", "--c", "-3", "--angle", "1/3", "--g-lo", "0.05", "--g-hi", "1"],
     2),
    (["equipot", "--c", "-3", "--g", "0.3"], 3),
], ids=["ray", "equipot"])
@pytest.mark.parametrize("above", [False, True])
def test_curve_samples_reject_before_work(tmp_path, capsys, monkeypatch,
                                          argv, low, above):
    monkeypatch.setattr(greenray.cli, "_build_system", no_work)
    value = greenray.cli.MAX_SAMPLES + 1 if above else low - 1
    out = tmp_path / "x"
    assert run(["--output-dir", out, *argv, "--samples", value]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: InvalidInput: --samples {value} is "
                          f"outside [{low}, {greenray.cli.MAX_SAMPLES}]")
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
    g0 = critical_potential(GreenSystem.from_c(-3.0))
    code = run(["--output-dir", tmp_path / "x", "equipot", "--c", "-3",
                "--g", repr(g0), "--samples", "16"])
    assert code == 1
    assert "CriticalLevel" in capsys.readouterr().err


@pytest.mark.parametrize("emit", ["bogus", "csv,bogus", "csv,"])
def test_rectify_emit_rejects_unknown_kind(tmp_path, capsys, monkeypatch,
                                           emit):
    monkeypatch.setattr(greenray.cli, "GreenSystem", None)
    for name in ("build_quadratic_pair", "TransportMap",
                 "_structure_from_args"):
        monkeypatch.setattr(greenray.cli, name, no_work)
    out = tmp_path / "x"
    assert run(["--output-dir", out, "rectify", "--source-c=-3",
                "--target-c=-5", "--samples", "3", "--emit", emit]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: ConfigError: cannot parse --emit value {emit!r}")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("value", ["0", "-1", "301", "nan", "inf"])
def test_probe_g_rejects_before_work(tmp_path, capsys, monkeypatch, value):
    # a bad --probe-g used to fail after probe_quotients.csv was written
    monkeypatch.setattr(greenray.cli, "_build_system", no_work)
    out = tmp_path / "x"
    assert run(["--output-dir", out, "probe", "--c", "-1", "--probe-g", value,
                "--displacement-points", "1"]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: InvalidInput: --probe-g {float(value)} is outside (0, 300.0]")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("args, name", [
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
], ids=["window", "g_range", "depth", "huge_c",
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


def test_rectify_without_hausdorff_rays_writes_nothing(tmp_path, capsys):
    out = tmp_path / "x"
    assert run(["--output-dir", out, "rectify", "--source-c=-3",
                "--target-c=-5", "--samples", "2", "--hausdorff",
                "--hausdorff-rays", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: InvalidInput: --hausdorff-rays 0 is outside "
                          f"[1, {greenray.cli.MAX_SAMPLES}]")
    assert list(out.iterdir()) == []


def test_probe_builds_cloud_once(tmp_path, monkeypatch):
    depths = []

    def counted(sys_, depth=14):
        depths.append(depth)
        return julia_samples(sys_, depth)

    monkeypatch.setattr(greenray.cli, "julia_samples", counted)
    monkeypatch.setattr(greenray.rectify, "julia_samples", counted)
    assert run(["--output-dir", tmp_path / "p", "probe", "--c", "-1",
                "--radii", "0.1", "--displacement-points", "4"]) == 0
    assert depths == [14]


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


# sha256 of the artifact, taken with the scalar escape loop and per-sample
# transport; the batched paths must reproduce every byte
@pytest.mark.parametrize("argv, digest", [
    (["--c", "-1", "--window=-2,2,-1.5,1.5", "--nx", "40", "--ny", "30"],
     "e99183e5e377c09ddeba3fb0bca54aca29679250fae9e4cdbe8e901570b1aeca"),
    (["--c", "-3", "--window=-2.5,2.5,-1,1", "--nx", "33", "--ny", "17"],
     "1ae9e99300bf06c0508e2dec2a4303b17784c30680f39f2fb2f91fe1b9de8efe"),
    # a non-real c near the rabbit; the small budget leaves escapes whose
    # tail bound is still above tol
    (["--c", "-0.12", "--c-im", "0.75", "--max-iter", "12",
      "--window=-1.5,1.5,-1.2,1.2", "--nx", "37", "--ny", "29"],
     "2e4968901d37f60834b7fe10594e0277cdc2facc448860272baf5a84efed75d9"),
], ids=["c_m1", "c_m3", "c_rabbit_config"])
def test_green_csv_pinned(tmp_path, argv, digest):
    out = tmp_path / "g"
    assert run(["--output-dir", out, "green", *argv]) == 0
    assert sha256((out / "green.csv").read_bytes()).hexdigest() == digest


def test_manifest_records_every_system_parameter(tmp_path):
    # a system read from a key=value file left its values out of the
    # manifest: runs at two c wrote the same config
    configs = []
    for max_iter in ([], ["--max-iter", "12"]):
        out = tmp_path / str(len(configs))
        assert run(["--output-dir", out, "green", "--c", "-3", "--nx", "2",
                    "--ny", "2", *max_iter]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        del config["output_dir"]
        configs.append(config)
    assert {k: configs[0][k] for k in ("c", "c_im", "max_iter", "tol")} == \
        {"c": -3.0, "c_im": 0.0, "max_iter": 256, "tol": 1e-09}
    assert configs[1] == {**configs[0], "max_iter": 12}


@pytest.mark.parametrize("argv", [
    ["--config=sys.cfg", "green", "--c", "-3"],
    ["green", "--nx", "2", "--ny", "2"],
], ids=["config_flag", "no_c"])
def test_system_comes_from_flags_alone(tmp_path, argv):
    # a system is set by its flags: no config file, and --c is required
    out = tmp_path / "x"
    with pytest.raises(SystemExit) as exc:
        run(["--output-dir", out, *argv])
    assert exc.value.code == 2
    assert not out.exists()


def _flat_structure():
    """Three flats of 1/512 in d and a k with a kink."""
    flat = Fraction(1, 512)
    d = CircleCDF((
        (Fraction(0), 0.0),
        (Fraction(1, 5), 0.21), (Fraction(1, 5) + flat, 0.21),
        (Fraction(1, 2), 0.52), (Fraction(1, 2) + flat, 0.52),
        (Fraction(4, 5), 0.83), (Fraction(4, 5) + flat, 0.83),
        (Fraction(1), 1.0)))
    k = PotentialHomeo(((0.0, 0.0), (0.4, 0.6), (1.0, 1.1)))
    return VirtualStructure(d, k)


# the README `converge` line, with the identity structure the README test
# writes to st.json and with a structure whose sups are not 0
@pytest.mark.parametrize("structure, digest", [
    (VirtualStructure.identity,
     "e08a7c8ecc61296471b341f10fa0aeecb16ec071617dc80d43a31ea04f5414ff"),
    (_flat_structure,
     "3f4937f10552108f0844b07fd3507463572a20119e0de376c9bd8151fe3d880c"),
], ids=["identity", "flats"])
def test_converge_csv_pinned(tmp_path, structure, digest):
    st = tmp_path / "st.json"
    st.write_text(serialize_structure(structure()))
    out = tmp_path / "cv"
    assert run(["--output-dir", out, "converge", "--source-c=0",
                "--target-c=0", "--structure", st,
                "--n-list", "1,2,4,8,16,32,64"]) == 0
    assert sha256((out / "converge.csv").read_bytes()).hexdigest() == digest


# sha256 of `tree --c -3 --depth 6 --skeleton 4`'s skeleton.csv, taken
# with one descent per arc and side; the same bytes with every SIMD target
# off.  (The README `equipot` line's equipot.csv is not pinned: its bytes
# change with the SIMD targets.)
def test_skeleton_csv_pinned(tmp_path):
    out = tmp_path / "t"
    assert run(["--output-dir", out, "tree", "--c", "-3", "--depth", "6",
                "--skeleton", "4"]) == 0
    assert sha256((out / "skeleton.csv").read_bytes()).hexdigest() == \
        "791491b7790c0608054afdbe7100e63c2ae36c127b58af5b17462d2f0ea92517"


def assert_rejected(code, capsys, name, out):
    """Exit 1, one `error: <name>:` line, and no file written."""
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {name}:"), err
    assert not out.exists() or list(out.iterdir()) == []
    return err[0]


@pytest.mark.parametrize("argv", [
    ["ray", "--c", "-1", "--angle", "nan", "--g-lo", "0.1", "--g-hi", "1"],
    ["ray", "--c", "-1", "--angle", "inf", "--g-lo", "0.1", "--g-hi", "1"],
    ["probe", "--c", "-1", "--z0", "0.3,0.6", "--radii", "0",
     "--displacement-points", "1"],
    ["probe", "--c", "-1", "--z0", "0.3,0.6", "--radii=-0.1",
     "--displacement-points", "1"],
    ["--seed", "-1", "rectify", "--source-c=-3", "--target-c=-5",
     "--samples", "2"],
], ids=["angle_nan", "angle_inf", "radius_0", "radius_negative",
        "seed_negative"])
def test_bad_values_end_in_invalid_input(tmp_path, capsys, argv):
    # each ended in a traceback, or (radius -0.1) wrote rows with exit 0
    out = tmp_path / "x"
    assert_rejected(run(["--output-dir", out, *argv]), capsys, "InvalidInput",
                    out)


@pytest.mark.parametrize("argv, flag", [
    (["tree", "--c", "-3", "--depth", "3", "--m0", "0"], "--m0"),
    (["tree", "--c", "-3", "--depth", "3", "--m0", "-1"], "--m0"),
    (["tree", "--c", "-3", "--depth", "3", "--m0=-inf"], "--m0"),
    (["tree", "--c", "-3", "--depth", "3", "--m0", "nan"], "--m0"),
    (["converge", "--source-c=-3", "--target-c=-5", "--n-list", "1,0"],
     "--n-list"),
    (["rectify", "--source-c=-3", "--target-c=-5", "--hausdorff",
      "--hausdorff-rays", greenray.cli.MAX_SAMPLES + 1], "--hausdorff-rays"),
], ids=["m0_zero", "m0_negative", "m0_minus_inf", "m0_nan", "n_list_zero",
        "hausdorff_rays_cap"])
def test_late_values_reject_before_work(tmp_path, capsys, monkeypatch, argv,
                                        flag):
    # tree --m0 left tree.json behind; --n-list 0 failed after the
    # transports; --hausdorff-rays had no cap
    monkeypatch.setattr(greenray.cli, "GreenSystem", None)
    for name in ("_build_system", "build_quadratic_pair", "TransportMap",
                 "convergence_study", "transported_boundary_distance"):
        monkeypatch.setattr(greenray.cli, name, no_work)
    out = tmp_path / "x"
    err = assert_rejected(run(["--output-dir", out, *argv]), capsys,
                          "InvalidInput", out)
    assert err.startswith(f"error: InvalidInput: {flag} ")


def test_rectify_hausdorff_connected_target(tmp_path):
    # the key was left out without a word when either side was connected
    out = tmp_path / "r"
    assert run(["--output-dir", out, "rectify", "--source-c=-3",
                "--target-c=-1", "--samples", "2", "--hausdorff",
                "--hausdorff-rays", "64"]) == 0
    summary = json.loads((out / "rectify_summary.json").read_text())
    tm = TransportMap(GreenSystem.from_c(-3.0), GreenSystem.from_c(-1.0),
                      VirtualStructure.identity())
    assert summary["one_sided_hausdorff"] == \
        transported_boundary_distance(tm, n_rays=64)


def test_rectify_hausdorff_connected_source(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(greenray.cli, "invert_green_coords", no_work)
    monkeypatch.setattr(greenray.cli, "transported_boundary_distance",
                        no_work)
    out = tmp_path / "x"
    assert_rejected(run(["--output-dir", out, "rectify", "--source-c=-1",
                         "--target-c=-3", "--samples", "2", "--hausdorff"]),
                    capsys, "Connected", out)


@pytest.mark.parametrize("extra", [["--k", "scale:2"], ["--d", "st.json"],
                                   ["--structure", "st.json"]],
                         ids=["k", "d", "structure"])
def test_rectify_pair_k_refuses_structure(tmp_path, capsys, monkeypatch,
                                          extra):
    # --structure, --d and --k were dropped without a word under --pair-k
    monkeypatch.setattr(greenray.cli, "GreenSystem", None)
    for name in ("build_quadratic_pair", "TransportMap", "_parse_k",
                 "_parse_d", "deserialize_structure"):
        monkeypatch.setattr(greenray.cli, name, no_work)
    out = tmp_path / "x"
    err = assert_rejected(
        run(["--output-dir", out, "rectify", "--source-c=-3",
             "--target-c=-5", "--pair-k", "--samples", "2", *extra]),
        capsys, "ConfigError", out)
    assert "--pair-k" in err


def _parent_rectify_rows(tm, seed, samples):
    """`rectify_residuals.csv` as one `invert_green_coords` and
    `transport_exterior` per sample make it; the residuals are taken from
    the charts against (d(theta) mod 1, k(g)) of the source coordinate, and
    `transport_with_residuals` must agree."""
    rng = np.random.default_rng(seed)
    g_top = critical_potential(tm.source)
    lines = ["theta,g,z_re,z_im,w_re,w_im,potential_residual,angle_residual"]
    for _ in range(samples):
        theta = float(rng.random())
        g = float(g_top * (0.2 + 1.3 * rng.random()))
        z = invert_green_coords(tm.source, (theta, g))
        w = transport_exterior(tm, z)
        gc, gcw = log_bottcher(tm.source, z), log_bottcher(tm.target, w)
        pr = abs(gcw.potential - tm.vs.k(gc.potential))
        ar = circ_dist(gcw.angle, tm.vs.d(gc.angle) % 1.0)
        assert transport_with_residuals(tm, z) == (w, pr, ar)
        lines.append(",".join(map(repr, (theta, g, z.real, z.imag, w.real,
                                         w.imag, pr, ar))))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("pair_k", [True, False], ids=["pair_k", "structure"])
def test_rectify_rows_equal_per_sample_transport(tmp_path, pair_k):
    st = tmp_path / "st.json"
    st.write_text(serialize_structure(_flat_structure()))
    if pair_k:
        extra, tm = ["--pair-k"], build_quadratic_pair(-3.0, -5.0)
    else:
        extra = ["--structure", st]
        tm = TransportMap(GreenSystem.from_c(-3.0), GreenSystem.from_c(-5.0),
                          deserialize_structure(st.read_text()))
    out = tmp_path / "r"
    assert run(["--output-dir", out, "--seed", "7", "rectify",
                "--source-c=-3", "--target-c=-5", "--samples", "16",
                *extra]) == 0
    assert (out / "rectify_residuals.csv").read_text() == \
        _parent_rectify_rows(tm, 7, 16)


def test_rectify_pair_k_work_per_sample(tmp_path, monkeypatch):
    counts = {"systems": 0, "charts": 0, "target descents": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(GreenSystem, "__post_init__",
                        counted("systems", GreenSystem.__post_init__))
    for key, name in (("charts", "log_bottcher"),
                      ("target descents", "descend_rays_bulk")):
        monkeypatch.setattr(greenray.rectify, name,
                            counted(key, getattr(greenray.rectify, name)))
    assert run(["--output-dir", tmp_path / "r", "rectify", "--source-c=-3",
                "--target-c=-5", "--pair-k", "--samples", "5"]) == 0
    assert counts == {"systems": 2, "charts": 10, "target descents": 5}


@pytest.mark.parametrize("command", [
    ["collapse", "--tree", "t.json"],
    ["rectify", "--source-c=-3", "--target-c=-5", "--samples", "2"],
    ["converge", "--source-c=0", "--target-c=0", "--samples", "4"],
], ids=["collapse", "rectify", "converge"])
@pytest.mark.parametrize("extra, named", [
    (["--k", "scale:3"], "--k"), (["--d", "st.json"], "--d"),
    (["--d", "st.json", "--k", "st.json"], "--d or --k"),
], ids=["k", "d", "d_k"])
def test_structure_refuses_d_and_k(tmp_path, capsys, monkeypatch, command,
                                   extra, named):
    # --d and --k were dropped without a word under --structure: converge
    # wrote the same rows with and without --k scale:3
    monkeypatch.setattr(greenray.cli, "GreenSystem", None)
    for name in ("build_quadratic_pair", "TransportMap", "_parse_k",
                 "_parse_d", "deserialize_structure", "deserialize_tree"):
        monkeypatch.setattr(greenray.cli, name, no_work)
    out = tmp_path / "x"
    err = assert_rejected(
        run(["--output-dir", out, *command, "--structure", "st.json",
             *extra]), capsys, "ConfigError", out)
    assert err.endswith(f"--structure sets d and k; it cannot be combined "
                        f"with {named}")


def test_converge_reads_d_and_k_files(tmp_path):
    # --d and --k read their halves of a structure file: the same rows as
    # --structure with that file
    st = tmp_path / "st.json"
    st.write_text(serialize_structure(_flat_structure()))
    rows = []
    for flags in (["--structure", st], ["--d", st, "--k", st]):
        out = tmp_path / str(len(rows))
        assert run(["--output-dir", out, "converge", "--source-c=0",
                    "--target-c=0", *flags]) == 0
        rows.append((out / "converge.csv").read_bytes())
    assert rows[0] == rows[1]
    assert sha256(rows[1]).hexdigest() == \
        "3f4937f10552108f0844b07fd3507463572a20119e0de376c9bd8151fe3d880c"


def test_collapse_reports_depth_without_vertex(tmp_path, capsys):
    # a truncation depth below the deepest node ended in an AssertionError
    # traceback from admissible
    t = tmp_path / "t"
    assert run(["--output-dir", t, "tree", "--c", "-3", "--depth", "3"]) == 0
    doc = json.loads((t / "tree.json").read_text())
    doc["truncation_depth"] = 6
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "c"
    assert_rejected(run(["--output-dir", out, "collapse", "--tree", bad,
                         "--m0", "0.01"]), capsys, "NotAdmissible", out)


def test_rectify_svg_draws_transported_rings(tmp_path):
    out = tmp_path / "r"
    assert run(["--output-dir", out, "--seed", "3", "rectify",
                "--source-c=-3", "--target-c=-5", "--pair-k", "--samples",
                "4", "--emit", "svg"]) == 0
    assert sorted(p.name for p in out.iterdir()) == \
        ["manifest.json", "rectify.svg"]
    tm = build_quadratic_pair(-3.0, -5.0)
    g0 = critical_potential(tm.source)
    curves = [([transport_exterior(tm, z)
                for z in greenray.cli._ring_points(tm.source, g, 160)],
               "#58a066", True) for g in (0.25 * g0, 0.5 * g0)]
    assert (out / "rectify.svg").read_text() == \
        greenray.render.plane_svg(curves)


@pytest.mark.parametrize("argv", [
    ["ray", "--c", "-3", "--angle", "1/4", "--g-lo", "0.05", "--g-hi", "1.0",
     "--samples", "8", "--critical-value-angle", "3/10"],
    ["ray", "--c", "-1", "--angle", "1/3", "--g-lo", "0.05", "--g-hi", "1.0",
     "--samples", "4", "--critical-value-angle", "3/10"],
], ids=["cantor_ray", "connected"])
def test_critical_value_angle_fixed_by_c(tmp_path, capsys, argv):
    # at c = -3 the angle built other combinatorics and wrote a ray through
    # a precritical point; at c = -1 it was dropped, yet the manifest kept it
    out = tmp_path / "x"
    err = assert_rejected(run(["--output-dir", out, *argv]), capsys,
                          "InvalidInput", out)
    assert "critical value angle 3/10 disagrees with c" in err


@pytest.mark.parametrize("angle", ["1/6", "1/2"])
def test_real_c_above_quarter_is_refused(tmp_path, capsys, angle):
    # c = 1 lies on the ray of angle 0; the tree was written with the
    # combinatorics of the supplied angle
    out = tmp_path / "x"
    err = assert_rejected(run(["--output-dir", out, "tree", "--c", "1",
                               "--critical-value-angle", angle,
                               "--depth", "3"]), capsys, "InvalidInput", out)
    assert "external ray of angle 0" in err
