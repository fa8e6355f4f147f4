"""Smoke test of the benchmark at tiny size (about a minute):

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import harness    # noqa: E402  (imports greenray from ROOT/src)
import run        # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
CLI_MANIFESTS = {"cantor_transport": set(),
                 "tree_collapse": {"manifest.tree", "manifest.collapse"},
                 "connected_deep": {"manifest.green"}}


def units(metrics) -> dict:
    return {m["name"]: m["unit"] for m in metrics}


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    for w in BENCH["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    want = {m: u for m, u, _, _ in workloads.LAYER_METRICS}
    want[workloads.OVERHEAD_METRIC[0]] = workloads.OVERHEAD_METRIC[1]
    assert units(BENCH["per_layer"]) == want


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_traced_run(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    res = harness.run(name, run.WORKLOADS[name], seconds=0, trace=True,
                      tiny=True)
    assert res["attempted"] > 0
    assert res["failed"] == 0, res["failures"]
    assert {k: v["unit"] for k, v in res["per_layer"].items()} == \
        units(BENCH["per_layer"])
    # every pass compared its CLI manifests with the first pass's
    assert res["passes"] >= 2 and len(res["traced_job_s"]) >= 2
    assert CLI_MANIFESTS[name] <= set(res["digests"])


def test_command_prints_end_to_end_metrics():
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "connected_deep",
         "--seed", "5", "--seconds", "0", "--trace", "0", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == \
        units(BENCH["end_to_end"])
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tree_collapse",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
