"""greenray benchmark: one workload per invocation, each in fresh processes.

    python3 perfbench/run.py --workload cantor_transport --seed 1 \
        --seconds 25 --trace 0

With --trace 0 the set-up is timed in SETUP_SAMPLES set-up-only processes
plus the measuring process, and the report gives the end-to-end metrics.
With --trace 1 one process alternates traced and untraced passes and the
report gives the per-layer metrics, the layer table and the tracing
overhead.  Processes run one after another, never at the same time, each
single-threaded.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The exit code is nonzero,
with no such line, when any process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = {"cantor_transport": 1, "tree_collapse": 2, "connected_deep": 3}
SETUP_SAMPLES = 4            # set-up-only processes per untraced run
BUDGET_S = 170.0             # the whole invocation, all processes included
# one thread per process, and stable hashing across processes
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class ChildFailed(Exception):
    pass


def child(args, deadline: float, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "harness.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              env={**os.environ, **CHILD_ENV},
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{' '.join(cmd)}: timed out") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{' '.join(cmd)}: exit code {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def end_to_end(res: dict, setups: list[float]) -> dict:
    return {"setup_s": {"value": statistics.median(setups), "unit": "s"},
            "job_s": {"value": statistics.median(res["job_s"]), "unit": "s"},
            "query_p50_ms": {"value": res["query_p50_ms"], "unit": "ms"},
            "query_p99_ms": {"value": res["query_p99_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"}}


def report(res: dict, setups: list[float], metrics: dict) -> None:
    m = res["machine"]
    print(f"workload {res['workload']} seed {res['seed']} "
          f"trace {res['trace']}{' tiny' if res['tiny'] else ''}")
    print(f"machine: nproc {m['nproc']}, cpu {m['cpu']}, python {m['python']}, "
          f"numpy {m['numpy']}, scipy {m['scipy']}")
    print("load: closed loop, one caller, one process, no concurrency")
    q1, q2, q3 = quartiles(res["job_s"])
    print(f"job_s (untraced passes): median {q2:.4f} q1 {q1:.4f} q3 {q3:.4f} "
          f"over {res['passes']} passes")
    if setups:
        print(f"setup_s: median {statistics.median(setups):.4f} over "
              f"{len(setups)} processes {[round(s, 4) for s in setups]}")
    print(f"queries: {res['queries']} pooled over untraced passes")
    failed_ratio = res["failed"] / res["attempted"]
    print(f"items: attempted {res['attempted']} failed {res['failed']} "
          f"failed_ratio {failed_ratio:.6g} {res['failures'] or ''}")
    if res["trace"]:
        t1, t2, t3 = quartiles(res["traced_job_s"])
        print(f"traced job_s without probes: median {t2:.4f} q1 {t1:.4f} "
              f"q3 {t3:.4f} over {len(res['traced_job_s'])} passes; "
              f"spans in {res['spans_file']}")
        print(f"{'span (per traced pass)':46} {'self_s':>9} {'time_s':>9} "
              f"{'calls':>7} {'errors':>6}  counts")
        for name, row in sorted(res["table"].items()):
            counts = " ".join(f"{k}={v}" for k, v in row["counts"].items())
            label = name + (" [probe]" if row["probe"] else "")
            print(f"{label:46} {row['self']:9.4f} {row['time']:9.4f} "
                  f"{row['calls']:7g} {row['errors']:6g}  {counts}")
    moves_of = res.get("moves", {})
    for name, v in metrics.items():
        moves = f"  (moves {moves_of[name]})" if name in moves_of else ""
        value = v["value"] if isinstance(v["value"], int) else f"{v['value']:.6g}"
        print(f"metric {name} = {value} {v['unit']}{moves}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the workload's default seed)")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="how long the passes run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test size: few queries, two passes")
    args = ap.parse_args(argv)
    if args.seed is None:
        args.seed = WORKLOADS[args.workload]
    deadline = time.monotonic() + BUDGET_S
    try:
        setups = []
        if not args.trace and not args.tiny:
            for _ in range(SETUP_SAMPLES):
                setups.append(child(args, deadline, "--setup-only")["setup_s"])
        res = child(args, deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])
    metrics = res["per_layer"] if args.trace else end_to_end(res, setups)
    report(res, setups if not args.trace else [], metrics)
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
