"""One workload in one process: set-up, closed-loop passes, metrics.

    python3 perfbench/harness.py --workload NAME --seed N --seconds S \
        --trace 0|1 [--setup-only] [--tiny]

prints one JSON object with the run's measurements on its last stdout line;
`run.py` starts this script and turns that object into the benchmark's
report.  The process starts no threads or processes of its own.

Load model: one caller sends each item only after the previous one has
returned.  Passes repeat until `--seconds` would be exceeded by one more
pass, but at least MIN_PASSES passes and, untraced, MIN_QUERIES
single-point queries are made, so that the pooled p99 has ten samples
beyond it.

With --trace 1, traced and untraced passes alternate.  A traced pass
records a span around every call the workload makes into greenray, plus
`probe` spans that call a nested layer's public entry point with the same
inputs; probe time is left out of the traced pass's job time, so
traced minus untraced job time is the tracing overhead.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()      # before greenray (and numpy, scipy) is imported

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(".bench_out")   # relative to ROOT, the working directory
MIN_PASSES = 2
MIN_QUERIES = 1000
HARD_CAP_S = 150.0             # stop adding passes after this, whatever is missing


class Span:
    __slots__ = ("name", "start", "end", "parent", "item", "pass_idx",
                 "probe", "error", "counts")

    def __init__(self, name, start, parent, item, pass_idx, probe):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.item = item
        self.pass_idx = pass_idx
        self.probe = probe
        self.error = None
        self.counts = None

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """Spans around calls into greenray, kept in memory.

    When off, `call` is a plain call and `probe` does nothing.
    """

    def __init__(self, on: bool):
        self.on = on
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.item = None
        self.pass_idx = -1            # -1 while setting up

    def call(self, name, fn, *args, counts=None, **kwargs):
        if not self.on:
            return fn(*args, **kwargs)
        return self._span(name, False, counts, fn, args, kwargs)

    def probe(self, name, fn, *args, counts=None, **kwargs) -> None:
        if self.on:
            self._span(name, True, counts, fn, args, kwargs)

    def _span(self, name, probe, counts, fn, args, kwargs):
        span = Span(name, time.perf_counter(),
                    self._stack[-1] if self._stack else None,
                    self.item, self.pass_idx, probe)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if counts is not None:
            span.counts = counts(out)
        return out


class Failures:
    """Failed items by kind; the first of each kind is printed with its inputs."""

    def __init__(self):
        self.by_kind: dict[str, int] = {}

    def record(self, item, item_id: str, exc: Exception) -> None:
        kind = f"{item.kind}:{type(exc).__name__}"
        if kind not in self.by_kind:
            print(f"FAIL {kind} item {item_id} inputs={item.inputs!r}: {exc}",
                  file=sys.stderr)
            if not isinstance(exc, (workloads.CheckFailed, GreenrayError)):
                traceback.print_exception(exc, file=sys.stderr)
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1

    @property
    def total(self) -> int:
        return sum(self.by_kind.values())


def run_pass(wl, tracer: Tracer, pass_idx: int, items, failures: Failures):
    """Walk one pass; returns (job seconds without probes, query latencies)."""
    tracer.pass_idx = pass_idx
    first_span = len(tracer.spans)
    latencies = []
    start = time.perf_counter()
    for i, item in enumerate(items):
        item_id = f"{pass_idx}.{i}"
        t0 = time.perf_counter()
        tracer.item = item_id
        try:
            tracer.call(f"item.{item.kind}", item.run)
        except Exception as exc:           # a failed item must not stop the run
            failures.record(item, item_id, exc)
        if item.query:
            latencies.append(time.perf_counter() - t0)
    wall = time.perf_counter() - start
    tracer.item = None
    probes = sum(s.end - s.start for s in tracer.spans[first_span:] if s.probe)
    return wall - probes, latencies


def layer_table(spans: list[Span], traced_passes: list[int]) -> dict:
    """Per function: median per traced pass of time, self time, calls,
    errors and output counts; set-up values for functions only set-up calls.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    def empty() -> dict:
        return {"time": 0.0, "self": 0.0, "calls": 0, "errors": 0, "counts": {}}

    groups: dict[str, dict[int, dict]] = {}
    probes = {s.name for s in spans if s.probe}
    for idx, s in enumerate(spans):
        g = groups.setdefault(s.name, {}).setdefault(s.pass_idx, empty())
        g["time"] += s.end - s.start
        g["self"] += s.end - s.start - child_time[idx]
        g["calls"] += 1
        g["errors"] += s.error is not None
        for k, v in (s.counts or {}).items():
            g["counts"][k] = g["counts"].get(k, 0) + v
    table = {}
    for name, by_pass in groups.items():
        rows = [by_pass.get(p) for p in traced_passes]
        if not any(rows):
            rows = [by_pass[-1]]          # reached only during set-up
        rows = [r or empty() for r in rows]
        keys = sorted({k for r in rows for k in r["counts"]})
        table[name] = {
            "probe": name in probes,
            "time": statistics.median(r["time"] for r in rows),
            "self": statistics.median(r["self"] for r in rows),
            "calls": _median_count(r["calls"] for r in rows),
            "errors": _median_count(r["errors"] for r in rows),
            "counts": {k: _median_count(r["counts"].get(k, 0) for r in rows)
                       for k in keys},
        }
    return table


def _median_count(xs):
    m = statistics.median(xs)
    return int(m) if m == int(m) else m


def layer_metrics(table: dict) -> dict:
    """The catalogue's per-layer metrics; 0 for a function never called."""
    out = {}
    for metric, unit, source, _ in workloads.LAYER_METRICS:
        row = table.get(metric.rsplit(".", 1)[0])
        if row is None:
            value = 0.0 if source == "time" else 0
        elif source in ("time", "calls", "errors"):
            value = row[source]
        elif source.startswith("count:"):
            value = row["counts"].get(source[6:], 0)
        else:
            num, den = source[6:].split("/")
            den_v = row["counts"].get(den, 0)
            value = row["counts"].get(num, 0) / den_v if den_v else 0.0
        out[metric] = {"value": value, "unit": unit}
    return out


def machine() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def run(name: str, seed: int, seconds: float, trace: bool,
        setup_only: bool = False, tiny: bool = False,
        t0: float | None = None) -> dict:
    """Set up `name`, walk passes for about `seconds`, return measurements."""
    t0 = time.perf_counter() if t0 is None else t0
    tracer = Tracer(trace)
    wl = workloads.WORKLOADS[name](seed=seed, tracer=tracer,
                                   out_dir=OUT_DIR / name, tiny=tiny)
    items = wl.items(0)
    setup_s = time.perf_counter() - t0
    result = {"workload": name, "seed": seed, "trace": int(trace),
              "tiny": tiny, "setup_s": setup_s}
    if setup_only:
        wl.cleanup()
        return result

    failures = Failures()
    job_s: list[float] = []          # untraced passes
    traced_job_s: list[float] = []   # traced passes, probes left out
    traced_passes: list[int] = []
    latencies: list[float] = []
    attempted = 0
    min_queries = 0 if tiny or trace else MIN_QUERIES
    min_passes = 2 * MIN_PASSES if trace else MIN_PASSES
    start = time.perf_counter()
    deadline = start + seconds
    last = 0.0
    pass_idx = 0
    while True:
        now = time.perf_counter()
        done = (pass_idx >= min_passes and len(latencies) >= min_queries
                and now + last > deadline)
        if done or now - start > HARD_CAP_S:
            break
        if pass_idx:
            items = wl.items(pass_idx)
        gc.collect()
        traced = trace and pass_idx % 2 == 1
        tracer.on = traced
        p0 = time.perf_counter()
        job, lat = run_pass(wl, tracer, pass_idx, items, failures)
        last = time.perf_counter() - p0
        attempted += len(items)
        if traced:
            traced_job_s.append(job)
            traced_passes.append(pass_idx)
        else:
            job_s.append(job)
            latencies.extend(lat)
        pass_idx += 1
    wl.cleanup()

    result.update({
        "attempted": attempted,
        "failed": failures.total,
        "failures": failures.by_kind,
        "passes": len(job_s),
        "job_s": job_s,
        "queries": len(latencies),
        "digests": wl.digests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine(),
    })
    if latencies:
        cuts = statistics.quantiles(latencies, n=100, method="inclusive")
        result["query_p50_ms"] = 1e3 * cuts[49]
        result["query_p99_ms"] = 1e3 * cuts[98]
    if trace:
        table = layer_table(tracer.spans, traced_passes)
        result["traced_job_s"] = traced_job_s
        result["table"] = table
        result["per_layer"] = layer_metrics(table)
        result["moves"] = {m[0]: m[3] for m in workloads.LAYER_METRICS}
        result["per_layer"][workloads.OVERHEAD_METRIC[0]] = {
            "value": statistics.median(traced_job_s) - statistics.median(job_s),
            "unit": workloads.OVERHEAD_METRIC[1]}
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{name}-{seed}.json"
        spans_path.write_text(json.dumps([s.as_dict() for s in tracer.spans]))
        result["spans_file"] = str(spans_path)
    return result


def _import_greenray():
    """Import greenray from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import greenray
    if Path(greenray.__file__).resolve().parent != src / "greenray":
        raise SystemExit(f"greenray imported from {greenray.__file__}, "
                         f"not from {src}")


_import_greenray()
import workloads                                   # noqa: E402
from greenray import GreenrayError                 # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    res = run(args.workload, args.seed, args.seconds, bool(args.trace),
              setup_only=args.setup_only, tiny=args.tiny, t0=T0)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
