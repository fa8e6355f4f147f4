"""The three benchmark workloads and the catalogue of per-layer metrics.

A workload is built once per process (its set-up) and then yields, for each
pass, a fixed list of items.  An item is one user-level call or a short
fixed chain of calls into greenray's public functions, followed by its
output check.  Every call goes through the tracer so that a traced run can
attribute time and counts to the layer that did the work.

Query inputs are drawn from a generator seeded by (workload seed, pass
index): the same seed gives the same inputs, and no two passes share
query inputs, so a cache keyed on exact inputs cannot help the query items.
"""

from __future__ import annotations

import hashlib
import math
import shutil
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from greenray import angles, cli, render
from greenray.potential import (GreenSystem, critical_potential, descend_rays_bulk,
                                escape_green, invert_green_coords,
                                julia_samples, log_bottcher, skeleton,
                                trace_equipotential)
from greenray.rectify import (ContinuumMap, TransportMap,
                              boundary_derivative_probe, build_quadratic_pair,
                              convergence_study, quasihyperbolic_displacement,
                              transport_exterior, transported_boundary_distance)
from greenray.structures import (CircleCDF, PotentialHomeo, VirtualStructure,
                                 admissible, collapse, mod_xi)
from greenray.tree import (build_quadratic_tree, deserialize_tree,
                           serialize_tree, thinness_report)

TWO_PI = 2.0 * math.pi
GOLDEN = 0.6180339887498949


class CheckFailed(Exception):
    """An item's output did not pass its check."""


def check(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def circ_dist(a: float, b: float) -> float:
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


@dataclass
class Item:
    kind: str
    run: Callable[[], None]
    inputs: object = None
    query: bool = False


@dataclass
class Workload:
    """Base class: subclasses set the class attributes and build items."""

    name = ""
    why = ""
    queries_per_pass = 0

    seed: int
    tracer: object
    out_dir: Path
    tiny: bool = False
    digests: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.tiny:
            self.queries_per_pass = 6
        self.setup()

    def setup(self) -> None:
        raise NotImplementedError

    def items(self, pass_idx: int) -> list[Item]:
        raise NotImplementedError

    def rng(self, pass_idx: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, pass_idx])

    def same_as_first_pass(self, key: str, data: bytes) -> bool:
        """True when `data` hashes like the first pass's data under `key`."""
        h = hashlib.sha256(data).hexdigest()
        return self.digests.setdefault(key, h) == h

    def run_cli(self, command: str, argv: list[str]) -> Path:
        """In-process CLI run into a fixed directory; returns that directory.

        The directory is the same on every pass, so the manifest (which
        records the output directory) can be compared byte for byte.
        """
        outdir = self.out_dir / command
        rc = self.tracer.call(f"cli.{command}", cli.main,
                              ["--output-dir", str(outdir), command] + argv,
                              counts=lambda _: {"bytes": _dir_bytes(outdir)})
        check(rc == 0, f"cli {command} exited with {rc}")
        manifest = (outdir / "manifest.json").read_bytes()
        check(self.same_as_first_pass(f"manifest.{command}", manifest),
              f"cli {command} manifest differs from the first pass")
        return outdir

    def cleanup(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


# ---------------------------------------------------------------------------
# cantor_transport
# ---------------------------------------------------------------------------

class CantorTransport(Workload):
    name = "cantor_transport"
    why = ("shallow scalar ray descents with crash and skeleton logic live, "
           "plus every batch user of ray descent; no tree or angle work "
           "after set-up")
    queries_per_pass = 200

    def setup(self) -> None:
        self.tm = self.tracer.call("rectify.build_quadratic_pair",
                                   build_quadratic_pair, -3.0, -5.0, depth=12)
        self.src, self.tgt = self.tm.source, self.tm.target
        self.g0 = critical_potential(self.src)
        self.tol20 = 20.0 * self.tm.tol
        # inputs of the boundary-distance probe, as the library derives them
        g_end = 1e-4 * self.g0
        thetas = (np.arange(4096) + 0.5) / 4096 + 1.0 / 9973.0
        self.bulk_thetas = np.array([self.tm.vs.d(t) % 1.0 for t in thetas])
        self.bulk_g = self.tm.vs.k(g_end)

    def items(self, pass_idx: int) -> list[Item]:
        rng = self.rng(pass_idx)
        out = []
        for _ in range(self.queries_per_pass):
            # the CLI `rectify` sample distribution
            theta = float(rng.random())
            g = float(self.g0 * (0.2 + 1.3 * rng.random()))
            out.append(Item("transport_query",
                            lambda t=theta, g=g: self.query(t, g),
                            (theta, g), query=True))
        out.append(Item("equipotential", self.equipotential, (0.05, 32)))
        out.append(Item("skeleton", self.skeleton, 4))
        out.append(Item("boundary_distance", self.boundary_distance, 4096))
        return out

    def query(self, theta: float, g: float) -> None:
        tr, tm = self.tracer, self.tm
        z = tr.call("potential.invert_green_coords", invert_green_coords,
                    self.src, (theta, g))
        w = tr.call("rectify.transport_exterior", transport_exterior, tm, z)
        gc = tr.call("potential.log_bottcher", log_bottcher, self.tgt, w)
        pot_res = abs(gc.potential - tm.vs.k(g))
        ang_res = circ_dist(gc.angle, tm.vs.d(theta) % 1.0)
        check(pot_res <= self.tol20, f"potential residual {pot_res:.3e}")
        check(ang_res <= self.tol20, f"angle residual {ang_res:.3e}")

    def equipotential(self) -> None:
        curves = self.tracer.call(
            "potential.trace_equipotential", trace_equipotential,
            self.src, 0.05, 32,
            counts=lambda cs: {"points": sum(map(len, cs))})
        check(len(curves) == 16, f"{len(curves)} curves, want 16")
        check(all(len(c) == 32 for c in curves), "curve with != 32 points")
        worst = max(abs(escape_green(self.src, z)[0] - 0.05)
                    for c in curves for z in c)
        check(worst <= self.tol20, f"equipotential off level by {worst:.3e}")

    def skeleton(self) -> None:
        arcs = self.tracer.call("potential.skeleton", skeleton, self.src, 4,
                                counts=lambda a: {"arcs": len(a)})
        check(len(arcs) == 31, f"{len(arcs)} skeleton arcs, want 31")

    def boundary_distance(self) -> None:
        tr = self.tracer
        hd = tr.call("rectify.transported_boundary_distance",
                     transported_boundary_distance, self.tm, 4096,
                     julia_depth=16, counts=lambda _: {"rays": 4096})
        check(hd <= 1e-3, f"one-sided Hausdorff distance {hd:.3e} > 1e-3")
        tr.probe("potential.descend_rays_bulk", descend_rays_bulk,
                 self.tgt, self.bulk_thetas, self.bulk_g,
                 counts=lambda pts: {"rays": len(pts)})


# ---------------------------------------------------------------------------
# tree_collapse
# ---------------------------------------------------------------------------

def flat_on_window(window) -> CircleCDF:
    """Circle CDF exactly flat on the pieces of `window`, linear elsewhere."""
    flat = {(Fraction(lo), Fraction(hi)) for lo, hi in window}
    xs = sorted({Fraction(0), Fraction(1)} | {x for piece in flat for x in piece})
    rising = sum(b - a for a, b in zip(xs, xs[1:]) if (a, b) not in flat)
    bps = [(Fraction(0), 0.0)]
    acc = Fraction(0)
    for a, b in zip(xs, xs[1:]):
        if (a, b) not in flat:
            acc += (b - a) / rising
        bps.append((b, float(acc)))
    return CircleCDF(tuple(bps))


def invariant_sets(tree) -> list:
    return sorted((n.depth,
                   None if n.is_root else round(n.modulus, 12),
                   tuple(round(t, 12) for t in n.angular_invariant),
                   round(n.harmonic_measure, 12),
                   len(n.children))
                  for n in tree.nodes.values())


class TreeCollapse(Workload):
    name = "tree_collapse"
    why = ("Fraction-heavy tree combinatorics, JSON round trips, collapses "
           "and artifact writes; three parameters share one combinatorics; "
           "no ray descent")
    queries_per_pass = 200
    depth = 11

    def setup(self) -> None:
        self.systems = [GreenSystem.from_c(c) for c in (-3.0, -2.5, -5.0)]
        self.g0 = critical_potential(self.systems[0])
        self.m0 = self.g0 / (4.0 * math.pi)
        self.identity = VirtualStructure.identity()
        theta_c = self.systems[0].critical_value_angle
        depth3 = angles.level_windows(theta_c, 3)[3]
        victim = depth3[int(np.random.default_rng(self.seed).integers(len(depth3)))]
        self.victim_window = victim.window
        self.flat = VirtualStructure(flat_on_window(victim.window),
                                     PotentialHomeo.identity())
        self.tree = None          # the c = -3 tree of the current pass

    def items(self, pass_idx: int) -> list[Item]:
        rng = self.rng(pass_idx)
        out = [Item(f"build_tree[{s.c.real:g}]",
                    lambda s=s: self.build(s), s.c.real)
               for s in self.systems]
        out.append(Item("json_round_trip", self.round_trip))
        out.append(Item("identity_collapse", self.identity_collapse))
        out.append(Item("flat_collapse", self.flat_collapse))
        out.append(Item("cylinder_svg", self.cylinder_svg))
        out.append(Item("cli_tree_collapse", self.cli_pipeline))
        for i in range(self.queries_per_pass):
            # query cost doubles with the level, so every pass asks each
            # level equally often and the percentiles do not move with the
            # seed's level mix
            theta = float(rng.random())
            level = 1 + i % self.depth
            out.append(Item("annulus_query",
                            lambda t=theta, n=level: self.query(t, n),
                            (theta, level), query=True))
        return out

    def build(self, sys_: GreenSystem) -> None:
        tr = self.tracer
        tree = tr.call("tree.build_quadratic_tree", build_quadratic_tree,
                       sys_, self.depth,
                       counts=lambda t: {"nodes": len(t.nodes)})
        if sys_ is self.systems[0]:
            self.tree = tree
        tr.probe("angles.level_windows", angles.level_windows,
                 sys_.critical_value_angle, self.depth,
                 counts=lambda lv: {"windows": sum(map(len, lv))})
        g0 = critical_potential(sys_)
        want = g0 / TWO_PI
        check(len(tree.nodes) == 2 ** (self.depth + 1) - 1,
              f"{len(tree.nodes)} nodes")
        worst = max(abs(n.modulus - want) / want
                    for n in tree.nodes.values() if not n.is_root)
        check(worst <= 1e-6, f"relative modulus deviation {worst:.3e}")
        rep = tr.call("tree.thinness_report", thinness_report, tree,
                      g0 / (4.0 * math.pi))
        check(rep.verdict == "thin_certified", f"thinness {rep.verdict}")

    def round_trip(self) -> None:
        tr = self.tracer
        nbytes = lambda s: {"bytes": len(s)}
        s1 = tr.call("tree.serialize_tree", serialize_tree, self.tree,
                     counts=nbytes)
        back = tr.call("tree.deserialize_tree", deserialize_tree, s1,
                       counts=lambda _: {"bytes": len(s1)})
        s2 = tr.call("tree.serialize_tree", serialize_tree, back,
                     counts=nbytes)
        check(s1 == s2, "serialize/deserialize/serialize is not byte-stable")

    def identity_collapse(self) -> None:
        tr = self.tracer
        rep = tr.call("structures.admissible", admissible, self.tree,
                      self.identity, self.m0)
        check(rep.verdict == "admissible_certified",
              f"identity structure {rep.verdict}")
        out = tr.call("structures.collapse", collapse, self.tree,
                      self.identity, counts=self._collapse_counts)
        check(len(out.nodes) == len(self.tree.nodes),
              f"identity collapse has {len(out.nodes)} nodes")
        check(invariant_sets(out) == invariant_sets(self.tree),
              "identity collapse changed the invariant sets")

    def flat_collapse(self) -> None:
        tree = self.tree
        out = self.tracer.call("structures.collapse", collapse, tree,
                               self.flat, counts=self._collapse_counts)
        victim = next(n for n in tree.level(3)
                      if n.windows == self.victim_window)
        parent = next(n for n in tree.nodes.values()
                      if victim.id in n.children)
        sibling = next(tree.nodes[c] for c in parent.children
                       if c != victim.id)
        dropped = 2 ** (self.depth - 2) - 1           # the victim's subtree
        want = len(tree.nodes) - dropped - 1          # ... and one merge
        check(len(out.nodes) == want,
              f"flat collapse has {len(out.nodes)} nodes, want {want}")
        oracle = mod_xi(parent, self.flat) + mod_xi(sibling, self.flat)
        merged = [n for n in out.nodes.values()
                  if abs(n.modulus - oracle) <= 1e-12 * oracle]
        check(len(merged) == 1, "merged chain modulus is not the chain sum")
        check(all(len(n.children) in (0, 2) for n in out.nodes.values()),
              "collapsed tree is not binary")

    def _collapse_counts(self, out) -> dict:
        return {"nodes_in": len(self.tree.nodes), "nodes_out": len(out.nodes)}

    def cylinder_svg(self) -> None:
        svg = self.tracer.call("render.tree_cylinder_svg",
                               render.tree_cylinder_svg, self.tree,
                               counts=lambda s: {"bytes": len(s)})
        bands = sum(len(n.windows) for n in self.tree.nodes.values()
                    if not n.is_root)
        check(svg.count("fill-opacity") == bands,
              "cylinder SVG does not draw one band per window piece")
        check(self.same_as_first_pass("svg", svg.encode()),
              "cylinder SVG differs from the first pass")

    def cli_pipeline(self) -> None:
        tree_dir = self.run_cli("tree", ["--c", "-3", "--depth", "10", "--svg"])
        self.run_cli("collapse", ["--tree", str(tree_dir / "tree.json"),
                                  "--m0", repr(self.m0), "--svg"])

    def query(self, theta: float, level: int) -> None:
        """Which level-n annulus does the ray at `theta` cross, and what is
        its modulus under the flat structure?"""
        tr = self.tracer
        nodes = tr.call("tree.level", self.tree.level, level)
        hits = tr.call("angles.window_contains", _containing, nodes, theta,
                       counts=lambda _: {"windows": len(nodes)})
        check(len(hits) == 1, f"{len(hits)} annuli contain the angle")
        m = tr.call("structures.mod_xi", mod_xi, hits[0], self.flat)
        inside = level >= 3 and angles.window_contains(self.victim_window, theta)
        check(math.isinf(m) == inside and (inside or m > 0.0),
              f"mod_xi {m} for an annulus {'inside' if inside else 'outside'} "
              "the flat window")


def _containing(nodes, theta: float) -> list:
    return [n for n in nodes if angles.window_contains(n.windows, theta)]


# ---------------------------------------------------------------------------
# connected_deep
# ---------------------------------------------------------------------------

class ConnectedDeep(Workload):
    name = "connected_deep"
    why = ("connected case: deep single-ray descents, KD-tree distance "
           "queries, the escape kernel's worst case and a CSV-bound CLI; "
           "no crash, skeleton or tree logic")
    queries_per_pass = 100
    grid = 128
    window = (-2.0, 2.0, -1.5, 1.5)

    def setup(self) -> None:
        self.sys_m1 = GreenSystem.from_c(-1.0)
        self.tol20 = 20.0 * self.sys_m1.tol
        # slopes in [1/2, 2]: the bilipschitz-2 k of the basilica check
        k = PotentialHomeo(((0.0, 0.0), (0.01, 0.02), (0.02, 0.025),
                            (0.03, 0.045), (0.04, 0.05), (1.0, 1.01)))
        self.cm = ContinuumMap(self.sys_m1, k)
        self.cloud = julia_samples(self.sys_m1, 15)

        # the Lipschitz-approximation study: c = 0, three flats of 1/512
        self.sys0 = GreenSystem.from_c(0.0)
        flat = Fraction(1, 512)
        d = CircleCDF((
            (Fraction(0), 0.0),
            (Fraction(1, 5), 0.21), (Fraction(1, 5) + flat, 0.21),
            (Fraction(1, 2), 0.52), (Fraction(1, 2) + flat, 0.52),
            (Fraction(4, 5), 0.83), (Fraction(4, 5) + flat, 0.83),
            (Fraction(1), 1.0)))
        k0 = PotentialHomeo(((0.0, 0.0), (0.05, 1.0), (1.0, 1.1)))
        self.conv_tm = TransportMap(self.sys0, self.sys0,
                                    VirtualStructure(d, k0))
        self.ring = [invert_green_coords(
            self.sys0, (((i + 0.5) / 48 + GOLDEN) % 1.0, 0.05))
            for i in range(48)]
        self.n_list = [1, 2, 4, 8, 16, 32, 64]
        self.probe_maps = [(lam, ContinuumMap(self.sys0,
                                              PotentialHomeo.scaling(lam)))
                           for lam in (1.5, 1.25, 1.1, 1.01)]

    def items(self, pass_idx: int) -> list[Item]:
        rng = self.rng(pass_idx)
        out = [Item("cli_green", self.cli_green)]
        for _ in range(self.queries_per_pass):
            theta = float(rng.random())
            g = float(rng.uniform(0.01, 0.05))
            out.append(Item("displacement_query",
                            lambda t=theta, g=g: self.query(t, g),
                            (theta, g), query=True))
        out.append(Item("convergence_study", self.convergence))
        out.append(Item("boundary_probe", self.boundary_probe))
        return out

    def cli_green(self) -> None:
        x0, x1, y0, y1 = self.window
        n = self.grid
        outdir = self.run_cli("green", [
            "--c", "-1", "--nx", str(n), "--ny", str(n),
            f"--window={x0:g},{x1:g},{y0:g},{y1:g}"])
        rows = (outdir / "green.csv").read_text().splitlines()[1:]
        check(len(rows) == n * n, f"{len(rows)} CSV rows, want {n * n}")
        worst = max(float(r.rsplit(",", 1)[1]) for r in rows)
        check(worst <= self.sys_m1.tol, f"err_bound {worst:.3e} > tol")
        self.tracer.probe("potential.escape_green", self._green_grid,
                          counts=lambda gs: {
                              "points": len(gs),
                              "inside": sum(1 for g in gs if g == 0.0)})

    def _green_grid(self) -> list[float]:
        """escape_green on the CLI's grid, as the `green` subcommand walks it."""
        x0, x1, y0, y1 = self.window
        n = self.grid
        return [escape_green(self.sys_m1, complex(x0 + (x1 - x0) * (i + 0.5) / n,
                                                  y0 + (y1 - y0) * (j + 0.5) / n))[0]
                for j in range(n) for i in range(n)]

    def query(self, theta: float, g: float) -> None:
        tr = self.tracer
        z = tr.call("potential.invert_green_coords", invert_green_coords,
                    self.sys_m1, (theta, g))
        est = tr.call("rectify.quasihyperbolic_displacement",
                      quasihyperbolic_displacement, self.cm, z,
                      boundary=self.cloud,
                      counts=lambda e: {"bound_violations": int(not e.bound_ok())})
        err = abs(escape_green(self.sys_m1, z)[0] - g)
        check(err <= self.tol20, f"round-trip potential error {err:.3e}")
        check(math.isfinite(est.estimate), f"estimate {est.estimate}")

    def convergence(self) -> None:
        rows = self.tracer.call(
            "rectify.convergence_study", convergence_study, self.conv_tm,
            self.n_list, self.ring,
            counts=lambda rs: {"dropped": sum(r.dropped_samples for r in rs),
                               "samples": len(rs) * len(self.ring)})
        sups = [r.sup_distance for r in rows]
        check(all(a > b for a, b in zip(sups, sups[1:])),
              f"sups not strictly decreasing: {sups}")
        check(sups[-1] <= 1e-3, f"final sup {sups[-1]:.3e} > 1e-3")
        check(all(r.dropped_samples == 0 for r in rows), "dropped samples")

    def boundary_probe(self) -> None:
        h = 1e-3
        for lam, cm in self.probe_maps:
            samples = self.tracer.call("rectify.boundary_derivative_probe",
                                       boundary_derivative_probe, cm,
                                       1.0 + 0.0j, [h])
            radial = [s for s in samples if abs(s.direction - 1.0) < 1e-12]
            check(len(radial) == 1, "no radial sample")
            closed = ((1.0 + h) ** lam - 1.0) / h
            err = abs(radial[0].quotient - closed)
            check(err <= 1e-9, f"radial quotient off closed form by {err:.3e}")


WORKLOADS = {w.name: w for w in (CantorTransport, TreeCollapse, ConnectedDeep)}


# ---------------------------------------------------------------------------
# Per-layer metric catalogue
# ---------------------------------------------------------------------------
# (metric, unit, source, the end-to-end metric it should move).  `source`
# is "time" (summed wall time inside the calls), "calls", "errors" (calls
# that raised), "count:<key>" or "ratio:<num>/<den>" over output counts.
# Values are per pass, the median over the run's traced passes; functions
# called only during set-up report their set-up value.

LAYER_METRICS = [
    ("angles.level_windows.time_s", "s", "time", "tree_collapse job_s"),
    ("angles.level_windows.windows", "count", "count:windows", "tree_collapse job_s"),
    ("angles.window_contains.time_s", "s", "time", "tree_collapse query_p50_ms/query_p99_ms"),
    ("angles.window_contains.windows", "count", "count:windows", "tree_collapse query_p50_ms/query_p99_ms"),
    ("potential.invert_green_coords.time_s", "s", "time",
     "cantor_transport and connected_deep query_p50_ms/query_p99_ms/job_s; no change on tree_collapse"),
    ("potential.invert_green_coords.calls", "count", "calls",
     "cantor_transport and connected_deep query_p50_ms/query_p99_ms/job_s"),
    ("potential.log_bottcher.time_s", "s", "time", "cantor_transport query_p50_ms/query_p99_ms"),
    ("potential.log_bottcher.calls", "count", "calls", "cantor_transport query_p50_ms/query_p99_ms"),
    ("potential.log_bottcher.rejects", "count", "errors", "cantor_transport query_p50_ms/query_p99_ms"),
    ("potential.trace_equipotential.time_s", "s", "time", "cantor_transport job_s"),
    ("potential.trace_equipotential.points", "count", "count:points", "cantor_transport job_s"),
    ("potential.skeleton.time_s", "s", "time", "cantor_transport job_s"),
    ("potential.skeleton.arcs", "count", "count:arcs", "cantor_transport job_s"),
    ("potential.descend_rays_bulk.time_s", "s", "time", "cantor_transport job_s"),
    ("potential.descend_rays_bulk.rays", "count", "count:rays", "cantor_transport job_s"),
    ("potential.escape_green.time_s", "s", "time", "connected_deep job_s"),
    ("potential.escape_green.points", "count", "count:points", "connected_deep job_s"),
    ("potential.escape_green.inside_ratio", "fraction", "ratio:inside/points", "connected_deep job_s"),
    ("tree.build_quadratic_tree.time_s", "s", "time",
     "tree_collapse job_s and peak_rss_mb; cantor_transport setup_s"),
    ("tree.build_quadratic_tree.nodes", "count", "count:nodes", "tree_collapse job_s and peak_rss_mb"),
    ("tree.serialize_tree.time_s", "s", "time", "tree_collapse job_s and peak_rss_mb"),
    ("tree.serialize_tree.bytes", "count", "count:bytes", "tree_collapse job_s and peak_rss_mb"),
    ("tree.deserialize_tree.time_s", "s", "time", "tree_collapse job_s and peak_rss_mb"),
    ("tree.deserialize_tree.bytes", "count", "count:bytes", "tree_collapse job_s and peak_rss_mb"),
    ("tree.thinness_report.time_s", "s", "time", "tree_collapse job_s"),
    ("tree.level.time_s", "s", "time", "tree_collapse query_p50_ms/query_p99_ms"),
    ("tree.level.calls", "count", "calls", "tree_collapse query_p50_ms/query_p99_ms"),
    ("structures.admissible.time_s", "s", "time", "tree_collapse job_s"),
    ("structures.collapse.time_s", "s", "time", "tree_collapse job_s"),
    ("structures.collapse.nodes_in", "count", "count:nodes_in", "tree_collapse job_s"),
    ("structures.collapse.nodes_out", "count", "count:nodes_out", "tree_collapse job_s"),
    ("structures.mod_xi.time_s", "s", "time", "tree_collapse query_p50_ms/query_p99_ms"),
    ("rectify.transport_exterior.time_s", "s", "time", "cantor_transport query_p50_ms/query_p99_ms"),
    ("rectify.transport_exterior.calls", "count", "calls", "cantor_transport query_p50_ms/query_p99_ms"),
    ("rectify.transport_exterior.failures", "count", "errors", "cantor_transport query_p50_ms/query_p99_ms"),
    ("rectify.transported_boundary_distance.time_s", "s", "time", "cantor_transport job_s"),
    ("rectify.transported_boundary_distance.rays", "count", "count:rays", "cantor_transport job_s"),
    ("rectify.quasihyperbolic_displacement.time_s", "s", "time", "connected_deep query_p50_ms/query_p99_ms"),
    ("rectify.quasihyperbolic_displacement.calls", "count", "calls", "connected_deep query_p50_ms/query_p99_ms"),
    ("rectify.quasihyperbolic_displacement.bound_violations", "count", "count:bound_violations",
     "none: an open finding of the displacement estimate, not a failure"),
    ("rectify.convergence_study.time_s", "s", "time", "connected_deep job_s"),
    ("rectify.convergence_study.dropped_ratio", "fraction", "ratio:dropped/samples", "connected_deep job_s"),
    ("rectify.boundary_derivative_probe.time_s", "s", "time", "connected_deep job_s"),
    ("rectify.build_quadratic_pair.time_s", "s", "time", "cantor_transport setup_s"),
    ("render.tree_cylinder_svg.time_s", "s", "time", "tree_collapse job_s"),
    ("render.tree_cylinder_svg.bytes", "count", "count:bytes", "tree_collapse job_s"),
    ("cli.tree.time_s", "s", "time", "tree_collapse job_s"),
    ("cli.tree.bytes", "count", "count:bytes", "tree_collapse job_s"),
    ("cli.collapse.time_s", "s", "time", "tree_collapse job_s"),
    ("cli.collapse.bytes", "count", "count:bytes", "tree_collapse job_s"),
    ("cli.green.time_s", "s", "time", "connected_deep job_s"),
    ("cli.green.bytes", "count", "count:bytes", "connected_deep job_s"),
]

# The tracing overhead reported next to the layer metrics.
OVERHEAD_METRIC = ("trace.overhead_s", "s")
