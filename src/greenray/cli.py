"""Command-line front end.

Every subcommand writes its artifacts (CSV / JSON / SVG) into the output
directory together with a manifest listing sha256 hashes; identical
configuration and seed give byte-identical artifacts.  Module errors map
one-to-one onto documented error names on stderr with nonzero exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from fractions import Fraction
from itertools import repeat
from pathlib import Path

import numpy as np

from . import render
from .errors import ConfigError, Connected, GreenrayError, InvalidInput
from .potential import (G_MAX, GreenSystem, critical_potential,
                        descend_rays_bulk, escape_green_bulk,
                        invert_green_coords, julia_samples,
                        skeleton, trace_equipotential, trace_ray)
from .rectify import (ContinuumMap, TransportMap, boundary_derivative_probe,
                      build_quadratic_pair, convergence_study,
                      quasihyperbolic_displacement, transport_exterior,
                      transport_with_residuals, transported_boundary_distance)
from .structures import (CircleCDF, PotentialHomeo, VirtualStructure,
                         admissible, collapse, deserialize_structure)
from .tree import (build_quadratic_tree, deserialize_tree, serialize_tree,
                   thinness_report)

GOLDEN = 0.6180339887498949
# Caps on `tree --depth` and `tree --skeleton`.  A depth-D tree has
# 2^(D+1) - 1 nodes and a depth-D skeleton as many arcs, so each level
# doubles the run: at c = -3 on a 2-core machine a depth-15 tree took
# 3.7 s to build, and a depth-8 skeleton 0.03 s (depth 12: 0.55 s).
MAX_TREE_DEPTH = 16
MAX_SKELETON_DEPTH = 12
# Cap on `green --nx` and `--ny`.  The grid is one batch and its CSV is
# written row by row: at c = -1 on a 2-core machine a 512 x 512 grid took
# 1.6 s and wrote 17 MB, and each doubling of the side is 4x.
MAX_GRID_SIDE = 512
# Cap on `rectify --samples`, `converge --samples` and
# `probe --displacement-points`.  Each sample is one transport or
# displacement query: on a 2-core machine 2000 rectify samples (c = -3 to
# -5) took 1.9 s, 1024 converge samples over the default seven n 0.7 s and
# 1024 probe points at c = -1 2.1 s.  It caps `rectify --hausdorff-rays`,
# one deep descent per ray, in one batch.  It also caps `ray --samples` and
# `equipot --samples` (points per curve), which descend in one batch: at
# c = -3, 16384 ray samples took 0.15 s and two curves of 16384 at
# g = 0.3 1.3-1.7 s.
MAX_SAMPLES = 16384


# ---------------------------------------------------------------------------
# Small deterministic artifact helpers
# ---------------------------------------------------------------------------

class ArtifactSink:
    def __init__(self, outdir: Path):
        self.outdir = outdir
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.paths: list[Path] = []

    def write_text(self, name: str, text: str) -> Path:
        p = self.outdir / name
        p.write_text(text)
        self.paths.append(p)
        return p

    def write_csv(self, name: str, header: list[str], rows) -> Path:
        """Write each row as it is formatted; floats (Python floats, not
        numpy ones) by repr."""
        p = self.outdir / name
        with p.open("w") as f:
            f.write(",".join(header) + "\n")
            f.writelines(",".join(repr(v) if isinstance(v, float) else str(v)
                                  for v in row) + "\n" for row in rows)
        self.paths.append(p)
        return p

    def write_json(self, name: str, obj) -> Path:
        return self.write_text(
            name, json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")

    def manifest(self, command: str, config: dict) -> Path:
        arts = []
        for p in sorted(self.paths):
            arts.append({"path": p.name,
                         "sha256": hashlib.sha256(p.read_bytes()).hexdigest()})
        doc = {"command": command, "config": config, "artifacts": arts}
        p = self.outdir / "manifest.json"
        p.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
        return p


def _build_system(args) -> GreenSystem:
    cva = args.critical_value_angle
    if cva is not None:
        cva = _parse_values("--critical-value-angle", cva, Fraction, (1,))[0]
    return GreenSystem.from_c(complex(args.c, args.c_im), args.max_iter,
                              args.tol, cva)


def _parse_values(flag: str, text: str, cast, counts=None) -> list:
    """The comma-separated values of a flag, each made by `cast`.

    A value `cast` rejects, or a count not in `counts`, is a ConfigError.
    """
    try:
        values = [cast(t) for t in text.split(",")]
    except (ValueError, ZeroDivisionError):
        values = None
    if values is None or (counts is not None and len(values) not in counts):
        raise ConfigError(f"cannot parse {flag} value {text!r}")
    return values


def _parse_angle(s: str):
    return _parse_values("--angle", s, Fraction if "/" in s else float, (1,))[0]


def _parse_k(value: str) -> PotentialHomeo:
    if value == "id":
        return PotentialHomeo.identity()
    if value.startswith("scale:"):
        return PotentialHomeo.scaling(
            _parse_values("--k", value.split(":", 1)[1], float, (1,))[0])
    return deserialize_structure(Path(value).read_text()).k


def _parse_d(value: str) -> CircleCDF:
    if value == "id":
        return CircleCDF.identity()
    return deserialize_structure(Path(value).read_text()).d


def _structure_from_args(args) -> VirtualStructure | None:
    """The (d, k) of `collapse`, `rectify` and `converge`, from exactly one
    source: `--pair-k` (None: the pairing sets both), `--structure`, or
    `--d` and `--k`.  A second source is a ConfigError, before any work."""
    given = [flag for flag, on in (("--structure", args.structure),
                                   ("--d", args.d != "id"),
                                   ("--k", args.k != "id")) if on]
    if getattr(args, "pair_k", False):
        if given:
            raise ConfigError("--pair-k sets d and k; it cannot be combined "
                              "with --structure, --d or --k")
        return None
    if args.structure:
        if len(given) > 1:
            raise ConfigError("--structure sets d and k; it cannot be "
                              f"combined with {' or '.join(given[1:])}")
        return deserialize_structure(Path(args.structure).read_text())
    return VirtualStructure(_parse_d(args.d), _parse_k(args.k))


def _transport_map(args) -> TransportMap:
    """The transport map of `rectify` and `converge`, each system built once."""
    vs = _structure_from_args(args)
    if vs is None:
        return build_quadratic_pair(args.source_c, args.target_c)
    return TransportMap(GreenSystem.from_c(complex(args.source_c, 0.0)),
                        GreenSystem.from_c(complex(args.target_c, 0.0)), vs)


def _ring_points(sys: GreenSystem, g: float, n: int) -> list[complex]:
    """Exterior sample ring at fixed potential, angles off the access grid."""
    thetas = [((i + 0.5) / n + GOLDEN / n * 0.5) % 1.0 for i in range(n)]
    return descend_rays_bulk(sys, thetas, g).tolist()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _check_count(flag: str, n: int, cap: int, low: int = 1) -> None:
    """InvalidInput naming the flag unless low <= n <= cap."""
    if not low <= n <= cap:
        raise InvalidInput(f"{flag} {n} is outside [{low}, {cap}]")


def _cmd_green(args, sink: ArtifactSink) -> None:
    _check_count("--nx", args.nx, MAX_GRID_SIDE)
    _check_count("--ny", args.ny, MAX_GRID_SIDE)
    x0, x1, y0, y1 = _parse_values("--window", args.window, float, (4,))
    if not all(map(math.isfinite, (x0, x1, y0, y1))):
        raise InvalidInput(f"--window {args.window!r} is not finite")
    sys_ = _build_system(args)
    re = x0 + (x1 - x0) * (np.arange(args.nx) + 0.5) / args.nx
    im = y0 + (y1 - y0) * (np.arange(args.ny) + 0.5) / args.ny
    z = np.empty((args.ny, args.nx), dtype=complex)
    z.real, z.imag = re, im[:, None]
    g, err = escape_green_bulk(sys_, z)
    re = re.tolist()
    rows = (row for j, y in enumerate(im.tolist())
            for row in zip(re, repeat(y), g[j].tolist(), err[j].tolist()))
    sink.write_csv("green.csv", ["re", "im", "potential", "err_bound"], rows)


def _cmd_ray(args, sink: ArtifactSink) -> None:
    _check_count("--samples", args.samples, MAX_SAMPLES, low=2)
    sys_ = _build_system(args)
    pts = trace_ray(sys_, _parse_angle(args.angle), args.g_lo, args.g_hi,
                    args.samples)
    sink.write_csv("ray.csv", ["re", "im", "potential", "angle"],
                   [(p.point.real, p.point.imag, p.potential, p.angle)
                    for p in pts])
    if args.svg:
        sink.write_text("ray.svg", render.plane_svg(
            [([p.point for p in pts], "#4878a8", False)]))


def _cmd_equipot(args, sink: ArtifactSink) -> None:
    _check_count("--samples", args.samples, MAX_SAMPLES, low=3)
    sys_ = _build_system(args)
    curves = trace_equipotential(sys_, args.g, args.samples)
    rows = []
    for ci, curve in enumerate(curves):
        for p in curve:
            rows.append((ci, p.real, p.imag, args.g))
    sink.write_csv("equipot.csv", ["curve", "re", "im", "potential"], rows)
    if args.svg:
        sink.write_text("equipot.svg", render.plane_svg(
            [(c, "#4878a8", True) for c in curves]))


def _cmd_tree(args, sink: ArtifactSink) -> None:
    _check_count("--depth", args.depth, MAX_TREE_DEPTH)
    _check_count("--skeleton", args.skeleton, MAX_SKELETON_DEPTH, low=0)
    if args.m0 is not None and not 0.0 < args.m0 < math.inf:
        raise InvalidInput(f"--m0 {args.m0} is not finite and positive")
    sys_ = _build_system(args)
    tree = build_quadratic_tree(sys_, args.depth)
    sink.write_text("tree.json", serialize_tree(tree) + "\n")
    m0 = args.m0 if args.m0 is not None else \
        critical_potential(sys_) / (4.0 * math.pi)
    rep = thinness_report(tree, m0)
    sink.write_json("thinness.json", {
        "verdict": rep.verdict,
        "per_depth_min_modulus": list(rep.per_depth_min_modulus),
        "threshold": rep.threshold,
        "reasons": list(rep.reasons),
    })
    if args.skeleton:
        arcs = skeleton(sys_, min(args.depth, args.skeleton))
        pts = [p for arc in arcs for p in arc.polyline]
        angles = [float(arc.access_angles[0])
                  for arc in arcs for _ in arc.polyline]
        g, _ = escape_green_bulk(sys_, pts)
        sink.write_csv("skeleton.csv", ["re", "im", "potential", "angle"],
                       [(p.real, p.imag, gp, a)
                        for p, gp, a in zip(pts, g.tolist(), angles)])
    if args.svg:
        sink.write_text("tree.svg", render.tree_cylinder_svg(tree))


def _cmd_collapse(args, sink: ArtifactSink) -> None:
    vs = _structure_from_args(args)
    tree = deserialize_tree(Path(args.tree).read_text())
    rep = None
    if args.m0 is not None:
        rep = admissible(tree, vs, args.m0)
        rep.require_certified()
    out = collapse(tree, vs)
    sink.write_text("collapsed.json", serialize_tree(out) + "\n")
    if rep is not None:
        sink.write_json("admissibility.json", {
            "verdict": rep.verdict,
            "deleted_subtree_roots": list(rep.deleted_subtree_roots),
            "offending_branches": [list(b) for b in rep.offending_branches],
            "min_surviving_mod_xi": rep.min_surviving_mod_xi,
        })
    if args.svg:
        sink.write_text("collapse.svg", render.collapse_svg(tree, out))


def _cmd_rectify(args, sink: ArtifactSink) -> None:
    _check_count("--samples", args.samples, MAX_SAMPLES)
    _check_count("--hausdorff-rays", args.hausdorff_rays, MAX_SAMPLES)
    emit = set(args.emit.split(","))
    if not emit <= {"csv", "json", "svg"}:
        raise ConfigError(f"cannot parse --emit value {args.emit!r}: "
                          "kinds are csv, json, svg")
    tm = _transport_map(args)
    src = tm.source
    if args.hausdorff and not src.is_cantor:
        raise Connected("--hausdorff needs a Cantor source, with a "
                        "critical potential")
    rng = np.random.default_rng(args.seed)
    g_top = critical_potential(src) if src.is_cantor else 1.0
    rows = []
    max_pot_res = 0.0
    max_ang_res = 0.0
    for _ in range(args.samples):
        theta = float(rng.random())
        g = float(g_top * (0.2 + 1.3 * rng.random()))
        z = invert_green_coords(src, (theta, g))
        w, pr, ar = transport_with_residuals(tm, z)
        max_pot_res = max(max_pot_res, pr)
        max_ang_res = max(max_ang_res, ar)
        rows.append((theta, g, z.real, z.imag, w.real, w.imag, pr, ar))
    if "csv" in emit:
        sink.write_csv("rectify_residuals.csv",
                       ["theta", "g", "z_re", "z_im", "w_re", "w_im",
                        "potential_residual", "angle_residual"], rows)
    summary = {
        "source_c": args.source_c, "target_c": args.target_c,
        "samples": args.samples,
        "max_potential_residual": max_pot_res,
        "max_angle_residual": max_ang_res,
        "residual_tolerance": 20.0 * tm.tol,
    }
    if args.hausdorff:
        summary["one_sided_hausdorff"] = transported_boundary_distance(
            tm, n_rays=args.hausdorff_rays)
    if "json" in emit:
        sink.write_json("rectify_summary.json", summary)
    if "svg" in emit:
        curves = []
        for g in (0.25 * g_top, 0.5 * g_top):
            ring = [transport_exterior(tm, z)
                    for z in _ring_points(src, g, 160)]
            curves.append((ring, "#58a066", True))
        sink.write_text("rectify.svg", render.plane_svg(curves))


def _cmd_converge(args, sink: ArtifactSink) -> None:
    _check_count("--samples", args.samples, MAX_SAMPLES)
    n_list = _parse_values("--n-list", args.n_list, int)
    if min(n_list) < 1:
        raise InvalidInput(f"--n-list value {min(n_list)} is below 1")
    tm = _transport_map(args)
    g = args.ring_g if args.ring_g is not None else \
        (0.5 * critical_potential(tm.source) if tm.source.is_cantor else 0.5)
    samples = _ring_points(tm.source, g, args.samples)
    rows = convergence_study(tm, n_list, samples)
    sink.write_csv("converge.csv", ["n", "sup_distance", "dropped_samples"],
                   [(r.n, r.sup_distance, r.dropped_samples) for r in rows])


def _cmd_probe(args, sink: ArtifactSink) -> None:
    _check_count("--displacement-points", args.displacement_points,
                 MAX_SAMPLES)
    if not 0.0 < args.probe_g <= G_MAX:
        raise InvalidInput(f"--probe-g {args.probe_g} is outside (0, {G_MAX}]")
    sys_ = _build_system(args)
    cm = ContinuumMap(sys_, _parse_k(args.k))
    radii = _parse_values("--radii", args.radii, float)
    z0 = complex(*_parse_values("--z0", args.z0, float, (1, 2)))
    probes = boundary_derivative_probe(cm, z0, radii)
    cloud = julia_samples(sys_, 14)
    n = args.displacement_points
    thetas = [((i + 0.5) / n + GOLDEN) % 1.0 for i in range(n)]
    points = descend_rays_bulk(sys_, thetas, args.probe_g).tolist()
    rows = []
    for theta, z in zip(thetas, points):
        est = quasihyperbolic_displacement(cm, z, boundary=cloud)
        rows.append((theta, z.real, z.imag, est.integral, est.estimate,
                     est.log_c, int(est.bound_ok())))
    sink.write_csv("probe_quotients.csv",
                   ["radius", "dir_re", "dir_im", "q_re", "q_im"],
                   [(p.radius, p.direction.real, p.direction.imag,
                     p.quotient.real, p.quotient.imag) for p in probes])
    sink.write_csv("displacement.csv",
                   ["theta", "re", "im", "integral", "estimate", "log_c",
                    "bound_ok"], rows)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_system_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--c", type=float, required=True,
                   help="real part of the parameter c")
    p.add_argument("--c-im", type=float, default=0.0, dest="c_im",
                   help="imaginary part of c (default %(default)s)")
    p.add_argument("--max-iter", type=int, default=256, dest="max_iter",
                   help="escape iterations (default %(default)s)")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="potential tolerance (default %(default)s)")
    p.add_argument("--critical-value-angle", default=None,
                   dest="critical_value_angle",
                   help="rational like 3/10, for a Cantor c off the real "
                        "ray c < -2; c fixes it elsewhere, and a value "
                        "that disagrees is InvalidInput")


def _add_structure_flags(p: argparse.ArgumentParser,
                         structure_help: str | None = None) -> None:
    p.add_argument("--structure", default=None, help=structure_help)
    p.add_argument("--d", default="id")
    p.add_argument("--k", default="id")


def _add_pair_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--source-c", type=float, required=True, dest="source_c")
    p.add_argument("--target-c", type=float, required=True, dest="target_c")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="greenray",
        description="Green coordinates, analytic trees and rectifications "
                    "for quadratic Julia sets")
    ap.add_argument("--output-dir", default="out")
    ap.add_argument("--seed", type=int, default=0)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("green", help="Green potential on a grid")
    _add_system_flags(p)
    p.add_argument("--window", default="-3,3,-3,3",
                   help="x0,x1,y0,y1 of the sampling rectangle")
    p.add_argument("--nx", type=int, default=64,
                   help=f"grid columns, at most {MAX_GRID_SIDE}")
    p.add_argument("--ny", type=int, default=64,
                   help=f"grid rows, at most {MAX_GRID_SIDE}")
    p.set_defaults(func=_cmd_green)

    p = sub.add_parser("ray", help="trace one external ray")
    _add_system_flags(p)
    p.add_argument("--angle", required=True, help="angle in turns (e.g. 1/3)")
    p.add_argument("--g-lo", type=float, required=True, dest="g_lo")
    p.add_argument("--g-hi", type=float, required=True, dest="g_hi")
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--svg", action="store_true")
    p.set_defaults(func=_cmd_ray)

    p = sub.add_parser("equipot", help="trace an equipotential level")
    _add_system_flags(p)
    p.add_argument("--g", type=float, required=True)
    p.add_argument("--samples", type=int, default=128,
                   help="points per component curve")
    p.add_argument("--svg", action="store_true")
    p.set_defaults(func=_cmd_equipot)

    p = sub.add_parser("tree", help="build the analytic tree")
    _add_system_flags(p)
    p.add_argument("--depth", type=int, required=True,
                   help=f"tree depth, at most {MAX_TREE_DEPTH}")
    p.add_argument("--m0", type=float, default=None,
                   help="thinness threshold (default G(0)/4pi)")
    p.add_argument("--skeleton", type=int, default=0, metavar="DEPTH",
                   help="also emit skeleton arcs down to this depth as CSV "
                        f"(at most {MAX_SKELETON_DEPTH})")
    p.add_argument("--svg", action="store_true")
    p.set_defaults(func=_cmd_tree)

    p = sub.add_parser("collapse", help="collapse a tree by a structure")
    p.add_argument("--tree", required=True, help="tree JSON path")
    _add_structure_flags(p, "structure JSON path")
    p.add_argument("--m0", type=float, default=None,
                   help="certify admissibility at this threshold first")
    p.add_argument("--svg", action="store_true")
    p.set_defaults(func=_cmd_collapse)

    p = sub.add_parser("rectify", help="transport exterior samples")
    _add_pair_flags(p)
    _add_structure_flags(p)
    p.add_argument("--pair-k", action="store_true", dest="pair_k",
                   help="use the dyadic-level pairing map as (d, k); not "
                        "with --structure, or --d or --k other than id")
    p.add_argument("--samples", type=int, default=200,
                   help=f"exterior samples, at most {MAX_SAMPLES}")
    p.add_argument("--emit", default="csv,json",
                   help="comma-separated artifacts, any of csv,json,svg")
    p.add_argument("--hausdorff", action="store_true",
                   help="also measure transported boundary proximity")
    p.add_argument("--hausdorff-rays", type=int, default=2048,
                   dest="hausdorff_rays",
                   help=f"rays of --hausdorff, at most {MAX_SAMPLES}")
    p.set_defaults(func=_cmd_rectify)

    p = sub.add_parser("converge", help="Lipschitz approximation study")
    _add_pair_flags(p)
    _add_structure_flags(p)
    p.add_argument("--n-list", default="1,2,4,8,16,32,64", dest="n_list")
    p.add_argument("--samples", type=int, default=64,
                   help=f"ring samples, at most {MAX_SAMPLES}")
    p.add_argument("--ring-g", type=float, default=None, dest="ring_g")
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("probe", help="continuum-map boundary probes")
    _add_system_flags(p)
    p.add_argument("--k", default="scale:1.5")
    p.add_argument("--z0", default="1.0,0.0")
    p.add_argument("--radii", default="0.1,0.01,0.001")
    p.add_argument("--probe-g", type=float, default=0.05, dest="probe_g")
    p.add_argument("--displacement-points", type=int, default=16,
                   dest="displacement_points",
                   help=f"displacement queries, at most {MAX_SAMPLES}")
    p.set_defaults(func=_cmd_probe)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.seed < 0:
            raise InvalidInput(f"--seed {args.seed} is below 0")
        sink = ArtifactSink(Path(args.output_dir))
        args.func(args, sink)
        cli_cfg = {k: v for k, v in sorted(vars(args).items())
                   if k not in ("func",) and v is not None}
        cli_cfg = {k: (v if not isinstance(v, float) or math.isfinite(v) else None)
                   for k, v in cli_cfg.items()}
        sink.manifest(args.command, cli_cfg)
    except GreenrayError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: ConfigError: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
