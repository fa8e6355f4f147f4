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
from pathlib import Path

import numpy as np

from . import render
from .errors import ConfigError, GreenrayError
from .potential import (GreenSystem, critical_potential, descend_rays_bulk,
                        escape_green, invert_green_coords, skeleton,
                        trace_equipotential, trace_ray)
from .rectify import (ContinuumMap, TransportMap, boundary_derivative_probe,
                      build_quadratic_pair, convergence_study,
                      quasihyperbolic_displacement, transport_exterior,
                      transport_residuals, transported_boundary_distance)
from .structures import (CircleCDF, PotentialHomeo, VirtualStructure,
                         admissible, collapse, deserialize_structure,
                         serialize_structure)
from .tree import (build_quadratic_tree, deserialize_tree, serialize_tree,
                   thinness_report)

GOLDEN = 0.6180339887498949


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
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(repr(v) if isinstance(v, float) else str(v)
                                  for v in row))
        return self.write_text(name, "\n".join(lines) + "\n")

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


def _read_config(path: str | None) -> dict:
    if path is None:
        return {}
    out = {}
    try:
        for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, val = (s.strip() for s in line.split("=", 1))
            out[key] = val
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return out


def _build_system(args, cfg: dict) -> GreenSystem:
    def pick(flag, key, cast, default=None):
        v = getattr(args, flag, None)
        if v is not None:
            return v
        if key in cfg:
            return cast(cfg[key])
        return default

    c_re = pick("c", "c_re", float)
    if c_re is None:
        raise ConfigError("parameter c is required (flag or config c_re)")
    c_im = pick("c_im", "c_im", float, 0.0)
    esc = pick("escape_radius", "escape_radius", float)
    max_iter = int(pick("max_iter", "max_iter", int, 256))
    tol = float(pick("tol", "tol", float, 1e-9))
    cva = getattr(args, "critical_value_angle", None)
    kwargs = {}
    if cva is not None:
        kwargs["critical_value_angle"] = Fraction(cva)
    return GreenSystem.from_c(complex(c_re, c_im), escape_radius=esc,
                              max_iter=max_iter, tol=tol, **kwargs)


def _parse_angle(s: str):
    if "/" in s:
        return Fraction(s)
    return float(s)


def _parse_k(value: str) -> PotentialHomeo:
    if value == "id":
        return PotentialHomeo.identity()
    if value.startswith("scale:"):
        return PotentialHomeo.scaling(float(value.split(":", 1)[1]))
    return deserialize_structure(Path(value).read_text()).k


def _parse_d(value: str) -> CircleCDF:
    if value == "id":
        return CircleCDF.identity()
    return deserialize_structure(Path(value).read_text()).d


def _structure_from_args(args) -> VirtualStructure:
    if getattr(args, "structure", None):
        return deserialize_structure(Path(args.structure).read_text())
    return VirtualStructure(_parse_d(getattr(args, "d", "id") or "id"),
                            _parse_k(getattr(args, "k", "id") or "id"))


def _ring_points(sys: GreenSystem, g: float, n: int) -> list[complex]:
    """Exterior sample ring at fixed potential, angles off the access grid."""
    thetas = [((i + 0.5) / n + GOLDEN / n * 0.5) % 1.0 for i in range(n)]
    return descend_rays_bulk(sys, thetas, g).tolist()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_green(args, cfg, sink: ArtifactSink) -> None:
    sys_ = _build_system(args, cfg)
    try:
        x0, x1, y0, y1 = (float(t) for t in args.window.split(","))
    except ValueError:
        raise ConfigError(
            f"--window expects x0,x1,y0,y1, got {args.window!r}") from None
    rows = []
    for j in range(args.ny):
        for i in range(args.nx):
            re = x0 + (x1 - x0) * (i + 0.5) / args.nx
            im = y0 + (y1 - y0) * (j + 0.5) / args.ny
            g, err = escape_green(sys_, complex(re, im))
            rows.append((re, im, g, err))
    sink.write_csv("green.csv", ["re", "im", "potential", "err_bound"], rows)


def _cmd_ray(args, cfg, sink: ArtifactSink) -> None:
    sys_ = _build_system(args, cfg)
    pts = trace_ray(sys_, _parse_angle(args.angle), args.g_lo, args.g_hi,
                    args.samples)
    sink.write_csv("ray.csv", ["re", "im", "potential", "angle"],
                   [(p.point.real, p.point.imag, p.potential, p.angle)
                    for p in pts])
    if args.svg:
        sink.write_text("ray.svg", render.plane_svg(
            [([p.point for p in pts], "#4878a8", False)]))


def _cmd_equipot(args, cfg, sink: ArtifactSink) -> None:
    sys_ = _build_system(args, cfg)
    curves = trace_equipotential(sys_, args.g, args.samples)
    rows = []
    for ci, curve in enumerate(curves):
        for p in curve:
            rows.append((ci, p.real, p.imag, args.g))
    sink.write_csv("equipot.csv", ["curve", "re", "im", "potential"], rows)
    if args.svg:
        sink.write_text("equipot.svg", render.plane_svg(
            [(c, "#4878a8", True) for c in curves]))


def _cmd_tree(args, cfg, sink: ArtifactSink) -> None:
    sys_ = _build_system(args, cfg)
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
        rows = []
        for arc in skeleton(sys_, min(args.depth, args.skeleton)):
            a = float(arc.access_angles[0])
            for p in arc.polyline:
                g, _ = escape_green(sys_, p)
                rows.append((p.real, p.imag, g, a))
        sink.write_csv("skeleton.csv", ["re", "im", "potential", "angle"],
                       rows)
    if args.svg:
        sink.write_text("tree.svg", render.tree_cylinder_svg(tree))


def _cmd_collapse(args, cfg, sink: ArtifactSink) -> None:
    tree = deserialize_tree(Path(args.tree).read_text())
    vs = _structure_from_args(args)
    out = collapse(tree, vs, m0=args.m0)
    sink.write_text("collapsed.json", serialize_tree(out) + "\n")
    rep = admissible(tree, vs, args.m0) if args.m0 is not None else None
    if rep is not None:
        sink.write_json("admissibility.json", {
            "verdict": rep.verdict,
            "deleted_subtree_roots": list(rep.deleted_subtree_roots),
            "offending_branches": [list(b) for b in rep.offending_branches],
            "min_surviving_mod_xi": rep.min_surviving_mod_xi,
        })
    if args.svg:
        sink.write_text("collapse.svg", render.collapse_svg(tree, out))


def _cmd_rectify(args, cfg, sink: ArtifactSink) -> None:
    vs = _structure_from_args(args)
    src = GreenSystem.from_c(complex(args.source_c, 0.0))
    tgt = GreenSystem.from_c(complex(args.target_c, 0.0))
    if args.pair_k:
        tm = build_quadratic_pair(args.source_c, args.target_c)
    else:
        tm = TransportMap(src, tgt, vs)
    rng = np.random.default_rng(args.seed)
    g_top = critical_potential(src) if src.is_cantor else 1.0
    rows = []
    max_pot_res = 0.0
    max_ang_res = 0.0
    for _ in range(args.samples):
        theta = float(rng.random())
        g = float(g_top * (0.2 + 1.3 * rng.random()))
        z = invert_green_coords(tm.source, (theta, g))
        w = transport_exterior(tm, z)
        pr, ar = transport_residuals(tm, z)
        max_pot_res = max(max_pot_res, pr)
        max_ang_res = max(max_ang_res, ar)
        rows.append((theta, g, z.real, z.imag, w.real, w.imag, pr, ar))
    emit = set(args.emit.split(","))
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
    if args.hausdorff and src.is_cantor and tgt.is_cantor:
        summary["one_sided_hausdorff"] = transported_boundary_distance(
            tm, n_rays=args.hausdorff_rays)
    if "json" in emit:
        sink.write_json("rectify_summary.json", summary)
    if "svg" in emit:
        curves = []
        for g in (0.25 * g_top, 0.5 * g_top):
            ring = [transport_exterior(tm, z)
                    for z in _ring_points(tm.source, g, 160)]
            curves.append((ring, "#58a066", True))
        sink.write_text("rectify.svg", render.plane_svg(curves))


def _cmd_converge(args, cfg, sink: ArtifactSink) -> None:
    src = GreenSystem.from_c(complex(args.source_c, 0.0))
    tgt = GreenSystem.from_c(complex(args.target_c, 0.0))
    vs = _structure_from_args(args)
    tm = TransportMap(src, tgt, vs)
    n_list = [int(s) for s in args.n_list.split(",")]
    g = args.ring_g if args.ring_g is not None else \
        (0.5 * critical_potential(src) if src.is_cantor else 0.5)
    samples = _ring_points(src, g, args.samples)
    rows = convergence_study(tm, n_list, samples)
    sink.write_csv("converge.csv", ["n", "sup_distance", "dropped_samples"],
                   [(r.n, r.sup_distance, r.dropped_samples) for r in rows])


def _cmd_probe(args, cfg, sink: ArtifactSink) -> None:
    sys_ = _build_system(args, cfg)
    cm = ContinuumMap(sys_, _parse_k(args.k))
    radii = [float(s) for s in args.radii.split(",")]
    z0 = complex(*[float(s) for s in args.z0.split(",")])
    probes = boundary_derivative_probe(cm, z0, radii)
    sink.write_csv("probe_quotients.csv",
                   ["radius", "dir_re", "dir_im", "q_re", "q_im"],
                   [(p.radius, p.direction.real, p.direction.imag,
                     p.quotient.real, p.quotient.imag) for p in probes])
    rows = []
    for i in range(args.displacement_points):
        theta = ((i + 0.5) / args.displacement_points + GOLDEN) % 1.0
        z = invert_green_coords(sys_, (theta, args.probe_g))
        est = quasihyperbolic_displacement(cm, z)
        rows.append((theta, z.real, z.imag, est.integral, est.estimate,
                     est.log_c, int(est.bound_ok())))
    sink.write_csv("displacement.csv",
                   ["theta", "re", "im", "integral", "estimate", "log_c",
                    "bound_ok"], rows)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_system_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--c", type=float, default=None,
                   help="real part of the parameter c")
    p.add_argument("--c-im", type=float, default=None, dest="c_im",
                   help="imaginary part of c (default 0)")
    p.add_argument("--escape-radius", type=float, default=None,
                   dest="escape_radius")
    p.add_argument("--max-iter", type=int, default=None, dest="max_iter")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--critical-value-angle", default=None,
                   dest="critical_value_angle",
                   help="rational like 1/2; required for non-real Cantor c")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="greenray",
        description="Green coordinates, analytic trees and rectifications "
                    "for quadratic Julia sets")
    ap.add_argument("--output-dir", default="out")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--config", default=None,
                    help="key=value file: c_re, c_im, escape_radius, "
                         "max_iter, tol")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("green", help="Green potential on a grid")
    _add_system_flags(p)
    p.add_argument("--window", default="-3,3,-3,3",
                   help="x0,x1,y0,y1 of the sampling rectangle")
    p.add_argument("--nx", type=int, default=64)
    p.add_argument("--ny", type=int, default=64)
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
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--m0", type=float, default=None,
                   help="thinness threshold (default G(0)/4pi)")
    p.add_argument("--skeleton", type=int, default=0, metavar="DEPTH",
                   help="also emit skeleton arcs down to this depth as CSV")
    p.add_argument("--svg", action="store_true")
    p.set_defaults(func=_cmd_tree)

    p = sub.add_parser("collapse", help="collapse a tree by a structure")
    p.add_argument("--tree", required=True, help="tree JSON path")
    p.add_argument("--structure", default=None, help="structure JSON path")
    p.add_argument("--d", default="id")
    p.add_argument("--k", default="id")
    p.add_argument("--m0", type=float, default=None,
                   help="certify admissibility at this threshold first")
    p.add_argument("--svg", action="store_true")
    p.set_defaults(func=_cmd_collapse)

    p = sub.add_parser("rectify", help="transport exterior samples")
    p.add_argument("--source-c", type=float, required=True, dest="source_c")
    p.add_argument("--target-c", type=float, required=True, dest="target_c")
    p.add_argument("--structure", default=None)
    p.add_argument("--d", default="id")
    p.add_argument("--k", default="id")
    p.add_argument("--pair-k", action="store_true", dest="pair_k",
                   help="use the dyadic-level pairing map for k")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--emit", default="csv,json", help="any of csv,svg,json")
    p.add_argument("--hausdorff", action="store_true",
                   help="also measure transported boundary proximity")
    p.add_argument("--hausdorff-rays", type=int, default=2048,
                   dest="hausdorff_rays")
    p.set_defaults(func=_cmd_rectify)

    p = sub.add_parser("converge", help="Lipschitz approximation study")
    p.add_argument("--source-c", type=float, required=True, dest="source_c")
    p.add_argument("--target-c", type=float, required=True, dest="target_c")
    p.add_argument("--structure", default=None)
    p.add_argument("--d", default="id")
    p.add_argument("--k", default="id")
    p.add_argument("--n-list", default="1,2,4,8,16,32,64", dest="n_list")
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--ring-g", type=float, default=None, dest="ring_g")
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("probe", help="continuum-map boundary probes")
    _add_system_flags(p)
    p.add_argument("--k", default="scale:1.5")
    p.add_argument("--z0", default="1.0,0.0")
    p.add_argument("--radii", default="0.1,0.01,0.001")
    p.add_argument("--probe-g", type=float, default=0.05, dest="probe_g")
    p.add_argument("--displacement-points", type=int, default=16,
                   dest="displacement_points")
    p.set_defaults(func=_cmd_probe)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        cfg = _read_config(args.config)
        sink = ArtifactSink(Path(args.output_dir))
        args.func(args, cfg, sink)
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
