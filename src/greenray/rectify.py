"""Generalized rectifications realized as Green-coordinate transport maps.

The rectification of a potential/virtual structure (d, k) between two
systems acts on the exterior by

    h(z) = chart_target^{-1}( d(theta_source(z)), k(G_source(z)) ),

so G_target(h(z)) = k(G_source(z)) and theta_target(h(z)) = d(theta_source(z))
hold by construction up to numerical residuals.  Charts fix infinity with
the Böttcher tangency, which pins the normalization without Möbius
post-composition.

For a connected Julia set and d = id this is the continuum map l: it fixes
rays, moves potentials by k, and its quasihyperbolic displacement is bounded
by log C for a C-bilipschitz k; both the displacement integral and boundary
difference quotients are exposed as numeric probes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .angles import circ_dist
from .errors import (CombinatoricsMismatch, Connected, GreenrayError, InsideK,
                     InvalidInput, RayCrash, TargetRayCrash)
from .potential import (GreenSystem, critical_potential, descend_rays_bulk,
                        escape_green, invert_green_coords, julia_samples,
                        log_bottcher, trace_ray)
from .structures import (CircleCDF, PotentialHomeo, VirtualStructure,
                         lipschitz_approx_d, lipschitz_approx_k)


def chordal_distance(a: complex, b: complex) -> float:
    """Distance in the spherical (chordal) metric."""
    num = 2.0 * abs(a - b)
    den = math.sqrt((1.0 + abs(a) ** 2) * (1.0 + abs(b) ** 2))
    return num / den


@dataclass(frozen=True)
class TransportMap:
    source: GreenSystem
    target: GreenSystem
    vs: VirtualStructure
    normalization: str = "infinity fixed; Böttcher tangency pins the charts"

    @property
    def tol(self) -> float:
        return max(self.source.tol, self.target.tol)


def transport_exterior(tm: TransportMap, z: complex) -> complex:
    """Transport one exterior point through the Green charts.

    Raises what the source chart raises (InsideK, OnSkeleton); a landing on
    a target critical ray is retried once with the angle nudged by +-2^-45
    before giving up with TargetRayCrash.
    """
    gc = log_bottcher(tm.source, z)
    theta = tm.vs.d(gc.angle) % 1.0
    g = tm.vs.k(gc.potential)
    try:
        return invert_green_coords(tm.target, (theta, g))
    except RayCrash:
        pass
    for eps in (2.0 ** -45, -2.0 ** -45):
        try:
            return invert_green_coords(tm.target, ((theta + eps) % 1.0, g))
        except RayCrash:
            continue
    raise TargetRayCrash(
        f"transported coordinate ({theta}, {g}) sits on a critical ray of "
        "the target and nudging failed")


def transport_residuals(tm: TransportMap, z: complex) -> tuple[float, float]:
    """Defining-equation residuals (|potential|, angle distance) at z."""
    gc = log_bottcher(tm.source, z)
    w = transport_exterior(tm, z)
    gcw = log_bottcher(tm.target, w)
    return (abs(gcw.potential - tm.vs.k(gc.potential)),
            circ_dist(gcw.angle, tm.vs.d(gc.angle) % 1.0))


def build_quadratic_pair(c: float, c_prime: float, depth: int = 10) -> TransportMap:
    """Rectification data between two real Cantor quadratics.

    Both parameters lie on the real external ray (critical value angle 1/2)
    so d = id intertwines the ray combinatorics; k maps the dyadic critical
    levels G_c(0)/2^n onto G_c'(0)/2^n for n <= depth and continues linearly
    above the top level.
    """
    src = GreenSystem.from_c(complex(c, 0.0))
    tgt = GreenSystem.from_c(complex(c_prime, 0.0))
    if not (src.is_cantor and tgt.is_cantor
            and src.critical_value_angle == Fraction(1, 2)
            and tgt.critical_value_angle == Fraction(1, 2)):
        raise CombinatoricsMismatch(
            "quadratic pairs require two Cantor parameters on the real ray")
    g0, g1 = critical_potential(src), critical_potential(tgt)
    bps = [(0.0, 0.0)]
    bps += [(g0 * 0.5 ** n, g1 * 0.5 ** n) for n in range(depth, -1, -1)]
    k = PotentialHomeo(tuple(bps))
    vs = VirtualStructure(CircleCDF.identity(), k)

    return TransportMap(src, tgt, vs)


# ---------------------------------------------------------------------------
# Continuum maps (connected case)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContinuumMap:
    """Ray-preserving potential reparametrization outside a continuum."""

    system: GreenSystem
    k: PotentialHomeo

    def __post_init__(self):
        if self.system.is_cantor:
            raise Connected("continuum maps require a connected Julia set")

    @property
    def log_bilipschitz(self) -> float:
        return math.log(self.k.bilipschitz_constant)


def continuum_map(cm: ContinuumMap, z: complex) -> complex:
    """l(z): same external ray, potential moved from G(z) to k(G(z))."""
    gc = log_bottcher(cm.system, z)
    return invert_green_coords(cm.system, (gc.angle, cm.k(gc.potential)))


class DisplacementEstimate(NamedTuple):
    estimate: float          # 2 * integral; between d_P and 4 d_P (Koebe)
    integral: float          # quasihyperbolic ray length between z and l(z)
    log_c: float             # log of the bilipschitz constant of k
    potential: float
    potential_image: float

    def bound_ok(self, slack: float = 0.1) -> bool:
        return self.estimate / 2.0 <= self.log_c + slack


def quasihyperbolic_displacement(cm: ContinuumMap, z: complex,
                                 boundary: np.ndarray | None = None,
                                 julia_depth: int = 14,
                                 n_steps: int = 160) -> DisplacementEstimate:
    """Quasihyperbolic length of the ray segment joining z to l(z).

    Integrates |dz|/delta(z) along the external ray between the potentials
    G(z) and k(G(z)), with delta the distance to an inverse-iteration sample
    cloud of the Julia set.  With the hyperbolic density lambda of metric
    2|dv|/(1 - |v|^2), the Schwarz lemma and Koebe's 1/4 theorem give only
    1/(2 delta) <= lambda <= 2/delta, so along the ray (a hyperbolic
    geodesic for connected K_c) d_P/2 <= integral <= 2 d_P for the exact
    delta and d_P = d_P(l(z), z): `estimate` = 2 integral lies between d_P
    and 4 d_P.  A cloud inside J overestimates delta and so lowers the
    integral.  `bound_ok` compares estimate/2 with log C plus a sampling
    slack, a heuristic check.
    """
    gc = log_bottcher(cm.system, z)
    g_a, g_b = gc.potential, cm.k(gc.potential)
    if g_a == g_b:
        return DisplacementEstimate(0.0, 0.0, cm.log_bilipschitz, g_a, g_b)
    lo, hi = min(g_a, g_b), max(g_a, g_b)
    pts = [p.point for p in trace_ray(cm.system, gc.angle, lo, hi, n_steps + 1)]
    if boundary is None:
        boundary = julia_samples(cm.system, julia_depth)
    tree = cKDTree(np.c_[np.asarray(boundary).real, np.asarray(boundary).imag])
    arr = np.asarray(pts)
    mids = 0.5 * (arr[1:] + arr[:-1])
    deltas, _ = tree.query(np.c_[mids.real, mids.imag])
    steps = np.abs(np.diff(arr))
    integral = float(np.sum(steps / deltas))
    return DisplacementEstimate(2.0 * integral, integral, cm.log_bilipschitz,
                                g_a, g_b)


class ProbeSample(NamedTuple):
    radius: float
    direction: complex       # unit step direction
    quotient: complex        # (l(z0 + h) - z0) / h


def boundary_derivative_probe(cm: ContinuumMap, z0: complex,
                              radii: Sequence[float],
                              n_directions: int = 8) -> list[ProbeSample]:
    """Difference quotients of l at a Julia boundary point.

    Probes h = r e^(i phi) over the radii and directions, skipping
    directions that land inside the Julia set; reports raw quotients,
    interpretation is left to the caller.
    """
    radii = list(radii)
    if any(r2 >= r1 for r1, r2 in zip(radii, radii[1:])):
        raise InvalidInput("radii must be strictly decreasing")
    out: list[ProbeSample] = []
    for r in radii:
        for j in range(n_directions):
            direction = cmath.exp(2j * math.pi * j / n_directions)
            h = r * direction
            zp = z0 + h
            g, _ = escape_green(cm.system, zp)
            if g <= 0.0:
                continue
            w = continuum_map(cm, zp)
            out.append(ProbeSample(r, direction, (w - z0) / h))
    return out


# ---------------------------------------------------------------------------
# Convergence of Lipschitz approximations
# ---------------------------------------------------------------------------

class ConvergenceRow(NamedTuple):
    n: int
    sup_distance: float
    dropped_samples: int


def convergence_study(tm: TransportMap, n_list: Sequence[int],
                      samples: Sequence[complex]) -> list[ConvergenceRow]:
    """Sup spherical distance between h and its Lipschitz approximants.

    For each n the structure is replaced by (d_n, k_n) from the slope
    capping / flat ramping constructions and the transported images are
    compared over the sample grid; samples where either transport fails are
    dropped and counted.
    """
    ref: dict[int, complex] = {}
    for i, z in enumerate(samples):
        try:
            ref[i] = transport_exterior(tm, z)
        except GreenrayError:
            continue
    rows: list[ConvergenceRow] = []
    for n in n_list:
        vs_n = VirtualStructure(lipschitz_approx_d(tm.vs.d, n),
                                lipschitz_approx_k(tm.vs.k, n))
        tm_n = TransportMap(tm.source, tm.target, vs_n)
        sup = 0.0
        dropped = len(samples) - len(ref)
        for i, z in enumerate(samples):
            if i not in ref:
                continue
            try:
                w = transport_exterior(tm_n, z)
            except GreenrayError:
                dropped += 1
                continue
            sup = max(sup, chordal_distance(w, ref[i]))
        rows.append(ConvergenceRow(int(n), sup, dropped))
    return rows


# ---------------------------------------------------------------------------
# Boundary proximity (Hausdorff-style probe)
# ---------------------------------------------------------------------------

def transported_boundary_distance(tm: TransportMap, n_rays: int = 4096,
                                  potential_factor: float = 1e-4,
                                  julia_depth: int = 16) -> float:
    """One-sided Hausdorff distance from transported deep ray endpoints of
    the source to a Julia sample cloud of the target.

    Ray endpoints are taken at potential_factor * G_src(0) on an angle grid
    offset away from all dyadic access angles; they approximate the
    continuous extension of the transport to the Julia set.
    """
    src, tgt = tm.source, tm.target
    g_end = potential_factor * critical_potential(src)
    offset = 1.0 / 9973.0
    thetas = (np.arange(n_rays) + 0.5) / n_rays + offset
    d = tm.vs.d
    k = tm.vs.k
    thetas_t = np.array([d(t) % 1.0 for t in thetas])
    pts = descend_rays_bulk(tgt, thetas_t, k(g_end))
    cloud = julia_samples(tgt, julia_depth)
    tree = cKDTree(np.c_[cloud.real, cloud.imag])
    dist, _ = tree.query(np.c_[pts.real, pts.imag])
    return float(dist.max())
