"""Generalized rectifications realized as Green-coordinate transport maps.

The rectification of a potential/virtual structure (d, k) between two
systems acts on the exterior by

    h(z) = chart_target^{-1}( d(theta_source(z)), k(G_source(z)) ),

so G_target(h(z)) = k(G_source(z)) and theta_target(h(z)) = d(theta_source(z))
hold by construction up to numerical residuals.  Charts fix infinity with
the Böttcher tangency, which pins the normalization without Möbius
post-composition.

For a connected Julia set, d = id from a system to itself is the continuum
map l (`ContinuumMap`): it fixes rays, moves potentials by k, and its
hyperbolic displacement is at most log C for a C-bilipschitz k; the
displacement integral and boundary difference quotients are numeric probes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .angles import circ_dist
from .errors import (CombinatoricsMismatch, Connected, GreenrayError,
                     InsideK, InvalidInput, RayCrash, TargetRayCrash)
from .potential import (GreenCoordinate, GreenSystem, critical_potential,
                        descend_rays_bulk, invert_green_coords,
                        julia_samples, log_bottcher, trace_ray)
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

    @property
    def tol(self) -> float:
        return max(self.source.tol, self.target.tol)


def transport_exterior(tm: TransportMap, z: complex) -> complex:
    """Transport one exterior point through the Green charts.

    Raises what the source chart raises (InsideK, OnSkeleton).  A target
    descent that raises RayCrash (a crash potential or a precritical point)
    is retried at the angle +2^-45, then -2^-45, before TargetRayCrash: the
    one crash policy of every rectification, continuum maps included.
    """
    return _to_target(tm, log_bottcher(tm.source, z))


def _to_target(tm: TransportMap, gc: GreenCoordinate) -> complex:
    """The target point of a source coordinate (`transport_exterior`)."""
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
        f"the target descent of ({theta}, {g}) crashes, and so do those "
        "nudged by +-2^-45")


def transport_residuals(tm: TransportMap, z: complex) -> tuple[float, float]:
    """Defining-equation residuals (|potential|, angle distance) at z."""
    return transport_with_residuals(tm, z)[1:]


def transport_with_residuals(tm: TransportMap,
                             z: complex) -> tuple[complex, float, float]:
    """`transport_exterior` and `transport_residuals` from one transport:
    (w, potential residual, angle residual)."""
    gc = log_bottcher(tm.source, z)
    w = _to_target(tm, gc)
    gcw = log_bottcher(tm.target, w)
    return (w, abs(gcw.potential - tm.vs.k(gc.potential)),
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

class ContinuumMap(TransportMap):
    """The continuum map l: the transport with d = id from a connected
    system to itself, moving G(z) to k(G(z)) along each external ray."""

    def __init__(self, system: GreenSystem, k: PotentialHomeo):
        if system.is_cantor:
            raise Connected("continuum maps require a connected Julia set")
        super().__init__(system, system,
                         VirtualStructure(CircleCDF.identity(), k))

    @property
    def log_bilipschitz(self) -> float:
        return math.log(self.vs.k.bilipschitz_constant)


_PAD = 1.0 + 2.0 ** -20     # relative slack over a few roundings
_TINY = 2.0 ** -500         # absolute slack over squares that underflow
_CHUNK = 16                 # queries per scan in `_cloud_distances`


def _cloud_distances(cloud, pts) -> np.ndarray:
    """Distance from each query point to the nearest point of the cloud.

    Each query m gets min over the whole cloud of D(p, m) = sqrt(dx*dx +
    dy*dy) in floats, the arithmetic of a p = 2 KD-tree query, bit for bit.
    D, and np.abs (hypot), are within a relative 2^-50 of the true |p - m|,
    plus at most 2^-537 where squares underflow.  So a bound computed from
    a few such values, times _PAD = 1 + 2^-20 plus _TINY = 2^-500, is at
    least the true value it bounds.  Let q be a cloud point with the least
    D(q, m); then |q - m| <= |p - m| for every cloud point p, up to that
    rounding.  The four steps keep q in view:

    1. One scan of the cloud: d0 = |cloud - m0| for the first query m0,
       p* the cloud point with the least d0, R = max |m - p*| and
       S = max |m - m0| over the queries.  |q - m0| <= |q - m| + |m - m0|
       <= R + S, so q survives the cut d0 <= (R + S) _PAD + _TINY.
    2. The kept points sorted by x.  For each query, its nearest few
       x-neighbours and p* give ub >= |q - m| once padded, so q.x lies in
       [m.x - ub, m.x + ub].  Rounding is monotone and q.x is a float, so
       the window ends computed in floats still hold it, and so does the
       searchsorted slice between them.
    3. The queries in x order, _CHUNK at a time: each chunk scans the one
       slice of sorted points covering its members' windows and takes each
       row's least dx*dx + dy*dy.
    4. One square root at the end.

    Temporaries are O(_CHUNK x slice).  An empty cloud, or one with a
    non-finite point, is InvalidInput.
    """
    cloud = np.ascontiguousarray(cloud, dtype=complex).ravel()
    pts = np.ascontiguousarray(pts, dtype=complex).ravel()
    if cloud.size == 0:
        raise InvalidInput("the boundary cloud is empty")
    if not np.isfinite(cloud).all():
        raise InvalidInput("the boundary cloud has a non-finite point")
    m0 = pts[0]
    d0 = np.abs(cloud - m0)
    to_star = np.abs(pts - cloud[np.argmin(d0)])
    bound = (to_star.max() + np.abs(pts - m0).max()) * _PAD + _TINY
    kept = cloud[d0 <= bound]
    kept = kept[np.argsort(kept.real)]
    xs, ys = kept.real.copy(), kept.imag.copy()
    order = np.argsort(pts.real)
    q = pts[order]
    near = np.searchsorted(xs, q.real)[:, None] + np.arange(-2, 2)
    near = np.abs(kept[np.clip(near, 0, xs.size - 1)] - q[:, None])
    ub = np.minimum(near.min(axis=1), to_star[order]) * _PAD + _TINY
    starts = np.arange(0, pts.size, _CHUNK)
    los = np.minimum.reduceat(np.searchsorted(xs, q.real - ub, "left"), starts)
    his = np.maximum.reduceat(np.searchsorted(xs, q.real + ub, "right"), starts)
    d2 = np.empty(pts.size)
    for k, lo, hi in zip(starts.tolist(), los.tolist(), his.tolist()):
        c = q[k:k + _CHUNK, None]
        sq = np.square(xs[lo:hi] - c.real)
        sq += np.square(ys[lo:hi] - c.imag)
        d2[k:k + _CHUNK] = sq.min(axis=1)
    dist = np.empty(pts.size)
    dist[order] = np.sqrt(d2)
    return dist


class DisplacementEstimate(NamedTuple):
    estimate: float          # 2 * integral; at least d_P for the exact delta
    integral: float          # quasihyperbolic ray length between z and l(z)
    log_c: float             # log of the bilipschitz constant of k
    potential: float
    potential_image: float

    def bound_ok(self) -> bool:
        """estimate/2 <= log C + 0.1, the 0.1 a fixed sampling slack."""
        return self.estimate / 2.0 <= self.log_c + 0.1


def quasihyperbolic_displacement(cm: ContinuumMap, z: complex,
                                 boundary: np.ndarray | None = None
                                 ) -> DisplacementEstimate:
    """Quasihyperbolic length of the ray segment joining z to l(z).

    Integrates |dz|/delta(z) by the midpoint rule over 160 geometric steps
    along the external ray between the potentials G(z) and k(G(z)), with
    delta the distance to `boundary`, an inverse-iteration sample cloud of
    the Julia set (by default `julia_samples` at depth 14).  The hyperbolic
    density lambda of metric 2|dv|/(1 - |v|^2) is at most 2/delta (Schwarz
    lemma), so along the ray, a hyperbolic geodesic for connected K_c,
    integral >= d_P/2 for the exact delta, d_P = d_P(l(z), z).  No ceiling
    2 d_P holds: Koebe's lambda >= 1/(2 delta) needs a domain in C, and at
    c = 0 lambda = 2/(|z|^2 - 1) falls below it once |z| > 3 (G from 1 to
    1.5: integral 0.706, 2 d_P 0.636).  A cloud inside J
    overestimates delta and so lowers the integral.  `bound_ok` compares
    estimate/2 with log C plus a sampling slack of 0.1, a heuristic check.

    delta is the exact distance to the nearest point of the whole cloud
    (`_cloud_distances`).
    """
    gc = log_bottcher(cm.source, z)
    g_a, g_b = gc.potential, cm.vs.k(gc.potential)
    if g_a == g_b:
        return DisplacementEstimate(0.0, 0.0, cm.log_bilipschitz, g_a, g_b)
    lo, hi = min(g_a, g_b), max(g_a, g_b)
    pts = [p.point for p in trace_ray(cm.source, gc.angle, lo, hi, 161)]
    if boundary is None:
        boundary = julia_samples(cm.source, 14)
    arr = np.asarray(pts)
    mids = 0.5 * (arr[1:] + arr[:-1])
    deltas = _cloud_distances(boundary, mids)
    steps = np.abs(np.diff(arr))
    integral = float(np.sum(steps / deltas))
    return DisplacementEstimate(2.0 * integral, integral, cm.log_bilipschitz,
                                g_a, g_b)


class ProbeSample(NamedTuple):
    radius: float
    direction: complex       # unit step direction
    quotient: complex        # (l(z0 + h) - z0) / h


def boundary_derivative_probe(cm: ContinuumMap, z0: complex,
                              radii: Sequence[float]) -> list[ProbeSample]:
    """Difference quotients of l at a Julia boundary point.

    Probes h = r e^(i phi) over the radii and the 8 directions
    phi = 2 pi j / 8, skipping directions that land inside the Julia set;
    reports raw quotients, interpretation is left to the caller.  Radii
    must be finite, positive and strictly decreasing (InvalidInput).
    """
    radii = list(radii)
    if not all(0.0 < r < math.inf for r in radii):
        raise InvalidInput("radii must be finite and positive")
    if any(r2 >= r1 for r1, r2 in zip(radii, radii[1:])):
        raise InvalidInput("radii must be strictly decreasing")
    out: list[ProbeSample] = []
    for r in radii:
        for j in range(8):
            direction = cmath.exp(2j * math.pi * j / 8)
            h = r * direction
            try:
                w = transport_exterior(cm, z0 + h)
            except InsideK:
                continue
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
    dropped and counted.  An empty sample set raises InvalidInput: its
    sup would read 0 and certify nothing.
    """
    if len(samples) == 0:
        raise InvalidInput("convergence_study needs at least one sample")
    coords: dict[int, GreenCoordinate] = {}
    for i, z in enumerate(samples):
        try:
            coords[i] = log_bottcher(tm.source, z)
        except GreenrayError:
            continue
    ref = _transport_all(tm, coords)
    coords = {i: coords[i] for i in ref}
    rows: list[ConvergenceRow] = []
    for n in n_list:
        vs_n = VirtualStructure(lipschitz_approx_d(tm.vs.d, n),
                                lipschitz_approx_k(tm.vs.k, n))
        images = _transport_all(TransportMap(tm.source, tm.target, vs_n),
                                coords)
        sup = max([0.0, *(chordal_distance(w, ref[i])
                          for i, w in images.items())])
        rows.append(ConvergenceRow(int(n), sup, len(samples) - len(images)))
    return rows


def _transport_all(tm: TransportMap,
                   coords: dict[int, GreenCoordinate]) -> dict[int, complex]:
    """`_to_target` of every coordinate; those that fail are left out.

    Coordinates with one target potential are descended together in one
    `descend_rays_bulk`, which gives each ray's single-ray bits.  A group
    that raises goes through `_to_target` one by one, so its nudges and
    failures are those of `transport_exterior`.
    """
    groups: dict[float, list[tuple[int, float]]] = {}
    for i, gc in coords.items():
        groups.setdefault(tm.vs.k(gc.potential), []).append(
            (i, tm.vs.d(gc.angle) % 1.0))
    out: dict[int, complex] = {}
    for g, members in groups.items():
        ids, thetas = zip(*members)
        try:
            pts = descend_rays_bulk(tm.target, thetas, g).tolist()
        except GreenrayError:
            for i in ids:
                try:
                    out[i] = _to_target(tm, coords[i])
                except GreenrayError:
                    continue
        else:
            out.update(zip(ids, pts))
    return out


# ---------------------------------------------------------------------------
# Boundary proximity (Hausdorff-style probe)
# ---------------------------------------------------------------------------

def transported_boundary_distance(tm: TransportMap, n_rays: int = 4096,
                                  julia_depth: int = 16) -> float:
    """One-sided Hausdorff distance from transported deep ray endpoints of
    the source to a Julia sample cloud of the target.

    Ray endpoints are taken at 1e-4 * G_src(0) on an angle grid offset away
    from all dyadic access angles; they approximate the continuous
    extension of the transport to the Julia set.  The endpoints descend in
    one batch; if it raises RayCrash, they go through `_to_target` one by
    one, under the crash policy of `transport_exterior`, and the first that
    still fails is raised.  A connected source has no G_src(0) and raises
    Connected.
    """
    if n_rays < 1:
        raise InvalidInput(f"n_rays must be >= 1, got {n_rays}")
    src, tgt = tm.source, tm.target
    g_end = 1e-4 * critical_potential(src)
    offset = 1.0 / 9973.0
    thetas = (np.arange(n_rays) + 0.5) / n_rays + offset
    d = tm.vs.d
    k = tm.vs.k
    thetas_t = np.array([d(t) % 1.0 for t in thetas])
    try:
        pts = descend_rays_bulk(tgt, thetas_t, k(g_end))
    except RayCrash:
        pts = np.array([_to_target(tm, GreenCoordinate(t, g_end))
                        for t in thetas])
    return float(_cloud_distances(julia_samples(tgt, julia_depth), pts).max())
