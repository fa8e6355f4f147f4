"""Green function and log-Böttcher coordinates for quadratic Julia sets.

For f_c(z) = z^2 + c the complement of the Julia set K_c carries the
dynamical Green function

    G(z) = lim_n 2^{-n} log |f_c^n(z)|,

harmonic and positive off K_c with G(f_c(z)) = 2 G(z) and
G(z) = log|z| + o(1) at infinity (Robin constant 0, capacity 1 for a monic
quadratic).  The Green chart pairs G with an external angle theta so that
phi(z) = exp(g + 2*pi*i*theta) is the Böttcher coordinate; here angles are
measured in [0, 1) increasing counterclockwise, the positive real direction
at infinity being angle 0.

In the Cantor case (escaping critical orbit) the chart is defined off the
skeleton: the external angle is two-valued on the subcritical parts of the
critical rays, and rays at the (dyadic) critical access angles crash at
precritical points.  All angle combinatorics is exact; see `angles.py`.

Supported parameter range for the full chart:
  * real c < -2      -- Cantor, critical value angle exactly 1/2;
  * real -2 <= c <= 1/4 -- connected, empty skeleton;
  * other c          -- escape_green everywhere; angles only while the
    argument lift stays certified (high potential), else AngleUnresolved.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from . import angles as ang
from .errors import (AngleUnresolved, Connected, CriticalLevel, InsideK,
                     InvalidInput, NonFinite, OnSkeleton, RayCrash)

# Far potential of ray descent: every descent starts from psi_c at a
# potential >= G_FAR, where its series is certified (`_psi_coefficients`).
G_FAR = 6.0
# Substeps per potential octave in ray descent.
_SUBSTEPS = 12
# Magnitude beyond which iterates are treated as infinite-precision escapes.
_HUGE = 1e150
# Largest order N of the inverse Böttcher series tried for a parameter.  It
# covers |c| up to about 7e4 (c = -7.1e4 needs N = 48); past N = 60 the
# coefficients, which grow up to R^(2n) ~ |c|^n, could overflow.
_PSI_MAX_ORDER = 48
# Rung x ray elements per block of batched ray descent.  It bounds the
# working arrays: a 4096-ray descent to 1e-4 G(0) grows peak RSS by 1.9 MB
# at 2^12, 3.0 MB at 2^13 and 5.9 MB at 2^14, at about the same speed.
_CHUNK = 1 << 12


@dataclass(frozen=True)
class QuadraticParams:
    """Parameters of one quadratic system f_c(z) = z^2 + c."""

    c: complex
    escape_radius: float
    max_iter: int = 256
    tol: float = 1e-9

    def __post_init__(self):
        if not (cmath.isfinite(self.c)):
            raise NonFinite("parameter c must be finite")
        if self.escape_radius < 2.0 + abs(self.c):
            raise InvalidInput("escape_radius must be >= 2 + |c|")
        if self.max_iter < 1:
            raise InvalidInput("max_iter must be >= 1")
        if not (self.tol > 0):
            raise InvalidInput("tol must be positive")


class GreenCoordinate(NamedTuple):
    """Log-Böttcher coordinate: external angle in [0,1) and Green potential."""

    angle: float
    potential: float


@dataclass(frozen=True)
class GreenSystem:
    """A computable Green chart for one quadratic parameter.

    `connectivity` is decided by the critical orbit within max_iter
    (bounded orbit => connected).  The critical value angle is stored as an
    exact rational; for real c < -2 it is 1/2.

    Far points of ray descent come from the Laurent series of the inverse
    Böttcher map, psi_c(u) = u * A(u^-2) with A(v) = sum a_n v^n, truncated
    at an order N certified for every potential >= G_FAR.  The coefficients
    a_0..a_N are computed once, on construction (`_psi_coefficients`).
    """

    params: QuadraticParams
    connectivity: str                      # 'cantor' | 'connected'
    critical_value_angle: Fraction | None
    robin_constant: float = 0.0
    _g0: float = field(default=0.0, repr=False)
    _psi: tuple[complex, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # G(0) is certified to within tol, so e^(G(0) + tol) bounds R
        object.__setattr__(self, "_psi", _psi_coefficients(
            self.params.c, self._g0 + self.params.tol))

    @staticmethod
    def from_c(c: complex, escape_radius: float | None = None,
               max_iter: int = 256, tol: float = 1e-9,
               critical_value_angle: Fraction | None = None) -> "GreenSystem":
        c = complex(c)
        if escape_radius is None:
            escape_radius = max(2.0 + abs(c), 3.0)
        params = QuadraticParams(c, escape_radius, max_iter, tol)
        g0, _ = _escape_green(params, 0.0 + 0.0j)
        if g0 <= 0.0:
            return GreenSystem(params, "connected", None, 0.0, 0.0)
        cva = critical_value_angle
        if cva is None:
            if c.imag == 0.0 and c.real < -2.0:
                cva = Fraction(1, 2)
            else:
                raise InvalidInput(
                    "critical_value_angle must be supplied for a Cantor "
                    "parameter off the real ray c < -2")
        cva = ang.frac1(Fraction(cva))
        if cva.denominator % 2 == 1:
            raise InvalidInput(
                "critical value angle periodic under doubling is non-generic "
                "and unsupported")
        return GreenSystem(params, "cantor", cva, 0.0, g0)

    @property
    def c(self) -> complex:
        return self.params.c

    @property
    def tol(self) -> float:
        return self.params.tol

    @property
    def is_cantor(self) -> bool:
        return self.connectivity == "cantor"

    @property
    def is_real(self) -> bool:
        return self.params.c.imag == 0.0


# ---------------------------------------------------------------------------
# Green potential
# ---------------------------------------------------------------------------

def _escaped(a: float, n: int, tail: float) -> tuple[float, float]:
    """G = 2^-n log a for an escaped |w_n| = a, with its error bound.

    The bound adds to the harmonic tail the rounding of the value: one ulp
    of G for log and its exact scaling, and 4 eps for |w_n| and for the
    squarings at and beyond the escape radius (each within 2 eps relative,
    weighted by 2^-(k+1) at step k).  The rounding of iterates inside the
    escape radius, as of the input itself, is not counted.
    """
    g = math.ldexp(math.log(a), -n)
    return g, tail + math.ulp(g) + 4.0 * math.ulp(1.0)


def _escape_green(params: QuadraticParams, z: complex) -> tuple[float, float]:
    c = params.c
    w = complex(z)
    if not cmath.isfinite(w):
        raise NonFinite("input point is not finite")
    ac = abs(c)
    n = 0
    while n < params.max_iter:
        a = abs(w)
        if a >= params.escape_radius:
            # certified escaping: keep doubling until the harmonic tail
            # |G - 2^-n log|w|| <= 2^-n |c| / (|w|^2 - |c|) drops below tol
            err = math.ldexp(ac / (a * a - ac), -n) if a < _HUGE else 0.0
            if err <= 0.5 * params.tol or a >= _HUGE:
                return _escaped(a, n, err)
        elif a >= _HUGE:
            raise NonFinite(
                "iterate overflow before escape certification; "
                "escape_radius too large for the float range")
        w = w * w + c
        n += 1
        if not cmath.isfinite(w):
            raise NonFinite("iterate overflow")
    a = abs(w)
    if a >= params.escape_radius:
        # escaped but the budget ran out before the tail bound met tol:
        # return the estimate with its honest (larger) bound
        return _escaped(a, n, math.ldexp(ac / (a * a - ac), -n))
    return 0.0, params.tol


def escape_green(sys: GreenSystem, z: complex) -> tuple[float, float]:
    """Green potential of z with a certified absolute error bound.

    Returns (0, tol) when the orbit stays bounded for max_iter steps, i.e.
    the point is treated as in or at the Julia set.
    """
    return _escape_green(sys.params, z)


def critical_potential(sys: GreenSystem) -> float:
    """Potential G(0) of the critical point (the top critical level)."""
    if not sys.is_cantor:
        raise Connected("critical potential vanishes for a connected Julia set")
    return sys._g0


# ---------------------------------------------------------------------------
# Inverse Böttcher chart at high potential
# ---------------------------------------------------------------------------

def _psi_coefficients(c: complex, log_r: float) -> tuple[complex, ...]:
    """Coefficients a_0..a_N of psi_c(u) = u * A(u^-2), A(v) = sum a_n v^n.

    psi_c = phi_c^-1 satisfies psi(u^2) = psi(u)^2 + c, so A(v^2) =
    A(v)^2 + c v: a_0 = 1 and
        2 a_n = [n even] a_(n/2) - sum_{i=1}^{n-1} a_i a_(n-i) - c [n = 1].
    psi_c is univalent on |u| > e^G(0) (|u| > 1 for connected c), so with
    R = e^log_r >= e^G(0) the area theorem gives |a_n| <= R^(2n)/sqrt(2n-1).
    At potential >= G_FAR the terms past a_N then sum to at most
    q^(N+1)/(1-q) with q = R^2 e^(-2 G_FAR), and |A| >= 1 - q/(1-q).  N is
    the least order whose tail is below a quarter ulp of that lower bound;
    the empty tuple when no N <= _PSI_MAX_ORDER is.
    """
    q = math.exp(2.0 * (log_r - G_FAR))
    if q >= 0.5:
        return ()
    tail_tol = 0.25 * math.ulp(1.0 - q / (1.0 - q))
    order = next((n for n in range(1, _PSI_MAX_ORDER + 1)
                  if q ** (n + 1) / (1.0 - q) <= tail_tol), None)
    if order is None:
        return ()
    a = [1.0 + 0.0j, -0.5 * c]
    for n in range(2, order + 1):
        s = sum(a[i] * a[n - i] for i in range(1, n))
        a.append(0.5 * ((a[n // 2] if n % 2 == 0 else 0.0) - s))
    return tuple(a)


def _far_points(sys: GreenSystem, theta: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Invert the Böttcher chart at high potential (g >= G_FAR), elementwise.

    One Horner sweep of the truncated Laurent series
    psi_c(u) = u * sum_{n<=N} a_n u^(-2n) at u = exp(g + 2 pi i theta), with
    the coefficients and the order N of `sys` (see `GreenSystem`): the
    terms left out sum to under a quarter ulp of the series.  Raises
    AngleUnresolved where no such N exists or where |c/u^2| > 1/2.
    """
    a = sys._psi
    if not a:
        raise AngleUnresolved("no certified truncation of the inverse "
                              "Böttcher series for this parameter")
    if abs(sys.c) * math.exp(-2.0 * float(np.min(g))) > 0.5:
        raise AngleUnresolved("Böttcher series used below its domain")
    u = np.exp(g + 2j * np.pi * theta)
    r = 1.0 / u
    v = r * r
    acc = a[-1]
    for an in a[-2::-1]:
        acc = acc * v + an
    return u * acc


# ---------------------------------------------------------------------------
# External angle of a point
# ---------------------------------------------------------------------------

def _real_fold_bit(zj: complex) -> bool:
    """Itinerary bit for real parameters: True on the left cell.

    The dividing curve between the angle cells (-1/4, 1/4) and (1/4, 3/4)
    is the imaginary axis (rays 1/4 and 3/4) plus a real gap segment, so the
    sign of Re decides; exactly imaginary points sit on the rays and are
    assigned by the sign of Im (upper axis = ray 1/4).
    """
    if zj.real != 0.0:
        return zj.real < 0.0
    return zj.imag > 0.0


def _near_skeleton(sys: GreenSystem, theta: float, g: float, guard: float) -> bool:
    if not sys.is_cantor:
        return False
    g0 = sys._g0
    tc = float(sys.critical_value_angle)
    pot = g0
    n = 0
    while pot > g - guard and n < 64:
        t = math.ldexp(theta, n + 1) % 1.0
        d = ang.circ_dist(t, tc) / math.ldexp(1.0, n + 1)
        if d <= guard and g <= pot + guard:
            return True
        pot *= 0.5
        n += 1
    return False


def log_bottcher(sys: GreenSystem, z: complex) -> GreenCoordinate:
    """Green coordinate (external angle, potential) of an exterior point.

    The angle is the phase of the orbit point w_m at which |c/w_m^2| <= 2^-60
    (or |w_m| >= _HUGE), halved back to z: by the fold bit for real c, exact
    at every level, and by the principal argument otherwise, which raises
    AngleUnresolved where some |c/w_j^2| >= 1/2, j < m.  Raises InsideK at
    vanishing potential and OnSkeleton within guard distance (10*tol,
    measured in angle) of a skeleton arc, where the angle is two-valued.
    """
    g, _ = escape_green(sys, z)
    if g <= 0.0:
        raise InsideK("point has zero Green potential")
    c = sys.c

    # the bounded orbit never leaves, so InsideK comes first; out there
    # arg phi(w) - arg w = O(|c/w^2|), about a thousandth of an ulp
    w = complex(z)
    orbit = [w]
    while abs(w) < _HUGE and abs(c) > 2.0 ** -60 * (abs(w) * abs(w)):
        w = w * w + c
        orbit.append(w)
    theta = (cmath.phase(w) / (2.0 * math.pi)) % 1.0

    # halve the far angle back along the orbit, choosing each branch
    for j in range(len(orbit) - 2, -1, -1):
        w = orbit[j]
        half = theta / 2.0
        if sys.is_real:
            if w.imag != 0.0 and abs(half - 0.25) < 0.125:
                # candidates near the rays 1/4 and 3/4, where the sign of Re
                # is rounding noise: the upper half plane holds (0, 1/2)
                keep = w.imag > 0.0
            else:
                keep = (half >= 0.25) == _real_fold_bit(w)
            theta = half if keep else half + 0.5
        else:
            # the principal argument picks the branch; certified while every
            # correction term |c/w^2| stays below 1/2 (cumulative angle error
            # < 1/4 turn, smaller than the candidate separation 1/2)
            if abs(c / (w * w)) >= 0.5:
                raise AngleUnresolved(
                    "argument lift uncertified for non-real c at this "
                    "potential; evaluate at higher potential")
            base = (cmath.phase(w) / (2.0 * math.pi)) % 1.0
            cands = (half % 1.0, (half + 0.5) % 1.0)
            theta = min(cands, key=lambda t_: ang.circ_dist(t_, base))
    theta %= 1.0

    if _near_skeleton(sys, theta, g, 10.0 * sys.tol):
        raise OnSkeleton("external angle is two-valued within guard distance "
                         "of a skeleton arc")
    return GreenCoordinate(theta, g)


# ---------------------------------------------------------------------------
# Ray descent (inverse iteration)
# ---------------------------------------------------------------------------

def _crash_level(sys: GreenSystem, p: int, q: int) -> int | None:
    """Level n if p/q (lowest terms) is a critical access angle.

    2^(n+1) p/q == a/b (mod 1), for theta_c = a/b in lowest terms with b
    even, holds iff q = b * 2^(n+1) and p == a (mod b).
    """
    if not sys.is_cantor:
        return None
    tc = sys.critical_value_angle
    m, rem = divmod(q, tc.denominator)
    if rem or m < 2 or m & (m - 1) or (p - tc.numerator) % tc.denominator:
        return None
    return m.bit_length() - 2


def _ray_angle(sys: GreenSystem, theta, targets: list[float],
               crash_side: int | None) -> tuple[int, int]:
    """Exact angle p/q in [0, 1) to descend for one ray.

    A critical access angle raises RayCrash when a target sits at its crash
    potential, or lies below it with `crash_side` None; below it otherwise
    the angle moves to the one-sided limit on `crash_side` (+1 ccw).
    """
    t = ang.frac1(theta) if isinstance(theta, Fraction) else float(theta) % 1.0
    p, q = t.as_integer_ratio()
    level = _crash_level(sys, p, q)
    if level is None:
        return p, q
    gp = math.ldexp(sys._g0, -level)
    at_crash = any(abs(g - gp) <= sys.tol for g in targets)
    if not (at_crash or targets[-1] < gp):
        return p, q
    if crash_side is None or at_crash:
        raise RayCrash(
            f"ray {Fraction(p, q)} crashes at a level-{level} precritical point",
            crash_potential=gp, level=level)
    # one-sided limit: offset by a 2^-30 fraction of the access spacing at
    # the crash level, on the requested side
    t = Fraction(p, q) + Fraction(crash_side, 2 ** (level + 32))
    return ang.frac1(t).as_integer_ratio()


def _descend(sys: GreenSystem, thetas, targets: Sequence[float],
             crash_side: int | None) -> np.ndarray:
    """Points on many external rays at common non-increasing potentials.

    Standard inverse-iteration ray tracing (Kawahira's ladder): a ladder of
    potentials with _SUBSTEPS rungs per octave; at each rung the point is
    pulled back through the tower of doubled angles, choosing square-root
    branches by proximity to the previous rung's tower.  Levels are swept
    outermost: row r of `w` holds rung r's point at level j, its far point
    while j == ell[r] and below that the root nearest rung r-1's point, so
    the branch signs are a running count of flips.  The first root below a
    far point meets the previous rung's far point at the same level, as ell
    grows by at most one per rung.  `thetas` are Fractions or floats; the
    crash rule is `_ray_angle`'s.  Targets above potential 300 raise
    InvalidInput.  Returns shape (len(targets), len(thetas)).
    """
    targets = [float(g) for g in targets]
    if not all(g > 0.0 for g in targets):
        raise InvalidInput("potential must be positive")
    if any(a < b for a, b in zip(targets, targets[1:])):
        raise InvalidInput("target potentials must be non-increasing")
    if targets[0] > 300.0:
        raise InvalidInput("potential too large for the float chart range")
    pq = [_ray_angle(sys, t, targets, crash_side) for t in thetas]

    # ladder of rung potentials: geometric with exact targets inserted
    ratio = 2.0 ** (1.0 / _SUBSTEPS)
    rungs: list[float] = []
    at: list[int] = []
    tau = max(targets[0], G_FAR)
    for g in targets:
        while g < tau:
            if not rungs or tau < rungs[-1]:
                rungs.append(tau)
            tau /= ratio
        if not rungs or g < rungs[-1]:
            rungs.append(g)
        at.append(len(rungs) - 1)
    # each rung starts from its far point at the first level ell >= G_FAR;
    # ell never decreases down the ladder
    ell = [0]
    for t in rungs[1:]:
        ell.append(ell[-1] + (math.ldexp(t, ell[-1]) < G_FAR))
    ell = np.array(ell)
    far_g = np.ldexp(rungs, ell)[:, None]

    c = sys.c
    guard = 1e-12 * max(1.0, abs(c))
    out = np.empty((len(targets), len(pq)), dtype=complex)
    step = max(1, _CHUNK // len(rungs))
    for s in range(0, len(pq), step):
        # frac(2^j theta), correctly rounded, by level and ray
        angles = np.array([[((p << j) % q) / q for p, q in pq[s:s + step]]
                           for j in range(ell[-1] + 1)])
        w = _far_points(sys, angles[ell], far_g)
        hits = []
        for j in range(ell[-1] - 1, -1, -1):
            e = np.searchsorted(ell, j, side="right")
            dz = w[e:] - c
            # report the first ray's crash at its first rung, top level first
            hits += [(i, e + r, -j)
                     for r, i in zip(*np.nonzero(np.abs(dz) <= guard))]
            root = np.sqrt(dz)
            prev = np.concatenate((w[e - 1:e], root[:-1]))
            flips = np.cumsum(np.abs(root - prev) > np.abs(root + prev), axis=0)
            w[e:] = np.where(flips % 2 == 1, -root, root)
        if hits:
            _, r, minus_j = min(hits)
            raise RayCrash("ray passes through a precritical point",
                           crash_potential=math.ldexp(rungs[r], -minus_j))
        out[:, s:s + step] = w[at]
    return out


def descend_rays_bulk(sys: GreenSystem, thetas: Sequence[float] | np.ndarray,
                      g_target: float) -> np.ndarray:
    """Points at one common potential on many external rays.

    Same conventions as `invert_green_coords`, ray by ray: the
    counterclockwise one-sided limit at an exact critical access angle below
    its crash potential, RayCrash at the crash potential or through a
    precritical point, AngleUnresolved where the Böttcher series leaves its
    domain or has no certified truncation (`_far_points`), and InvalidInput
    above potential 300, past the float range of the chart (`_descend`).
    Each point equals the single-ray result bit for bit.
    """
    return _descend(sys, thetas, [g_target], crash_side=+1)[0]


def invert_green_coords(sys: GreenSystem, gc: GreenCoordinate | tuple) -> complex:
    """Point with the given Green coordinate.

    For an exact critical access angle below its crash potential the
    counterclockwise one-sided limit is returned (documented convention);
    exactly at the crash potential RayCrash is raised.
    """
    theta, g = gc
    return complex(descend_rays_bulk(sys, [theta], g)[0])


class RayPoint(NamedTuple):
    point: complex
    potential: float
    angle: float


def trace_ray(sys: GreenSystem, angle, g_lo: float, g_hi: float,
              n_samples: int) -> list[RayPoint]:
    """Sample the external ray between two potentials (geometric steps,
    monotonically decreasing from g_hi to g_lo)."""
    if not (0.0 < g_lo < g_hi):
        raise InvalidInput("require 0 < g_lo < g_hi")
    if n_samples < 2:
        raise InvalidInput("n_samples must be >= 2")
    ratio = (g_lo / g_hi) ** (1.0 / (n_samples - 1))
    pots = [g_hi * ratio ** i for i in range(n_samples)]
    pots[-1] = g_lo
    th = angle if isinstance(angle, Fraction) else Fraction(float(angle) % 1.0)
    pts = _descend(sys, [th], pots, crash_side=None)[:, 0].tolist()
    a = float(ang.frac1(th))
    return [RayPoint(p, g, a) for p, g in zip(pts, pots)]


# ---------------------------------------------------------------------------
# Equipotentials, precritical points, skeleton
# ---------------------------------------------------------------------------

def trace_equipotential(sys: GreenSystem, g: float,
                        n_samples: int) -> list[list[complex]]:
    """The level set {G = g} as closed curves, harmonically parametrized.

    There are 2^k Jordan curves when k critical potentials lie above g; each
    is sampled at n_samples equal steps of harmonic measure (its angle
    window).  The first point is not repeated at the end.
    """
    if not g > 0.0:
        raise InvalidInput("potential must be positive")
    if n_samples < 3:
        raise InvalidInput("n_samples must be >= 3")
    # count the k critical potentials above g; g itself must not be one
    k, pot = 0, sys._g0
    while sys.is_cantor and pot > g - sys.tol:
        if abs(g - pot) < sys.tol:
            raise CriticalLevel(f"level {g} is critical (within tol of {pot})")
        k, pot = k + 1, pot * 0.5
    steps = [Fraction(2 * i + 1, 2 * n_samples) for i in range(n_samples)]
    if k == 0:
        return [descend_rays_bulk(sys, steps, g).tolist()]
    levels = ang.level_windows(sys.critical_value_angle, k)
    curves = []
    for node in levels[k]:
        origin = ang.entering_access(node.window, node.outer_pair)
        total = ang.window_measure(node.window)
        thetas = [Fraction(ang.invert_position(node.window, origin, total * s))
                  for s in steps]
        curves.append(descend_rays_bulk(sys, thetas, g).tolist())
    return curves


class PrecriticalPoint(NamedTuple):
    point: complex
    potential: float
    level: int


def precritical_points(sys: GreenSystem, depth: int) -> list[PrecriticalPoint]:
    """Iterated preimages f^-n(0) for n <= depth, with measured potentials."""
    if not sys.is_cantor:
        raise Connected("precritical points of G exist only in the Cantor case")
    if depth < 0:
        raise InvalidInput("depth must be >= 0")
    c = sys.c
    out = [PrecriticalPoint(0.0 + 0.0j, sys._g0, 0)]
    layer = [0.0 + 0.0j]
    for n in range(1, depth + 1):
        nxt = []
        for p in layer:
            r = cmath.sqrt(p - c)
            nxt.extend((r, -r))
        layer = nxt
        for p in layer:
            out.append(PrecriticalPoint(p, escape_green(sys, p)[0], n))
    return out


@dataclass(frozen=True)
class SkeletonArc:
    """A subcritical critical-ray arc through one precritical point."""

    precritical_point: complex
    point_potential: float
    level: int
    access_angles: tuple[Fraction, Fraction]
    polyline: tuple[complex, ...]


def _itinerary_address(sys: GreenSystem, p: complex, length: int) -> tuple[int, ...]:
    """Cell address of an exterior point from the sign itinerary (real c)."""
    bits = []
    w = complex(p)
    for _ in range(length):
        bits.append(1 if _real_fold_bit(w) else 0)
        w = w * w + sys.c
    return tuple(bits)


def skeleton(sys: GreenSystem, depth: int, arc_samples: int = 24) -> list[SkeletonArc]:
    """Skeleton arcs down to the given precritical depth.

    Each level-n precritical point carries the two access angles solving
    2^(n+1) theta = theta_c that bound its cell; the polyline samples the
    two one-sided descending branches through the point.
    """
    if not sys.is_cantor:
        return []
    if not sys.is_real:
        raise AngleUnresolved(
            "skeleton cell pairing uses the real-axis itinerary; "
            "non-real parameters are unsupported")
    levels = ang.level_windows(sys.critical_value_angle, depth)
    by_address = {node.address: node for layer in levels for node in layer}
    arcs: list[SkeletonArc] = []
    for pc in precritical_points(sys, depth):
        addr = _itinerary_address(sys, pc.point, pc.level)
        node = by_address[addr]
        a1, a2 = node.inner_pair
        g_top = pc.potential
        pots = [g_top * (0.5 ** (3.0 * i / max(arc_samples - 1, 1)))
                for i in range(1, arc_samples + 1)]
        plus = _descend(sys, [a1], pots, crash_side=+1)[:, 0].tolist()
        minus = _descend(sys, [a1], pots, crash_side=-1)[:, 0].tolist()
        poly = tuple(reversed(minus)) + (pc.point,) + tuple(plus)
        arcs.append(SkeletonArc(pc.point, pc.potential, pc.level,
                                (a1, a2), poly))
    return arcs


# ---------------------------------------------------------------------------
# Julia boundary sampling (inverse iteration)
# ---------------------------------------------------------------------------

def julia_samples(sys: GreenSystem, depth: int = 14) -> np.ndarray:
    """Boundary samples: the full depth-`depth` inverse-orbit tree of beta.

    Deterministic; returns 2^depth complex points within O(contraction^depth)
    of the Julia set.
    """
    c = sys.c
    beta = (1.0 + cmath.sqrt(1.0 - 4.0 * c)) / 2.0
    pts = np.array([beta], dtype=complex)
    for _ in range(depth):
        r = np.sqrt(pts - c)
        pts = np.concatenate([r, -r])
    return pts
