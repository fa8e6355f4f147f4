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
  * real c > 1/4     -- unsupported: c lies on the periodic ray of angle 0;
  * other c          -- escape_green everywhere; angles only while the
    argument lift stays certified (high potential), else AngleUnresolved.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import NamedTuple, Sequence

import numpy as np

from . import angles as ang
from .errors import (AngleUnresolved, Connected, CriticalLevel, InsideK,
                     InvalidInput, NonFinite, OnSkeleton, RayCrash)

# Far potential of ray descent: every descent starts from psi_c at a
# potential >= G_FAR, where its series is certified (`_psi_coefficients`).
G_FAR = 6.0
# Largest target potential of ray descent, within the float range of psi_c.
G_MAX = 300.0
# Magnitude beyond which iterates are treated as infinite-precision escapes.
_HUGE = 1e150
# Largest order N of the inverse Böttcher series tried for a parameter.  It
# covers |c| up to about 7e4 (c = -7.1e4 needs N = 48); past N = 60 the
# coefficients, which grow up to R^(2n) ~ |c|^n, could overflow.
_PSI_MAX_ORDER = 48
# Cap on the depth of `julia_samples`: a depth-D cloud holds 2^D points,
# 64 MiB of complex128 at D = 22.  The library's own callers use D <= 16.
MAX_JULIA_DEPTH = 22


class GreenCoordinate(NamedTuple):
    """Log-Böttcher coordinate: external angle in [0,1) and Green potential."""

    angle: float
    potential: float


@dataclass(frozen=True)
class GreenSystem:
    """A computable Green chart for one quadratic parameter f_c(z) = z^2 + c.

    Construction works out once the escape radius max(2 + |c|, 3) and G(0),
    which is positive (Cantor) exactly when the critical orbit escapes
    within max_iter.  The critical value angle is an exact rational for a
    Cantor parameter and None for a connected one.  Where c fixes it (1/2
    on the real ray c < -2, None when connected) a supplied value that
    disagrees is InvalidInput.  A Cantor real c > 1/4 lies on the ray of
    angle 0, periodic and so InvalidInput; other Cantor parameters must
    supply it.

    Far points of ray descent come from the Laurent series of the inverse
    Böttcher map, psi_c(u) = u * A(u^-2) with A(v) = sum a_n v^n, truncated
    at an order N certified for every potential >= G_FAR.  The coefficients
    a_0..a_N are computed on construction too (`_psi_coefficients`).
    """

    c: complex
    max_iter: int = 256
    tol: float = 1e-9
    critical_value_angle: Fraction | None = None
    escape_radius: float = field(init=False, repr=False, compare=False)
    _g0: float = field(init=False, repr=False, compare=False)
    _psi: tuple[complex, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c = complex(self.c)
        if not cmath.isfinite(c):
            raise NonFinite("parameter c must be finite")
        if self.max_iter < 1:
            raise InvalidInput("max_iter must be >= 1")
        if not 0.0 < self.tol < math.inf:
            raise InvalidInput("tol must be finite and positive")
        put = partial(object.__setattr__, self)
        put("c", c)
        put("escape_radius", max(2.0 + abs(c), 3.0))
        g0, _ = escape_green(self, 0.0 + 0.0j)
        put("_g0", g0)
        cva = self.critical_value_angle
        cva = None if cva is None else ang.frac1(Fraction(cva))
        if g0 > 0.0 and c.imag == 0.0 and c.real > 0.25:
            raise InvalidInput(
                f"c = {c} lies on the external ray of angle 0, a critical "
                "value angle periodic under doubling: unsupported")
        if g0 <= 0.0 or (c.imag == 0.0 and c.real < -2.0):
            # c fixes the angle: none when connected, 1/2 on the ray c < -2
            fixed = Fraction(1, 2) if g0 > 0.0 else None
            if cva not in (None, fixed):
                raise InvalidInput(
                    f"critical value angle {cva} disagrees with c = {c}, "
                    f"which fixes it at {fixed or 'none (connected)'}")
            cva = fixed
        elif cva is None:
            raise InvalidInput(
                "critical_value_angle must be supplied for a Cantor "
                "parameter off the real ray c < -2")
        elif cva.denominator % 2 == 1:
            raise InvalidInput(
                "critical value angle periodic under doubling is "
                "non-generic and unsupported")
        put("critical_value_angle", cva)
        # G(0) is certified to within tol, so e^(G(0) + tol) bounds R
        put("_psi", _psi_coefficients(c, g0 + self.tol))

    @staticmethod
    def from_c(c: complex, max_iter: int = 256, tol: float = 1e-9,
               critical_value_angle: Fraction | None = None) -> "GreenSystem":
        return GreenSystem(c, max_iter, tol, critical_value_angle)

    @property
    def is_cantor(self) -> bool:
        return self._g0 > 0.0

    @property
    def is_real(self) -> bool:
        return self.c.imag == 0.0


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


def _tail(a, n: int, ac: float, ldexp=math.ldexp):
    """Harmonic tail |G - 2^-n log a| <= 2^-n |c| / (a^2 - |c|) at an
    escaped |w_n| = a; `a` is a float, or an array with ldexp=np.ldexp."""
    return ldexp(ac / (a * a - ac), -n)


def escape_green(sys: GreenSystem, z: complex) -> tuple[float, float]:
    """Green potential of z with a certified absolute error bound.

    Returns (0, tol) when the orbit stays bounded for max_iter steps, i.e.
    the point is treated as in or at the Julia set.  A point that is not
    finite, or an orbit that overflows, raises NonFinite.
    """
    c = sys.c
    w = complex(z)
    if not cmath.isfinite(w):
        raise NonFinite("input point is not finite")
    ac = abs(c)
    n = 0
    while n < sys.max_iter:
        a = abs(w)
        if a >= sys.escape_radius:
            # certified escaping: keep doubling until the harmonic tail
            # drops below tol (the tail is 0 once a >= _HUGE)
            err = _tail(a, n, ac) if a < _HUGE else 0.0
            if err <= 0.5 * sys.tol or a >= _HUGE:
                return _escaped(a, n, err)
        elif a >= _HUGE:
            raise NonFinite("iterate overflow before escape certification")
        w = w * w + c
        n += 1
        if not cmath.isfinite(w):
            raise NonFinite("iterate overflow")
    a = abs(w)
    if a >= sys.escape_radius:
        # escaped but the budget ran out before the tail bound met tol:
        # return the estimate with its honest (larger) bound
        return _escaped(a, n, _tail(a, n, ac))
    return 0.0, sys.tol


def escape_green_bulk(sys: GreenSystem, zs) -> tuple[np.ndarray, np.ndarray]:
    """`escape_green` of every point of `zs`: arrays (g, err) of its shape.

    All orbits step together, and each point leaves at its own certified
    stop.  The result equals `escape_green` bit for bit, point by point:
    the step is written on real and imaginary parts as Python's complex
    product is, |w| is `np.hypot` as in `abs(complex)`, and each escaped
    point is finished by the scalar `_escaped`.  If any point is not
    finite or overflows, the first such point in order goes through
    `escape_green`, which raises its NonFinite, as a loop over the points
    would.
    """
    z = np.asarray(zs, dtype=complex)
    g = np.zeros(z.size)
    err = np.full(z.size, sys.tol)
    x, y = z.real.ravel(), z.imag.ravel()
    failed = ~(np.isfinite(x) & np.isfinite(y))
    live = np.flatnonzero(~failed)
    x, y = x[live], y[live]
    cr, ci, ac = sys.c.real, sys.c.imag, abs(sys.c)

    # a * a overflows where a >= _HUGE, and the step where an orbit does;
    # both are dealt with below, as the scalar loop deals with them
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(sys.max_iter + 1):
            a = np.hypot(x, y)
            out = np.flatnonzero(a >= sys.escape_radius)
            ao = a[out]
            tail = _tail(ao, n, ac, np.ldexp)
            if n < sys.max_iter:
                huge = ao >= _HUGE
                tail[huge] = 0.0
                done = huge | (tail <= 0.5 * sys.tol)
                out, ao, tail = out[done], ao[done], tail[done]
            for i, ai, ti in zip(live[out].tolist(), ao.tolist(),
                                 tail.tolist()):
                g[i], err[i] = _escaped(ai, n, ti)
            if n == sys.max_iter:
                break
            keep = np.ones(live.size, dtype=bool)
            keep[out] = False
            inside_huge = keep & (a >= _HUGE)
            failed[live[inside_huge]] = True
            keep &= ~inside_huge
            live, x, y = live[keep], x[keep], y[keep]
            x, y = (x * x - y * y) + cr, (x * y + y * x) + ci
            over = ~(np.isfinite(x) & np.isfinite(y))
            failed[live[over]] = True
            live, x, y = live[~over], x[~over], y[~over]
            if not live.size:
                break
    if failed.any():
        escape_green(sys, z.ravel()[np.argmax(failed)])
    return g.reshape(z.shape), err.reshape(z.shape)


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
    AngleUnresolved where no such N exists.

    Where one does, the series is within its domain |c/u^2| < 1/2 (R and q
    as in `_psi_coefficients`).  For |c| > 2, |w_n| >= |c| on the orbit
    w_0 = c, w_(n+1) = w_n^2 + c, so G(c) = log|c| + sum_n 2^(-n-1)
    log|1 + c/w_n^2| >= log(|c| - 1), and G(c) = 2 G(0) <= 2 log R gives
    |c| e^(-2 G_FAR) <= q + e^(-2 G_FAR).  A certified N <= 48 needs
    q^49 <= q^(N+1)/(1-q) <= ulp(1)/4 = 2^-54: q < 0.466, so for g >= G_FAR
    |c| e^(-2g) < 0.467 (and < 0.001 when |c| <= 2).
    """
    a = sys._psi
    if not a:
        raise AngleUnresolved("no certified truncation of the inverse "
                              "Böttcher series for this parameter")
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

def _same_side(c: complex, z, t, upper, left):
    """The branch rule: whether z lies on the side of the ray of angle t.

    For real c, z -> conj(z) maps the ray t onto the ray -t and
    z -> -conj(z) onto the ray 1/2 - t, so off the skeleton Im z > 0
    exactly on the rays (0, 1/2) and Re z < 0 exactly on the rays
    (1/4, 3/4).  `upper` and `left` say whether t lies in those; the
    larger part of z is read, whose sign rounding can flip only within
    rounding of z = 0.  Elementwise on arrays of z, upper and left.

    For other c the principal argument decides (t a float): t must be
    within a quarter turn of arg z, certified while |c/z^2| < 1/2 (the
    argument lift then errs by less than the candidate separation 1/2);
    else AngleUnresolved.
    """
    if c.imag == 0.0:
        x, y = z.real, z.imag
        by_re = abs(x) >= abs(y)
        on_re, on_im = (x < 0.0) == left, (y > 0.0) == upper
        return on_im ^ (by_re & (on_re ^ on_im))
    if abs(c / (z * z)) >= 0.5:
        raise AngleUnresolved(
            "argument lift uncertified for non-real c at this potential; "
            "evaluate at higher potential")
    base = (cmath.phase(z) / (2.0 * math.pi)) % 1.0
    return ang.circ_dist(t % 1.0, base) <= ang.circ_dist((t + 0.5) % 1.0, base)


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
    (or |w_m| >= _HUGE), halved back to z by `_same_side`: for real c by the
    half-plane of w_j, exact at every level, and by the principal argument
    otherwise, which raises AngleUnresolved where some |c/w_j^2| >= 1/2,
    j < m.  Raises InsideK at vanishing potential and OnSkeleton within
    guard distance (10*tol, measured in angle) of a skeleton arc, where the
    angle is two-valued.
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

    # halve the far angle back along the orbit, choosing each branch; half
    # lies in [0, 1/2), so in (0, 1/2) iff > 0 and in (1/4, 3/4) iff > 1/4
    for w in reversed(orbit[:-1]):
        half = theta / 2.0
        keep = _same_side(c, w, half, half > 0.0, half > 0.25)
        theta = half if keep else half + 0.5
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
    the angle moves to the one-sided limit on `crash_side` (+1 ccw).  A NaN
    or infinite angle raises InvalidInput.
    """
    if isinstance(theta, Fraction):
        t = ang.frac1(theta)
    elif math.isfinite(theta):
        t = float(theta) % 1.0
    else:
        raise InvalidInput(f"angle {theta} is not finite")
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


def _level_angle(p: int, q: int, j: int) -> tuple[float, bool, bool]:
    """t_j = frac(2^j p/q), correctly rounded, and the flags t_j in (0, 1/2)
    and t_j in (1/4, 3/4), by the exact integer rule r = (p << j) % q."""
    r = (p << j) % q
    return r / q, 0 < 2 * r < q, q < 4 * r < 3 * q


def _angle_table(pq: list[tuple[int, int]], top: int):
    """`_level_angle` of every ray at every level j = 0..top: arrays of the
    angles and of both flags by level and ray.

    When every q is a power of two and p < 2^53, each t = p/q is a double,
    and so is every t_j: scaling by 2^j is exact until it overflows, and
    so is `% 1.0`.  Then one broadcast of `np.ldexp(t, j) % 1.0` gives the
    whole table; past level 1000, where 2^j t could overflow, it goes on
    from t_1000 (t_j = frac(2^(j-1000) t_1000)).  Any other p/q takes the
    integer rule: the two rules agree wherever both apply.
    """
    if all(p < 2 ** 53 and not q & (q - 1) and q.bit_length() <= 1075
           for p, q in pq):
        j = np.arange(top + 1)[:, None]
        t = np.ldexp([p / q for p, q in pq], np.minimum(j, 1000)) % 1.0
        if top > 1000:
            t[1001:] = np.ldexp(t[1000], j[1001:] - 1000) % 1.0
        return t, (0.0 < t) & (t < 0.5), (0.25 < t) & (t < 0.75)
    cols = zip(*(_level_angle(p, q, j) for j in range(top + 1) for p, q in pq))
    return tuple(np.reshape(col, (top + 1, len(pq))) for col in cols)


def _descend(sys: GreenSystem, thetas, targets: Sequence[float],
             crash_side: int | None) -> np.ndarray:
    """Points on many external rays at common non-increasing potentials.

    Inverse iteration: the point at target g starts from its far point at
    the least level L with 2^L g >= G_FAR and takes L square roots.  At
    level j the root s = sqrt(w - c) or -s is kept by `_same_side` with the
    exact angle t_j = frac(2^j p/q) (`_angle_table`): for real c the
    half-plane rule; for other c the principal argument, which raises
    AngleUnresolved where some |c/w_j^2| >= 1/2.
    `thetas` are Fractions or floats; the crash rule is `_ray_angle`'s, and
    RayCrash is also raised where some |w - c| <= 1e-12 max(1, |c|), a
    pass through a precritical point.  An empty target list, and targets
    above potential 300, raise InvalidInput.  Returns shape
    (len(targets), len(thetas)).

    One ray at one target, the shape of every `invert_green_coords` and of
    a one-coordinate transport, steps its levels on a Python complex
    (`_descend_point`): numpy's per-call cost on one-element arrays would
    outweigh a level's few flops.  Each step is the array loop's on one
    element, with the root taken by `np.sqrt`, not `cmath.sqrt`, which
    rounds some purely imaginary w - c differently, so the point and its
    errors are the array loop's bit for bit.  Every other call takes the
    array loop.
    """
    targets = [float(g) for g in targets]
    if not targets:
        raise InvalidInput("at least one target potential is required")
    if not all(g > 0.0 for g in targets):
        raise InvalidInput("potential must be positive")
    if any(a < b for a, b in zip(targets, targets[1:])):
        raise InvalidInput("target potentials must be non-increasing")
    if targets[0] > G_MAX:
        raise InvalidInput("potential too large for the float chart range")
    pq = [_ray_angle(sys, t, targets, crash_side) for t in thetas]
    if not pq:
        return np.empty((len(targets), 0), dtype=complex)

    # start level of each target, non-decreasing down the targets
    ell, top = [], 0
    for g in targets:
        while math.ldexp(g, top) < G_FAR:
            top += 1
        ell.append(top)
    c = sys.c
    guard = 1e-12 * max(1.0, abs(c))
    if len(pq) == 1 and len(targets) == 1:
        return _descend_point(sys, *pq[0], targets[0], top, guard)
    t, upper, left = _angle_table(pq, top)
    w = _far_points(sys, t[ell], np.ldexp(targets, ell)[:, None])

    real = sys.is_real
    hits = []
    for j in range(top - 1, -1, -1):
        # rows e: (the targets with L > j) step from level j + 1 to level j
        e = bisect.bisect_right(ell, j)
        dz = w[e:] - c
        near = np.abs(dz)
        if near.min() <= guard:
            hits += [(i, e + r, -j) for r, i in zip(*np.nonzero(near <= guard))]
        s = np.sqrt(dz)
        if real:
            keep = _same_side(c, s, None, upper[j], left[j])
        else:
            keep = [[_same_side(c, z, tz, None, None)
                     for z, tz in zip(row, t[j].tolist())]
                    for row in s.tolist()]
        w[e:] = np.where(keep, s, -s)
    if hits:
        # the first ray's crash at its first target, top level first
        _, r, minus_j = min(hits)
        raise RayCrash("ray passes through a precritical point",
                       crash_potential=math.ldexp(targets[r], -minus_j))
    return w


def _descend_point(sys: GreenSystem, p: int, q: int, g: float, top: int,
                   guard: float) -> np.ndarray:
    """`_descend`'s level loop for the one ray p/q at the one target g,
    from level `top`, on Python scalars; shape (1, 1).

    `_level_angle` gives the angle table's entries.  The precritical guard
    reads every level's |w - c| after the loop, by the array loop's
    `np.abs`, and the first hit from the top names the crash potential.
    """
    w = complex(_far_points(sys, np.array([_level_angle(p, q, top)[0]]),
                            np.array([math.ldexp(g, top)]))[0])
    c = sys.c
    dzs = []
    for j in range(top - 1, -1, -1):
        dz = w - c
        dzs.append(dz)
        s = complex(np.sqrt(dz))
        w = s if _same_side(c, s, *_level_angle(p, q, j)) else -s
    near = np.abs(dzs) <= guard
    if near.any():
        j = top - 1 - int(near.argmax())
        raise RayCrash("ray passes through a precritical point",
                       crash_potential=math.ldexp(g, j))
    return np.array([[w]])


def descend_rays_bulk(sys: GreenSystem, thetas: Sequence[float] | np.ndarray,
                      g_target: float) -> np.ndarray:
    """Points at one common potential on many external rays.

    Same conventions as `invert_green_coords`, ray by ray: the
    counterclockwise one-sided limit at an exact critical access angle below
    its crash potential, RayCrash at the crash potential or through a
    precritical point, AngleUnresolved where the Böttcher series has no
    certified truncation (`_far_points`), and InvalidInput
    above potential 300, past the float range of the chart.  Branches follow
    `_descend`'s rule ray by ray, so each point equals the single-ray
    result bit for bit.  Angles that are not one sequence of numbers, such
    as a 2-D array, are InvalidInput before any work.
    """
    try:
        shape = np.shape(thetas)
    except ValueError:              # a ragged nested sequence
        shape = "(ragged)"
    if len(shape) != 1:
        raise InvalidInput(f"angles must be one-dimensional, got shape {shape}")
    return _descend(sys, thetas, [g_target], crash_side=+1)[0]


def invert_green_coords(sys: GreenSystem, gc: GreenCoordinate | tuple) -> complex:
    """Point with the given Green coordinate.

    For an exact critical access angle below its crash potential the
    counterclockwise one-sided limit is returned (documented convention);
    exactly at the crash potential RayCrash is raised.
    """
    theta, g = gc
    return complex(_descend(sys, [theta], [g], crash_side=+1)[0, 0])


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
    pts = _descend(sys, [angle], pots, crash_side=None)[:, 0].tolist()
    th = angle if isinstance(angle, Fraction) else Fraction(float(angle) % 1.0)
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
        thetas = ang.cylinder_angles(node.window, node.outer_pair, steps)
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


def skeleton(sys: GreenSystem, depth: int) -> list[SkeletonArc]:
    """Skeleton arcs down to the given precritical depth.

    Each level-n precritical point carries the two access angles solving
    2^(n+1) theta = theta_c that bound its cell; the polyline samples the
    two one-sided descending branches through the point, 24 points each.

    The cell is read from the inverse iteration: for real c < -2 every
    parent q of `precritical_points` is real with q - c > 0, so its child
    +sqrt(q - c) lies in arc 0 and -sqrt(q - c) in arc 1, and a level-n
    point's address is the n low bits of its index in its level, least
    significant first.  Other Cantor parameters raise AngleUnresolved.
    """
    if not sys.is_cantor:
        return []
    if not (sys.is_real and sys.c.real < -2.0):
        raise AngleUnresolved(
            "skeleton cells are read off the real inverse iteration; "
            "parameters off the real ray c < -2 are unsupported")
    levels = ang.level_windows(sys.critical_value_angle, depth)
    by_address = {node.address: node for layer in levels for node in layer}
    arcs: list[SkeletonArc] = []
    for j, pc in enumerate(precritical_points(sys, depth)):
        i = j + 1 - (1 << pc.level)         # the index in its level
        node = by_address[tuple(i >> k & 1 for k in range(pc.level))]
        a1, a2 = node.inner_pair
        # 24 potentials below the point's, each 2^(-3/23) times the last
        pots = [pc.potential * (0.5 ** (3.0 * k / 23)) for k in range(1, 25)]
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
    of the Julia set.  A depth outside [0, MAX_JULIA_DEPTH] is InvalidInput.
    """
    if not 0 <= depth <= MAX_JULIA_DEPTH:
        raise InvalidInput(f"julia_samples depth {depth} is outside "
                           f"[0, {MAX_JULIA_DEPTH}]")
    c = sys.c
    beta = (1.0 + cmath.sqrt(1.0 - 4.0 * c)) / 2.0
    pts = np.array([beta], dtype=complex)
    for _ in range(depth):
        r = np.sqrt(pts - c)
        pts = np.concatenate([r, -r])
    return pts
