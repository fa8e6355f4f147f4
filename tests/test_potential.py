import cmath
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenray.angles import circ_dist
from greenray.errors import (AngleUnresolved, Connected, CriticalLevel,
                             InsideK, NonFinite, OnSkeleton, RayCrash)
from greenray.potential import (G_FAR, GreenSystem, QuadraticParams,
                                _crash_level, _far_points,
                                critical_potential, descend_rays_bulk,
                                escape_green, invert_green_coords,
                                julia_samples, log_bottcher,
                                precritical_points, skeleton,
                                trace_equipotential, trace_ray)

from conftest import green_bruteforce


# ---------------------------------------------------------------------------
# escape_green
# ---------------------------------------------------------------------------

def test_disk_green_is_log_abs(sys_0):
    g, err = escape_green(sys_0, 2.0)
    assert abs(g - math.log(2.0)) <= 1e-12
    assert err <= sys_0.tol


def test_unit_circle_is_boundary(sys_0):
    # the float-rounded point may sit an ulp off the circle and escape with
    # a correspondingly tiny potential; zero within tol either way
    g, err = escape_green(sys_0, cmath.exp(1j * math.pi / 3))
    assert abs(g) <= sys_0.tol
    assert err <= sys_0.tol
    g_in, err_in = escape_green(sys_0, 0.5 + 0.25j)
    assert g_in == 0.0 and err_in == sys_0.tol


def test_green_functional_equation_at_critical_value(sys_m3):
    # G(f(0)) = 2 G(0); oracle: plain fixed-count escape iteration
    g_c, _ = escape_green(sys_m3, -3.0)
    g_0, _ = escape_green(sys_m3, 0.0)
    assert abs(g_c - 2.0 * g_0) <= 2.0 * sys_m3.tol
    assert abs(g_0 - green_bruteforce(-3.0, 0.0)) <= 1e-10
    assert abs(g_c - green_bruteforce(-3.0, -3.0)) <= 1e-10


@pytest.mark.parametrize("c", [-3.0, -5.0])
def test_green_functional_equation_random(c):
    sys_ = GreenSystem.from_c(c)
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 200:
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        g, _ = escape_green(sys_, z)
        if g == 0.0:
            continue
        gf, _ = escape_green(sys_, z * z + c)
        assert abs(gf - 2.0 * g) <= 4.0 * sys_.tol
        checked += 1


@pytest.mark.parametrize("c", [-3.0, -1.0, 0.0])
@given(x=st.floats(-4.0, 4.0), y=st.floats(-4.0, 4.0))
@settings(max_examples=100, deadline=None)
def test_green_functional_equation_within_bounds(c, x, y):
    # G(f(z)) = 2 G(z) within the returned bounds, which cover the
    # rounding of the final log as well as the harmonic tail (at c = 0,
    # z = 2 + 4i the tail is 0 and the sides differ by 4.4e-16)
    sys_ = GreenSystem.from_c(c)
    z = complex(x, y)
    g, err = escape_green(sys_, z)
    gf, err_f = escape_green(sys_, z * z + c)
    assert abs(gf - 2.0 * g) <= err_f + 2.0 * err


@pytest.mark.parametrize("c", [0.0, -3.0, -5.0])
def test_capacity_robin(c):
    # monic capacity 1: G(R) - log R -> 0; at R = 1e3 the genuine harmonic
    # tail |c|/(2R^2) dominates, so the strict 1e-6 budget applies at 1e6
    sys_ = GreenSystem.from_c(c)
    g6, _ = escape_green(sys_, 1e6)
    assert abs(g6 - math.log(1e6)) <= 1e-6
    g3, _ = escape_green(sys_, 1e3)
    assert abs(g3 - math.log(1e3)) <= abs(c) / 1e6 + 1e-9


def test_nonfinite_input(sys_m3):
    with pytest.raises(NonFinite):
        escape_green(sys_m3, complex("inf"))


def test_overflow_before_certification():
    # escape radius beyond float range forces an overflow mid-iteration
    params_bad = QuadraticParams(c=0.0, escape_radius=1e300, max_iter=50)
    sys_bad = GreenSystem(params_bad, "connected", None, 0.0, 0.0)
    with pytest.raises(NonFinite):
        escape_green(sys_bad, 1e200)


def test_params_validation():
    with pytest.raises(ValueError):
        QuadraticParams(c=-3.0, escape_radius=1.0)
    with pytest.raises(ValueError):
        QuadraticParams(c=-3.0, escape_radius=6.0, max_iter=0)
    with pytest.raises(ValueError):
        QuadraticParams(c=-3.0, escape_radius=6.0, tol=0.0)


# ---------------------------------------------------------------------------
# log_bottcher
# ---------------------------------------------------------------------------

def test_angle_disk_quarter(sys_0):
    gc = log_bottcher(sys_0, 2j)
    assert abs(gc.angle - 0.25) <= 1e-12
    assert abs(gc.potential - math.log(2.0)) <= 1e-12


def test_angle_real_axis_is_zero_ray(sys_m3):
    gc = log_bottcher(sys_m3, 3.0)
    assert gc.angle == 0.0


def test_bottcher_conjugacy_doubles(sys_m3, exterior_samples_m3):
    # angle doubling / potential doubling under f, on 100 random samples
    count = 0
    for z in exterior_samples_m3:
        try:
            gc = log_bottcher(sys_m3, z)
            gc2 = log_bottcher(sys_m3, z * z - 3.0)
        except OnSkeleton:
            continue
        d = abs((2.0 * gc.angle - gc2.angle) % 1.0)
        assert min(d, 1.0 - d) <= 1e-7
        assert abs(gc2.potential - 2.0 * gc.potential) <= 4.0 * sys_m3.tol
        count += 1
        if count == 100:
            break
    assert count == 100


def test_inside_k_raises(sys_0, sys_m1):
    with pytest.raises(InsideK):
        log_bottcher(sys_0, 0.5)
    with pytest.raises(InsideK):
        log_bottcher(sys_m1, 0.1 + 0.1j)


def test_on_skeleton_raises(sys_m3):
    # real points in the central gap sit on the level-0 skeleton arc
    with pytest.raises(OnSkeleton):
        log_bottcher(sys_m3, 0.5)
    with pytest.raises(OnSkeleton):
        log_bottcher(sys_m3, 0.0)


# ---------------------------------------------------------------------------
# invert_green_coords
# ---------------------------------------------------------------------------

def test_invert_disk(sys_0):
    z = invert_green_coords(sys_0, (0.25, math.log(2.0)))
    assert abs(z - 2j) <= 1e-12


def test_invert_real_ray_bisection_oracle(sys_m3):
    # the 0-ray point at potential g is the unique real x > beta with
    # G(x) = g; bisect the brute-force Green value
    g_target = 0.31
    lo, hi = (1.0 + math.sqrt(13.0)) / 2.0 + 1e-9, 50.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if green_bruteforce(-3.0, mid) < g_target:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    z = invert_green_coords(sys_m3, (0.0, g_target))
    assert abs(z.imag) <= 1e-12
    assert abs(z.real - oracle) <= 1e-7


def test_round_trip_identity(sys_m3, exterior_samples_m3):
    count = 0
    for z in exterior_samples_m3:
        try:
            gc = log_bottcher(sys_m3, z)
        except OnSkeleton:
            continue
        back = invert_green_coords(sys_m3, gc)
        assert abs(back - z) <= 10.0 * sys_m3.tol
        count += 1
        if count == 100:
            break
    assert count == 100


def test_invert_rejects_zero_potential(sys_m3):
    with pytest.raises(ValueError):
        invert_green_coords(sys_m3, (0.1, 0.0))


def test_invert_crash_at_exact_potential(sys_m3):
    g0 = critical_potential(sys_m3)
    with pytest.raises(RayCrash):
        invert_green_coords(sys_m3, (Fraction(1, 4), g0))


def test_invert_one_sided_limit_below_crash(sys_m3):
    # below the crash the 1/4-ray continues one-sidedly into the left lobe
    g0 = critical_potential(sys_m3)
    z = invert_green_coords(sys_m3, (Fraction(1, 4), g0 / 4.0))
    assert z.real < 0.0
    assert abs(z.imag) < 1e-6


# ---------------------------------------------------------------------------
# trace_ray
# ---------------------------------------------------------------------------

def test_trace_ray_disk_real_axis(sys_0):
    pts = trace_ray(sys_0, 0.0, 0.1, 1.0, 5)
    assert abs(pts[0].point - math.exp(1.0)) <= 1e-9
    assert abs(pts[-1].point - math.exp(0.1)) <= 1e-9
    for p in pts:
        assert abs(p.point.imag) <= 1e-12
        assert abs(p.point.real - math.exp(p.potential)) <= 1e-9


def test_trace_ray_monotone_and_self_consistent(sys_m3):
    pts = trace_ray(sys_m3, Fraction(1, 3), 0.05, 1.2, 16)
    pots = [p.potential for p in pts]
    assert all(a > b for a, b in zip(pots, pots[1:]))
    for p in pts:
        g, _ = escape_green(sys_m3, p.point)
        assert abs(g - p.potential) <= sys_m3.tol
        gc = log_bottcher(sys_m3, p.point)
        d = abs(gc.angle - 1.0 / 3.0) % 1.0
        assert min(d, 1.0 - d) <= 1e-7


def test_trace_ray_crash_on_access_angle(sys_m3):
    g0 = critical_potential(sys_m3)
    with pytest.raises(RayCrash) as exc:
        trace_ray(sys_m3, Fraction(1, 4), g0 / 4.0, 2.0, 8)
    assert exc.value.level == 0
    assert abs(exc.value.crash_potential - g0) <= 1e-12


def test_trace_ray_validation(sys_m3):
    with pytest.raises(ValueError):
        trace_ray(sys_m3, 0.1, 1.0, 0.5, 4)
    with pytest.raises(ValueError):
        trace_ray(sys_m3, 0.1, 0.5, 1.0, 1)


# ---------------------------------------------------------------------------
# batched ray descent: the checks of the single-ray path hold ray by ray
# ---------------------------------------------------------------------------

def test_bulk_raises_at_crash_potential(sys_m3):
    g0 = critical_potential(sys_m3)
    with pytest.raises(RayCrash) as exc:
        descend_rays_bulk(sys_m3, [0.25], g0)
    assert exc.value.level == 0
    assert exc.value.crash_potential == g0


def test_bulk_one_sided_limit_below_crash(sys_m3):
    g0 = critical_potential(sys_m3)
    z = descend_rays_bulk(sys_m3, [Fraction(1, 4)], g0 / 4.0)[0]
    assert z == invert_green_coords(sys_m3, (Fraction(1, 4), g0 / 4.0))
    # the counterclockwise limit runs along the upper side of the real gap
    assert abs(z.real + 0.8158) <= 1e-4 and 0.0 < z.imag < 1e-6


def test_bulk_series_domain():
    # |c/w^2| > 1/2 already at the far potential e^G_FAR
    with pytest.raises(AngleUnresolved):
        descend_rays_bulk(GreenSystem.from_c(-1e5), [0.1], 1.0)


FAR_POINT_PARAMS = [-5.0, -3.0, -1.0, 0.25, -100.0, 0.3 + 0.5j]


def _log_phi(c, w):
    """log phi_c(w) and its w-derivative from the Böttcher product formula
    phi_c(w) = w prod_n (1 + c/w_n^2)^(2^-(n+1)), w_0 = w, w_(n+1) = w_n^2 + c,
    in mpmath at the working precision."""
    s, ds, wn, dwn, p = mpmath.log(w), 1 / w, w, mpmath.mpf(1), mpmath.mpf(0.5)
    while True:
        t = c / (wn * wn)
        s += p * mpmath.log(1 + t)
        ds -= p * 2 * c * dwn / (wn * (wn * wn + c))
        if abs(t) * p < mpmath.mpf(10) ** -45:
            return s, ds
        wn, dwn, p = wn * wn + c, 2 * wn * dwn, p / 2


def _far_point_oracle(c: complex, theta: float, g: float, w0: complex):
    """The w with phi_c(w) = exp(g + 2 pi i theta), by Newton at 40 digits."""
    with mpmath.workdps(40):
        c, w = mpmath.mpc(c), mpmath.mpc(w0)
        target = mpmath.mpf(g) + 2j * mpmath.pi * mpmath.mpf(theta)
        for _ in range(8):
            s, ds = _log_phi(c, w)
            f = s - target
            f -= 2j * mpmath.pi * mpmath.nint(f.imag / (2 * mpmath.pi))
            w -= f / ds
        return complex(w)


@pytest.mark.parametrize("c", FAR_POINT_PARAMS)
def test_far_points_match_high_precision_oracle(c):
    sys_ = GreenSystem.from_c(c)
    rng = np.random.default_rng(1985)
    theta = rng.random(16)
    g = G_FAR * (1.0 + rng.random(16))
    g[0] = G_FAR
    w = _far_points(sys_, theta, g)
    for t, gg, z in zip(theta, g, w):
        exact = _far_point_oracle(c, t, gg, z)
        assert abs(z - exact) <= 5.0 * math.ulp(1.0) * abs(exact)


def _angle_error(sys_, z: complex) -> float:
    """Turns between the angle of log_bottcher at z and arg phi_c(z)/2pi from
    the Böttcher product formula at 40 digits."""
    theta = log_bottcher(sys_, z).angle
    with mpmath.workdps(40):
        s, _ = _log_phi(mpmath.mpc(sys_.c), mpmath.mpc(z))
        d = mpmath.frac(mpmath.mpf(theta) - s.imag / (2 * mpmath.pi))
        return float(min(d, 1 - d))


@pytest.mark.parametrize("c", FAR_POINT_PARAMS + [0.0])
def test_log_bottcher_angle_matches_product_formula(c):
    # |z| >= 2 and |c/z^2| <= 1/2 keep every factor of the product within
    # |c/w_n^2| <= 1/2, on the principal branch
    sys_ = GreenSystem.from_c(c)
    rng = np.random.default_rng(1916)
    r = max(math.sqrt(2.0 * abs(c)), 2.0) * np.exp(3.0 * rng.random(16))
    for z in r * np.exp(2j * np.pi * rng.random(16)):
        assert _angle_error(sys_, complex(z)) <= 2.0 ** -52


def test_log_bottcher_angle_large_real_c():
    # at c = -1e5 |c/z^2| exceeds 1/2 just above G_FAR; the fold-bit rule
    # for real c needs no bound on it
    sys_ = GreenSystem.from_c(-1e5)
    rng = np.random.default_rng(1917)
    zs = np.exp(6.0 + 0.6 * rng.random(64) + 2j * np.pi * rng.random(64))
    kept = [complex(z) for z in zs
            if 6.0 <= escape_green(sys_, complex(z))[0] <= 6.3
            and abs(sys_.c / (z * z)) < 0.9]
    assert len(kept) >= 16
    assert max(abs(sys_.c / (z * z)) for z in kept) > 0.5
    for z in kept:
        assert _angle_error(sys_, z) <= 2.0 ** -52


def _univalence_radius(sys_) -> float:
    return math.exp(critical_potential(sys_)) if sys_.is_cantor else 1.0


@pytest.mark.parametrize("c", FAR_POINT_PARAMS + [-2.0, -7e4])
def test_psi_coefficients_obey_area_theorem(c):
    # psi(u) = u + sum b_k u^-k with b_(2n-1) = a_n is univalent on |u| > R:
    # sum k |b_k|^2 R^(-2k-2) <= 1, so |a_n| <= R^(2n)/sqrt(2n-1); c = -2
    # (psi(u) = u + 1/u) meets both with equality
    sys_ = GreenSystem.from_c(c)
    r2 = _univalence_radius(sys_) ** 2
    a = sys_._psi
    assert a[0] == 1.0 and len(a) >= 2
    area = 0.0
    for n in range(1, len(a)):
        assert abs(a[n]) <= r2 ** n / math.sqrt(2 * n - 1) * (1.0 + 1e-12)
        area += (2 * n - 1) * abs(a[n] / r2 ** n) ** 2
    assert area <= 1.0 + 1e-12


@pytest.mark.parametrize("c", FAR_POINT_PARAMS + [-7e4])
def test_psi_truncation_meets_quarter_ulp(c):
    sys_ = GreenSystem.from_c(c)
    q = _univalence_radius(sys_) ** 2 * math.exp(-2.0 * G_FAR)
    order = len(sys_._psi) - 1
    tail = q ** (order + 1) / (1.0 - q)
    assert tail <= 0.25 * math.ulp(1.0 - q / (1.0 - q))


def test_psi_truncation_uncertified_raises():
    # |c/u^2| <= 1/2 at every far potential, but the area-theorem tail at
    # G_FAR needs more than the largest order tried
    sys_ = GreenSystem.from_c(-7.5e4)
    assert sys_._psi == ()
    assert abs(sys_.c) * math.exp(-2.0 * G_FAR) < 0.5
    with pytest.raises(AngleUnresolved):
        descend_rays_bulk(sys_, [0.1], 20.0)


def test_bulk_crash_guard_through_precritical_point(sys_m3):
    # 2^-48 off the access 1/4 is no exact access of a level above g0, but
    # the ray passes within the guard distance of the critical point
    g0 = critical_potential(sys_m3)
    theta = 0.25 + 2.0 ** -48
    with pytest.raises(RayCrash) as single:
        invert_green_coords(sys_m3, (theta, g0))
    with pytest.raises(RayCrash) as batch:
        descend_rays_bulk(sys_m3, [0.3, theta, 0.7], g0)
    assert single.value.level is None and batch.value.level is None
    assert batch.value.crash_potential == single.value.crash_potential == g0


def test_log_bottcher_far_field_unchanged(sys_m3):
    # beyond _HUGE the Böttcher correction vanishes: the angle is the phase
    gc = log_bottcher(sys_m3, 1e300 * cmath.exp(0.5j))
    assert gc.angle == 0.5 / (2.0 * math.pi)
    assert gc.potential == math.log(1e300)


def _reference_ray(c: complex, theta: float, targets: list[float]) -> list[complex]:
    """Independent scalar reference: rung-major inverse iteration in cmath.

    Rungs 12 per octave from potential 6 down, with the targets inserted;
    each rung starts at the Böttcher far point on its first level with
    potential >= 6 and takes the square root nearest the previous rung's
    point on the same level.
    """
    def far(t: float, g: float) -> complex:
        u = cmath.exp(complex(g, 2.0 * math.pi * t))
        w = u
        for _ in range(8):
            log_ratio, wn, p = 0j, w, 0.5
            while abs(wn) < 1e100 and p > 1e-20:
                log_ratio += p * cmath.log(1.0 + c / (wn * wn))
                wn, p = wn * wn + c, p / 2.0
            w = u / cmath.exp(log_ratio)
        return w

    octaves = math.log2(6.0 / targets[-1])
    rungs = sorted({6.0 * 2.0 ** (-k / 12.0) for k in range(int(12 * octaves) + 1)}
                   | set(targets), reverse=True)
    prev: dict[int, complex] = {}
    out = {}
    for tau in rungs:
        ell = max(0, math.ceil(math.log2(6.0 / tau)))
        chain = {ell: far(theta * 2.0 ** ell % 1.0, tau * 2.0 ** ell)}
        for j in range(ell - 1, -1, -1):
            r = cmath.sqrt(chain[j + 1] - c)
            a = prev.get(j, far(theta * 2.0 ** j % 1.0, 6.0))
            chain[j] = r if abs(r - a) <= abs(r + a) else -r
        prev, out[tau] = chain, chain[0]
    return [out[g] for g in targets]


@pytest.mark.parametrize("c", [-3.0, -1.0, -5.0])
def test_descent_matches_scalar_reference(c):
    sys_ = GreenSystem.from_c(c)
    thetas = np.random.default_rng(1405).random(12)
    for g in (1.5, 0.3, 0.02):
        batch = descend_rays_bulk(sys_, thetas, g)
        ref = np.array([_reference_ray(sys_.c, t, [g])[0] for t in thetas])
        assert np.max(np.abs(batch - ref)) <= 1e-14
    for t in thetas[:3]:
        pts = trace_ray(sys_, t, 0.02, 1.5, 7)
        ref = _reference_ray(sys_.c, t, [p.potential for p in pts])
        assert max(abs(p.point - r) for p, r in zip(pts, ref)) <= 1e-14


def _doubling_orbit(p: int, q: int) -> list[int]:
    """Numerators over q of frac(2^(n+1) p/q) for n < bit_length(q).

    Brute force; past the 2-adic valuation of q the denominator is odd and
    stays odd, so no later doubling can reach an even-denominator angle.
    """
    out = []
    for _ in range(q.bit_length()):
        p = 2 * p % q
        out.append(p)
    return out


@pytest.mark.parametrize("tc", [Fraction(1, 2), Fraction(1, 6),
                                Fraction(3, 10), Fraction(5, 8)])
def test_crash_level_rule_matches_doubling_oracle(tc):
    # the critical value angle is the only parameter data the rule reads
    sys_ = GreenSystem.from_c(-3.0, critical_value_angle=tc)
    rng = np.random.default_rng(2014)
    angles = [(p, q) for q in range(1, 513) for p in range(q)
              if math.gcd(p, q) == 1]
    angles += [float(x).as_integer_ratio() for x in rng.random(20000)]
    hits = 0
    for p, q in angles:
        orbit = _doubling_orbit(p, q)
        x, rem = divmod(tc.numerator * q, tc.denominator)
        expected = orbit.index(x) if rem == 0 and x in orbit else None
        assert _crash_level(sys_, p, q) == expected, (p, q)
        hits += expected is not None
    assert hits > 50


@pytest.mark.parametrize("c", [-3.0, -1.0])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_batched_descent_is_per_ray_descent(c, data):
    sys_ = GreenSystem.from_c(c)
    g = data.draw(st.floats(min_value=0.005, max_value=2.0), label="g")
    thetas = data.draw(st.lists(
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
        | st.fractions(min_value=0, max_value=1, max_denominator=64),
        min_size=1, max_size=12), label="thetas")
    try:
        single = [invert_green_coords(sys_, (t, g)) for t in thetas]
    except RayCrash:
        with pytest.raises(RayCrash):
            descend_rays_bulk(sys_, thetas, g)
        return
    batch = descend_rays_bulk(sys_, thetas, g)
    assert np.array_equal(batch, np.array(single))
    for t, z in zip(thetas, single):
        try:
            gc = log_bottcher(sys_, z)
        except OnSkeleton:
            continue
        assert abs(gc.potential - g) <= 20.0 * sys_.tol
        assert circ_dist(gc.angle, float(t) % 1.0) <= 20.0 * sys_.tol


# ---------------------------------------------------------------------------
# trace_equipotential
# ---------------------------------------------------------------------------

def test_equipotential_disk_circle(sys_0):
    curves = trace_equipotential(sys_0, math.log(2.0), 32)
    assert len(curves) == 1
    for p in curves[0]:
        assert abs(abs(p) - 2.0) <= 1e-9


def test_equipotential_component_counts(sys_m3):
    # component count = 2^(number of precritical levels above g);
    # oracle: count levels from the measured precritical potentials
    g0 = critical_potential(sys_m3)
    pts = precritical_points(sys_m3, 2)
    for g, expected_from_levels in ((1.5 * g0, 0), (0.7 * g0, 1), (0.3 * g0, 2)):
        k = len({p.level for p in pts if p.potential > g})
        assert expected_from_levels == k
        curves = trace_equipotential(sys_m3, g, 12)
        assert len(curves) == 2 ** k
        for curve in curves:
            for p in curve:
                gg, _ = escape_green(sys_m3, p)
                assert abs(gg - g) <= sys_m3.tol


def test_equipotential_critical_level_raises(sys_m3):
    g0 = critical_potential(sys_m3)
    with pytest.raises(CriticalLevel):
        trace_equipotential(sys_m3, g0, 16)
    with pytest.raises(CriticalLevel):
        trace_equipotential(sys_m3, g0 / 2.0, 16)


# ---------------------------------------------------------------------------
# critical_potential / precritical_points
# ---------------------------------------------------------------------------

def test_critical_potential_identity(sys_m3):
    g0 = critical_potential(sys_m3)
    gc, _ = escape_green(sys_m3, -3.0)
    assert abs(2.0 * g0 - gc) <= 2.0 * sys_m3.tol


def test_critical_potential_connected_raises(sys_0):
    with pytest.raises(Connected):
        critical_potential(sys_0)


def test_critical_potential_monotone_on_real_ray():
    vals = [critical_potential(GreenSystem.from_c(c))
            for c in (-2.5, -3.0, -5.0)]
    assert vals[0] < vals[1] < vals[2]


def test_precritical_points_levels(sys_m3):
    pts = precritical_points(sys_m3, 3)
    g0 = critical_potential(sys_m3)
    for n in range(4):
        level = [p for p in pts if p.level == n]
        assert len(level) == 2 ** n
        for p in level:
            assert abs(p.potential - g0 / 2 ** n) <= sys_m3.tol * (n + 1)
    level1 = sorted(p.point.real for p in pts if p.level == 1)
    assert abs(level1[0] + math.sqrt(3.0)) <= 1e-12
    assert abs(level1[1] - math.sqrt(3.0)) <= 1e-12


def test_precritical_depth_zero(sys_m3):
    pts = precritical_points(sys_m3, 0)
    assert len(pts) == 1 and pts[0].point == 0.0


# ---------------------------------------------------------------------------
# skeleton
# ---------------------------------------------------------------------------

def test_skeleton_depth0_accesses(sys_m3):
    arcs = skeleton(sys_m3, 0)
    assert len(arcs) == 1
    arc = arcs[0]
    assert arc.precritical_point == 0.0
    assert set(arc.access_angles) == {Fraction(1, 4), Fraction(3, 4)}
    # ray-crash oracle: both access rays crash at the point
    for a in arc.access_angles:
        with pytest.raises(RayCrash) as exc:
            trace_ray(sys_m3, a, arc.point_potential / 8.0, 1.0, 6)
        assert abs(exc.value.crash_potential - arc.point_potential) <= 1e-12


def test_skeleton_depth1_accesses(sys_m3):
    arcs = skeleton(sys_m3, 1)
    assert len(arcs) == 3
    candidates = {Fraction(1, 8), Fraction(3, 8), Fraction(5, 8), Fraction(7, 8)}
    deep = [a for a in arcs if a.level == 1]
    assert len(deep) == 2
    seen = set()
    for arc in deep:
        assert set(arc.access_angles) <= candidates
        seen |= set(arc.access_angles)
        # accesses differ by an odd multiple of 2^-(depth+1)
        delta = abs(arc.access_angles[0] - arc.access_angles[1])
        q = delta / Fraction(1, 2 ** (arc.level + 1))
        assert q.denominator == 1 and q.numerator % 2 == 1
    assert seen == candidates


def test_skeleton_polyline_descends(sys_m3):
    arc = skeleton(sys_m3, 0)[0]
    pots = []
    for p in arc.polyline:
        g, _ = escape_green(sys_m3, p)
        pots.append(g)
    assert max(pots) <= arc.point_potential + 1e-9


def test_skeleton_connected_empty(sys_0, sys_m1):
    assert skeleton(sys_0, 3) == []
    assert skeleton(sys_m1, 3) == []


# ---------------------------------------------------------------------------
# parameter continuity (Hausdorff convergence sanity)
# ---------------------------------------------------------------------------

def test_green_values_converge_along_real_ray(sys_m3):
    grid = [complex(x, y) for x in (-2.0, 0.5, 2.2) for y in (0.8, 1.6)]
    sups = []
    for c in (-3.1, -3.01, -3.001):
        sys_c = GreenSystem.from_c(c)
        sup = max(abs(escape_green(sys_c, z)[0] - escape_green(sys_m3, z)[0])
                  for z in grid)
        sups.append(sup)
    assert sups[0] > sups[1] > sups[2]
    assert sups[2] < 1e-3


# ---------------------------------------------------------------------------
# non-real parameters
# ---------------------------------------------------------------------------

def test_nonreal_requires_explicit_angle():
    with pytest.raises(ValueError):
        GreenSystem.from_c(1 + 1j)


def test_nonreal_angle_high_potential_round_trip():
    sys_ = GreenSystem.from_c(1 + 1j, critical_value_angle=Fraction(1, 6))
    z = 8.0 + 6.0j
    gc = log_bottcher(sys_, z)
    assert abs(invert_green_coords(sys_, gc) - z) <= 10.0 * sys_.tol


def test_nonreal_angle_low_potential_unresolved():
    from greenray.errors import AngleUnresolved
    sys_ = GreenSystem.from_c(1 + 1j, critical_value_angle=Fraction(1, 6))
    with pytest.raises(AngleUnresolved):
        log_bottcher(sys_, 0.05 + 0.30j)


def test_periodic_critical_angle_rejected():
    with pytest.raises(ValueError):
        GreenSystem.from_c(1 + 1j, critical_value_angle=Fraction(1, 3))


# ---------------------------------------------------------------------------
# julia samples
# ---------------------------------------------------------------------------

def test_julia_samples_on_circle(sys_0):
    pts = julia_samples(sys_0, 8)
    assert pts.shape == (256,)
    assert np.max(np.abs(np.abs(pts) - 1.0)) <= 1e-12


def test_julia_samples_real_cantor(sys_m3):
    pts = julia_samples(sys_m3, 10)
    beta = (1.0 + math.sqrt(13.0)) / 2.0
    assert np.max(np.abs(pts.imag)) == 0.0
    assert np.max(np.abs(pts.real)) <= beta + 1e-12
    # samples are near the boundary: small Green values
    gs = [escape_green(sys_m3, complex(p))[0] for p in pts[:64]]
    assert max(gs) <= 1e-2
