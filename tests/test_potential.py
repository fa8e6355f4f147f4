import cmath
import hashlib
import math
import random
import re
import struct
from fractions import Fraction
from typing import Sequence

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import greenray.potential
from greenray.angles import (circ_dist, cylinder_angles, frac1,
                             level_windows)
from greenray.errors import (AngleUnresolved, Connected, CriticalLevel,
                             GreenrayError, InsideK, InvalidInput, NonFinite,
                             OnSkeleton, RayCrash)
from greenray.potential import (G_FAR, MAX_JULIA_DEPTH, GreenSystem,
                                _angle_table, _crash_level, _descend,
                                _float_column,
                                _far_points, _level_angle, _ray_angle,
                                critical_potential, descend_rays_bulk,
                                escape_green, escape_green_bulk,
                                invert_green_coords,
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
    # for |c| = 1e200 the escape radius lies past _HUGE: the first iterate
    # of 7e99, about -5.1e199, is inside the radius, yet its square overflows
    sys_bad = GreenSystem.from_c(-1e200)
    with pytest.raises(NonFinite, match="^iterate overflow before escape "
                                        "certification$"):
        escape_green(sys_bad, 7e99)


def test_params_validation():
    assert GreenSystem.from_c(-3.0).escape_radius == 5.0
    assert GreenSystem.from_c(0.25j).escape_radius == 3.0
    with pytest.raises(ValueError):
        GreenSystem.from_c(-3.0, max_iter=0)
    with pytest.raises(ValueError):
        GreenSystem.from_c(-3.0, tol=0.0)
    with pytest.raises(NonFinite):
        GreenSystem.from_c(complex("nan"))


# ---------------------------------------------------------------------------
# escape_green_bulk: the scalar loop's bits, point by point
# ---------------------------------------------------------------------------

def _assert_bit_equal(sys_, zs):
    g, err = escape_green_bulk(sys_, zs)
    ref = [escape_green(sys_, z) for z in zs]
    assert np.asarray(g).shape == np.asarray(zs).shape
    want_g = np.array([r[0] for r in ref])
    want_err = np.array([r[1] for r in ref])
    # compared as int64 so that -0.0 != 0.0
    assert g.view(np.int64).tolist() == want_g.view(np.int64).tolist()
    assert err.view(np.int64).tolist() == want_err.view(np.int64).tolist()
    return ref


_box = st.builds(complex, st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
# far out, up to past _HUGE: with tol = 1e-300 the tail stays above tol
# until an orbit reaches 1e150
_far = st.builds(cmath.rect, st.floats(1e3, 1e153),
                 st.floats(0.0, 2.0 * math.pi))


@pytest.mark.parametrize("c", [-3.0, -1.0, 0.0, 0.3 + 0.5j])
@given(zs=st.lists(st.one_of(_box, _box, _far), min_size=1, max_size=40),
       max_iter=st.sampled_from([2, 7, 256]),
       tol=st.sampled_from([1e-9, 1e-300]))
@settings(max_examples=60, deadline=None)
def test_escape_green_bulk_bit_equal(c, zs, max_iter, tol):
    _assert_bit_equal(GreenSystem.from_c(c, max_iter=max_iter, tol=tol), zs)


@pytest.mark.parametrize("c", [-3.0, -1.0, 0.0, 0.3 + 0.5j])
def test_escape_green_bulk_bit_equal_on_every_stop(c):
    # a grid over the filled Julia set with a small budget, and far points
    # whose orbits reach _HUGE at a tiny tol; every kind of stop occurs
    x = np.linspace(-2.1, 2.1, 61)
    grid = (x[None, :] + 1j * x[:, None]).ravel().tolist()
    far = [1e80, -1e80j, 1e150, complex(3e151, -2e151), 1e100 + 1e100j]
    ref = _assert_bit_equal(GreenSystem.from_c(c, max_iter=6), grid + far)
    assert any(g == 0.0 for g, _ in ref)                        # inside
    # out of budget (at c = 0 the tail, and so the sign of it, is 0)
    assert c == 0.0 or any(e > 1e-9 for g, e in ref if g > 0.0)
    ref = _assert_bit_equal(GreenSystem.from_c(c), grid + far)
    assert any(g > 0.0 and e <= 1e-9 for g, e in ref)           # certified
    sys_ = GreenSystem.from_c(c, tol=1e-300)
    ref = _assert_bit_equal(sys_, grid + far)
    # 1e80 -> 1e160 and 1e150 stop at _HUGE, with no harmonic tail
    for g, e in ref[-len(far):]:
        assert e == math.ulp(g) + 4.0 * math.ulp(1.0)


def test_escape_green_bulk_keeps_shape(sys_m1):
    z = np.array([[0.0, 3.0], [1j, 2.5 - 1j], [0.3, -4.0]])
    g, err = escape_green_bulk(sys_m1, z)
    assert g.shape == err.shape == (3, 2)
    assert g[1, 1] == escape_green(sys_m1, 2.5 - 1j)[0]
    empty = escape_green_bulk(sys_m1, [])
    assert empty[0].shape == empty[1].shape == (0,)


def _bulk_raises_like_scalar(sys_, zs):
    with pytest.raises(NonFinite) as scalar:
        for z in zs:
            escape_green(sys_, z)
    with pytest.raises(NonFinite) as bulk:
        escape_green_bulk(sys_, zs)
    assert str(bulk.value) == str(scalar.value)


@pytest.mark.parametrize("bad", [complex("nan"), complex("inf"),
                                 complex(1.0, float("-inf")),
                                 complex(float("nan"), 0.0)])
def test_escape_green_bulk_nonfinite_input(sys_m3, bad):
    _bulk_raises_like_scalar(sys_m3, [0.5, 3.0 + 1j, bad, 0.1])


def test_escape_green_bulk_overflow_before_certification():
    sys_bad = GreenSystem.from_c(-1e200)
    _bulk_raises_like_scalar(sys_bad, [0.5, 7e99, 2.0])
    # the first failing point in order names the error, whatever its kind
    _bulk_raises_like_scalar(sys_bad, [0.5, 7e99, complex("nan")])
    _bulk_raises_like_scalar(sys_bad, [0.5, complex("nan"), 7e99])


def test_escape_green_bulk_iterate_overflow():
    # 1e149^2 + c passes the float range in one step; c is off the real
    # axis, whose Cantor part above 1/4 is refused (angle 0)
    sys_big = GreenSystem.from_c(complex(1.7976931348623157e308, 1.0),
                                 critical_value_angle=Fraction(1, 2))
    with pytest.raises(NonFinite, match="^iterate overflow$"):
        escape_green(sys_big, 1e149)
    _bulk_raises_like_scalar(sys_big, [1e149])
    _bulk_raises_like_scalar(sys_big, [0.0, 1e149, complex("inf")])


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


def _pinned_exterior_points(sys_, seed: int, n: int = 3000) -> list[complex]:
    """n seeded exterior points of f_c (real c), drawn in pure Python.

    A third are uniform in a box around K_c, a third lie near the imaginary
    axis (rays 1/4 and 3/4) and a third near the real axis, at offsets
    spread over twelve decades, where the branch rule has least margin.
    """
    rng = random.Random(seed)
    r = 0.5 + (1.0 + math.sqrt(1.0 - 4.0 * sys_.c.real)) / 2.0
    pts: list[complex] = []
    while len(pts) < n:
        x, y = rng.uniform(-r, r), rng.uniform(-r, r)
        near = rng.choice((-r, r)) * 10.0 ** -rng.uniform(1.0, 12.0)
        z = (complex(x, y), complex(near, y), complex(x, near))[len(pts) % 3]
        if escape_green(sys_, z)[0] > 0.0:
            pts.append(z)
    return pts


# sha256 of the log_bottcher angle bits (or the error name) on
# `_pinned_exterior_points`, recorded before the half-plane rule was shared
# with ray descent
_LOG_BOTTCHER_PINS = {
    -5.0: "89a4aa5e177b716527324e39e4c596fc9b495585cdfd77ed422fb07c0999fdeb",
    -3.0: "85bbc7a0a1a886af7605c6f461798bc738fb722b6ff02558bec945341c52b88b",
    -2.5: "f96efea6f016faf28dc6716fd0f7febe95fe06c8394908d2413b4d33d3d7615a",
    -1.0: "56460f7e8ca223bf90a0de5d8d31707f7858a1e40977370155be0405a2c3f8e3",
    0.0: "70ff121c11f0afa989c8fc695b190ed6109442ff293b731f9cde9a3c5adee95a",
    0.25: "e2572db289cf0c6176ee2de57760167c7e24dce03ea43131860835dc28490080",
}


@pytest.mark.parametrize("c", sorted(_LOG_BOTTCHER_PINS))
def test_log_bottcher_angles_pinned(c):
    sys_ = GreenSystem.from_c(c)
    h = hashlib.sha256()
    for z in _pinned_exterior_points(sys_, seed=int(1000 * c) + 7):
        try:
            h.update(struct.pack("<d", log_bottcher(sys_, z).angle))
        except (OnSkeleton, AngleUnresolved) as exc:
            h.update(type(exc).__name__.encode())
    assert h.hexdigest() == _LOG_BOTTCHER_PINS[c]


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_angle_is_invalid_input(sys_m3, bad):
    # each ended in a bare ValueError from float.as_integer_ratio
    with pytest.raises(InvalidInput, match="is not finite"):
        invert_green_coords(sys_m3, (bad, 0.1))
    with pytest.raises(InvalidInput, match="is not finite"):
        descend_rays_bulk(sys_m3, [0.1, bad], 0.1)
    with pytest.raises(InvalidInput, match="is not finite"):
        trace_ray(sys_m3, bad, 0.1, 1.0, 4)


@pytest.mark.parametrize("call, named", [
    (lambda s: invert_green_coords(s, (None, 0.5)), "angle None"),
    (lambda s: invert_green_coords(s, ("0.1", 0.5)), "angle '0.1'"),
    (lambda s: invert_green_coords(s, (0.1j, 0.5)), "angle 0.1j"),
    (lambda s: invert_green_coords(s, ([0.1, 0.2], 0.5)), "angle [0.1, 0.2]"),
    (lambda s: invert_green_coords(s, (0.1, "0.5")), "potential '0.5'"),
    (lambda s: descend_rays_bulk(s, ["0.1", 0.2], 0.5), "angle '0.1'"),
    (lambda s: descend_rays_bulk(s, [Fraction(1, 3), None], 0.5),
     "angle None"),
    (lambda s: descend_rays_bulk(s, [0.1, 0.2], "0.5"), "potential '0.5'"),
    (lambda s: descend_rays_bulk(s, [0.1, 0.2], [0.5]), "potential [0.5]"),
    (lambda s: trace_ray(s, "0.1", 0.1, 0.5, 4), "angle '0.1'"),
    (lambda s: trace_ray(s, 0.1, "0.1", 0.5, 4), "potential '0.1'"),
    (lambda s: trace_ray(s, 0.1, 0.1, None, 4), "potential None"),
], ids=["none_angle", "str_angle", "complex_angle", "list_angle",
        "str_potential", "bulk_str_angle", "bulk_none_angle",
        "bulk_str_potential", "bulk_list_potential", "ray_str_angle",
        "ray_str_potential", "ray_none_potential"])
def test_non_real_descent_input_is_invalid_input(sys_m3, call, named):
    # these raised a bare TypeError, and a string potential was parsed
    with pytest.raises(InvalidInput,
                       match=re.escape(f"{named} is not a real number")):
        call(sys_m3)


@pytest.mark.parametrize("angle", [0.1, -0.3, 1.7, 2.0 ** -60, -2.0 ** -60])
def test_trace_ray_float_angle_as_fraction(sys_m3, angle):
    # a float angle descends as the exact rational it is; just below 0 it
    # reduces to 1.0, and the reported angle is 0.0
    as_float = trace_ray(sys_m3, angle, 0.05, 1.0, 9)
    as_fraction = trace_ray(sys_m3, Fraction(angle % 1.0), 0.05, 1.0, 9)
    assert as_float == as_fraction


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


@pytest.mark.parametrize("kind", [float, Fraction])
@pytest.mark.parametrize("angle, level", [
    (Fraction(1, 4), 0), (Fraction(3, 4), 0),
    (Fraction(1, 8), 1), (Fraction(3, 8), 1)])
@pytest.mark.parametrize("side", [1, -1])
def test_crash_window_is_tol_wide(sys_m3, kind, angle, level, side):
    # within tol of its crash potential an access ray crashes, above it as
    # well as below, where the one-sided limit would be taken
    gp = critical_potential(sys_m3) / 2 ** level
    with pytest.raises(RayCrash) as exc:
        invert_green_coords(sys_m3, (kind(angle), gp + side * sys_m3.tol / 2))
    assert exc.value.level == level
    assert exc.value.crash_potential == gp


@pytest.mark.parametrize("thetas, shape", [
    (np.array([[0.1, 0.2], [0.3, 0.4]]), "(2, 2)"),
    (np.array([[]]), "(1, 0)"),
    ([[0.1, 0.2], [0.3]], "(ragged)"),
    (0.1, "()"),
    (np.array(0.1), "()")])
def test_bulk_rejects_angles_not_one_dimensional(sys_m3, thetas, shape):
    # a 2-D array ended in numpy's TypeError from the first row
    with pytest.raises(InvalidInput, match=re.escape(f"got shape {shape}")):
        descend_rays_bulk(sys_m3, thetas, 0.5)


def test_bulk_empty_angles_keep_shape(sys_m3):
    for empty in ([], (), np.array([]), np.array([], dtype=object)):
        assert descend_rays_bulk(sys_m3, empty, 0.5).shape == (0,)


def test_bulk_series_domain():
    # |c/w^2| > 1/2 already at the far potential e^G_FAR
    with pytest.raises(AngleUnresolved):
        descend_rays_bulk(GreenSystem.from_c(-1e5), [0.1], 1.0)


def test_certified_truncation_keeps_series_domain():
    # `_far_points` relies on a certified psi_c truncation implying
    # |c| e^(-2 G_FAR) < 1/2; sweep |c| across the edge of certification
    ratios = {True: [], False: []}
    for m in np.geomspace(5e4, 1e5, 21):
        for k in range(5):
            c = cmath.rect(m, math.pi + 2.0 * math.pi * k / 5)
            sys_ = GreenSystem(c, critical_value_angle=Fraction(1, 2))
            ratios[bool(sys_._psi)].append(m * math.exp(-2.0 * G_FAR))
    assert max(ratios[True]) < 0.5
    assert max(ratios[True]) > 0.4 and min(ratios[False]) < 0.5


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
    # the critical value angle is the only parameter data the rule reads;
    # 1 + 1j is Cantor off the real ray, so it takes any of them
    sys_ = GreenSystem.from_c(1 + 1j, critical_value_angle=tc)
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
# ray descent against the rung ladder it replaced
# ---------------------------------------------------------------------------

# The ladder's constants: rungs per potential octave, and rung x ray
# elements per block.
_SUBSTEPS = 12
_CHUNK = 1 << 12


def _ladder_descend(sys: GreenSystem, thetas, targets: Sequence[float],
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


def _descent_outcome(descend, sys_, thetas, targets, crash_side):
    """Points as int64 bits, or the error with its crash data."""
    try:
        w = descend(sys_, thetas, targets, crash_side)
    except (RayCrash, AngleUnresolved, InvalidInput) as exc:
        return (type(exc), getattr(exc, "level", None),
                getattr(exc, "crash_potential", None))
    return w.shape, w.view(np.int64).tolist()


def _assert_matches_ladder(sys_, thetas, targets, crash_side):
    new = _descent_outcome(_descend, sys_, thetas, targets, crash_side)
    assert new == _descent_outcome(_ladder_descend, sys_, thetas, targets,
                                   crash_side)
    return new


@st.composite
def _descent_case(draw, g0: float):
    """Angles (floats, Fractions, dyadic accesses and floats 2^-48 off
    them, which pass by precritical points) and one target or up to 161
    non-increasing ones, the sampling of a displacement `trace_ray`."""
    thetas = draw(st.lists(
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
        | st.fractions(min_value=0, max_value=1, max_denominator=64)
        | st.builds(Fraction, st.integers(0, 4095), st.just(4096))
        | st.builds(lambda k, m, side: (k / 2 ** m + side * 2.0 ** -48) % 1.0,
                    st.integers(0, 255), st.integers(2, 8),
                    st.sampled_from([-1, 1])),
        min_size=1, max_size=8))
    # crash potentials G(0)/2^n join the draws in the Cantor case
    pot = st.floats(min_value=1e-3, max_value=8.0)
    if g0 > 0.0:
        pot |= st.builds(lambda n: g0 / 2 ** n, st.integers(0, 6))
    g_hi = draw(pot)
    if draw(st.booleans()):
        targets = [g_hi]
    elif draw(st.booleans()):
        n = draw(st.integers(2, 161))
        ratio = draw(st.floats(0.25, 1.0)) ** (1.0 / (n - 1))
        targets = [g_hi * ratio ** i for i in range(n)]
    else:
        targets = sorted(draw(st.lists(pot, min_size=2, max_size=12)),
                         reverse=True)
    return thetas, targets, draw(st.sampled_from([None, 1, -1]))


@pytest.mark.parametrize("c", [-5.0, -3.0, -2.5, -2.0, -1.0, -0.75, 0.0, 0.25])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_descent_matches_ladder_bit_equal(c, data):
    sys_ = GreenSystem.from_c(c)
    _assert_matches_ladder(sys_, *data.draw(_descent_case(sys_._g0)))


@pytest.mark.parametrize("c", [-5.0, -3.0, -2.5])
def test_descent_matches_ladder_bit_equal_on_dyadic_grid(c):
    # at 1e-3 G(0) the accesses of levels 0..8 are below their crash
    # potentials: the one-sided limits on both sides, and RayCrash without
    sys_ = GreenSystem.from_c(c)
    grid = [Fraction(k, 512) for k in range(512)]
    g = 1e-3 * critical_potential(sys_)
    for side in (1, -1):
        shape, _ = _assert_matches_ladder(sys_, grid, [g], side)
        assert shape == (1, 512)
    assert _assert_matches_ladder(sys_, grid, [g], None)[0] is RayCrash


def test_descent_matches_ladder_bit_equal_near_accesses(sys_m3):
    # at c = -3, floats 2^-48 off the accesses of levels 0..4 pass within
    # the guard of a precritical point near the crash potentials (at c = -5
    # and -2.5 the float G(0) is too far from the crash potential for
    # that).  The targets sit a few ulps apart from G(0)/2^n, so that the
    # crash potential names the ray and target reported: the first ray's,
    # at its first target
    thetas = [(k / 2 ** m + side * 2.0 ** -48) % 1.0 for m in range(2, 7)
              for k in range(1, 2 ** m, 2) for side in (1, -1)]
    g0 = critical_potential(sys_m3)
    targets = [g0 / 2 ** n * (1.0 + (5 - n) * 2e-15) for n in range(5)]
    for side in (1, None):
        assert _assert_matches_ladder(sys_m3, thetas, targets, side)[:2] == \
            (RayCrash, None)
    for k in range(1, len(thetas)):
        _assert_matches_ladder(sys_m3, thetas[k:], targets[2:], 1)


@pytest.mark.parametrize("c, tc", [(0.3 + 0.5j, None), (1 + 1j, Fraction(1, 6))])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_descent_matches_ladder_bit_equal_nonreal(c, tc, data):
    # the principal argument is certified while every |c/w_j^2| < 1/2: there
    # the points equal the ladder's, elsewhere AngleUnresolved is raised
    sys_ = GreenSystem.from_c(c, critical_value_angle=tc)
    theta = data.draw(st.floats(min_value=0.0, max_value=1.0,
                                exclude_max=True), label="theta")
    g = data.draw(st.floats(min_value=0.01, max_value=8.0), label="g")
    new = _descent_outcome(_descend, sys_, [theta], [g], 1)
    ladder = _descent_outcome(_ladder_descend, sys_, [theta], [g], 1)
    if new[0] is not AngleUnresolved:
        assert new == ladder
        return
    # the ladder's tower: f^j of its point, up to the start level
    z = complex(_ladder_descend(sys_, [theta], [g], 1)[0, 0])
    worst, level_g = 0.0, g
    while level_g < G_FAR:
        worst = max(worst, abs(c / (z * z)))
        z, level_g = z * z + c, 2.0 * level_g
    assert worst >= 0.49


def test_descent_nonreal_unresolved_below_certified_lift():
    sys_ = GreenSystem.from_c(1 + 1j, critical_value_angle=Fraction(1, 6))
    assert descend_rays_bulk(sys_, [0.1], 2.0).shape == (1,)
    with pytest.raises(AngleUnresolved):
        descend_rays_bulk(sys_, [0.1], 0.05)


def test_nonreal_lift_refused_from_one_half():
    # the lift is certified while every |c/w_j^2| < 1/2: a descent and an
    # angle whose worst ratio lies in [1/2, 0.9) must not be answered
    sys_ = GreenSystem.from_c(1 + 1j, critical_value_angle=Fraction(1, 6))
    c = sys_.c
    # the ladder's tower of the descent, as the descent meets it
    z = complex(_ladder_descend(sys_, [0.2], [0.2], 1)[0, 0])
    level_g, tower = 0.2, []
    while level_g < G_FAR:
        tower.append(abs(c / (z * z)))
        z, level_g = z * z + c, 2.0 * level_g
    assert 0.5 <= max(tower) < 0.9
    with pytest.raises(AngleUnresolved):
        descend_rays_bulk(sys_, [0.2], 0.2)
    # the forward orbit of the point, up to where the phase is read
    w, orbit = 1.2 + 0.8j, []
    while abs(c) > 2.0 ** -60 * (abs(w) * abs(w)):
        orbit.append(abs(c / (w * w)))
        w = w * w + c
    assert 0.5 <= max(orbit) < 0.9
    with pytest.raises(AngleUnresolved):
        log_bottcher(sys_, 1.2 + 0.8j)


def test_descent_rejects_empty_targets(sys_m3):
    with pytest.raises(InvalidInput):
        _descend(sys_m3, [0.1], [], 1)
    assert descend_rays_bulk(sys_m3, [], 0.3).shape == (0,)


# ---------------------------------------------------------------------------
# the angle table: float arithmetic on dyadic angles, integers otherwise
# ---------------------------------------------------------------------------

def _doubling_table(pq, top):
    """`_angle_table` by exact rational doubling, one entry at a time."""
    t = [[Fraction(p, q) * 2 ** j % 1 for p, q in pq] for j in range(top + 1)]
    return (np.array([[float(x) for x in row] for row in t]),
            np.array([[0 < x < Fraction(1, 2) for x in row] for row in t]),
            np.array([[Fraction(1, 4) < x < Fraction(3, 4) for x in row]
                      for row in t]))


_TABLE_ANGLES = [0.0, 5e-324, 3 * 2.0 ** -1074, 2.0 ** -1022, 2.0 ** -60,
                 0.5, 0.25 + 2.0 ** -54, 1.0 - 2.0 ** -53, 1.0 / 3.0, 0.1,
                 Fraction(3, 2 ** 70), Fraction(2 ** 53 - 1, 2 ** 53)]


@pytest.mark.parametrize("extra", [
    [],                                         # all dyadic: the float table
    [Fraction(1, 3)],                           # not dyadic: integers
    [Fraction(2 ** 60 - 1, 2 ** 60)],           # p >= 2^53: integers
    [Fraction(1, 2 ** 1100)]])                  # below 2^-1074: integers
def test_angle_table_matches_exact_doubling_bit_equal(extra):
    # 1080 levels, past 1024, where 2^j t overflows a double for t >= 1/2
    rng = np.random.default_rng(17)
    pq = [frac1(Fraction(x)).as_integer_ratio()
          for x in _TABLE_ANGLES + rng.random(8).tolist() + extra]
    got, want = _angle_table(pq, 1080), _doubling_table(pq, 1080)
    assert np.array_equal(got[0].view(np.int64), want[0].view(np.int64))
    assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])


def test_deep_descent_past_ldexp_overflow_bit_equal(sys_m1):
    # at 1e-310 the descent starts about 1030 levels up, past 2^1024; with a
    # non-dyadic Fraction in the batch every ray takes the integer rule
    g = 1e-310
    assert math.ldexp(g, 1024) < G_FAR
    thetas = [x for x in _TABLE_ANGLES if isinstance(x, float)] + [0.3, 0.7]
    table = descend_rays_bulk(sys_m1, thetas, g)
    integer = descend_rays_bulk(sys_m1, thetas + [Fraction(1, 3)], g)
    assert np.isfinite(table).all()
    assert np.array_equal(table.view(np.int64),
                          integer[:len(thetas)].copy().view(np.int64))


# float angles the table must take exactly: dyadic grid points, the
# neighbours of 0 and 1, and any float in [-1, 2)
_FLOAT_ANGLE = (
    st.floats(min_value=-1.0, max_value=2.0, exclude_max=True)
    | st.builds(lambda k, m: k / 2 ** m, st.integers(0, 2 ** 12),
                st.integers(0, 12))
    | st.sampled_from([0.0, -0.0, 2.0 ** -60, -2.0 ** -60, 2.0 ** -1074,
                       -2.0 ** -1074, 1.0 - 2.0 ** -53, 0.5 - 2.0 ** -54]))


@pytest.mark.parametrize("c", [-5.0, -3.0, -1.0, 0.0])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_float_and_fraction_angles_bit_equal(c, data):
    # a float angle x is the rational x % 1.0 (a float just below 0 is 0)
    sys_ = GreenSystem.from_c(c)
    xs = data.draw(st.lists(_FLOAT_ANGLE, min_size=1, max_size=8), label="xs")
    mask = data.draw(st.lists(st.booleans(), min_size=len(xs),
                              max_size=len(xs)), label="mask")
    _, targets, side = data.draw(_descent_case(sys_._g0), label="targets")
    fractions = [Fraction(x % 1.0) for x in xs]
    mixed = [f if m else x for x, f, m in zip(xs, fractions, mask)]
    ref = _descent_outcome(_descend, sys_, xs, targets, side)
    assert _descent_outcome(_descend, sys_, fractions, targets, side) == ref
    assert _descent_outcome(_descend, sys_, mixed, targets, side) == ref
    # a non-dyadic Fraction sends the whole batch to the integer rule
    first = lambda *args: np.ascontiguousarray(_descend(*args)[:, :len(xs)])
    assert _descent_outcome(first, sys_, mixed + [Fraction(1, 3)], targets,
                            side) == ref


@pytest.mark.parametrize("c", [-5.0, -3.0, -1.0, 0.0])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_batch_is_its_rays_one_by_one_bit_equal(c, data):
    sys_ = GreenSystem.from_c(c)
    thetas, targets, side = data.draw(_descent_case(sys_._g0))
    batch = _descent_outcome(_descend, sys_, thetas, targets, side)
    singles = [_descent_outcome(_descend, sys_, [t], targets, side)
               for t in thetas]
    if isinstance(batch[0], type):
        # the batch raises one of its rays' errors
        assert batch in singles
        return
    assert not any(isinstance(one[0], type) for one in singles)
    assert np.array_equal(np.array(batch[1]), np.concatenate(
        [np.array(one[1]) for one in singles], axis=1))


def test_boundary_descent_pinned_bit_equal(sys_m5):
    # sha256 of the 4096-ray descent of `transported_boundary_distance` on
    # c = -5 (identity structure), recorded before the angle table
    thetas = (np.arange(4096) + 0.5) / 4096 + 1.0 / 9973.0
    w = descend_rays_bulk(sys_m5, thetas, 1e-4 * critical_potential(sys_m5))
    assert hashlib.sha256(w.tobytes()).hexdigest() == (
        "bf1e4327cd82ed887f7361106f042937f4d9cbe7ab9bd7687fba073a9c55733f")


# ---------------------------------------------------------------------------
# the float crash screen: a float batch skips `_ray_angle` when no ray needs it
# ---------------------------------------------------------------------------

# theta_c = 1/2 (real c; also read for connected c, where nothing crashes),
# 1/4 (b a power of two, off the real ray) and 1/6 (b not: no float is an
# access angle)
_SCREEN_SYSTEMS = [(-3.0, None), (-5.0, None), (-1.0, None), (0.0, None),
                   (-0.47727 + 3.28579j, Fraction(1, 4)),
                   (-3 + 0.5j, Fraction(1, 6))]


@st.composite
def _screen_case(draw, sys_):
    """Float angles: random ones, and critical access angles of levels
    0..60 that are exact floats, mostly of levels at or past a level n;
    targets with the last at, just above or just below the crash potential
    G(0)/2^n of level n (G(0) read as 1/2 when connected); a crash side."""
    tc = sys_.critical_value_angle or Fraction(1, 2)
    a, b = tc.numerator, tc.denominator
    g0 = sys_._g0 if sys_.is_cantor else 0.5
    n = draw(st.integers(0, 60), label="level")
    accesses = draw(st.booleans(), label="accesses")
    xs = []
    for _ in range(draw(st.integers(2, 40), label="rays")):
        if not accesses or draw(st.booleans()):
            xs.append(draw(st.floats(min_value=-1.0, max_value=2.0,
                                     exclude_max=True)))
            continue
        m = draw(st.integers(n, 60) | st.integers(0, 60))
        k = draw(st.integers(0, min(2 ** (m + 1) - 1, 2 ** 50)))
        xs.append(float(Fraction(a + b * k, b << (m + 1))))
    gp = math.ldexp(g0, -n)
    # within tol of gp, tol away, a hair past tol, or a few ulps off gp
    off = [sign * f * sys_.tol for f in (0.0, 0.5, 1.0, 1.0 + 2.0 ** -40, 2.0)
           for sign in (1, -1)]
    ulps = [gp * (1.0 + 2.0 ** -50), gp * (1.0 - 2.0 ** -50)]
    g = draw(st.sampled_from([gp + d for d in off] + ulps))
    g = g if g > 0.0 else gp
    above = draw(st.floats(min_value=1.0, max_value=8.0))
    targets = draw(st.sampled_from([[g], [g * above, g]]))
    return xs, targets, draw(st.sampled_from([None, 1, -1]))


def _first_failure(sys_, xs, targets, side):
    """The error of a batch by the per-ray rule: the first ray whose
    `_ray_angle` raises, else the first ray whose descent raises."""
    for x in xs:
        try:
            _ray_angle(sys_, x, targets, side)
        except GreenrayError as exc:
            return type(exc), getattr(exc, "level", None), \
                getattr(exc, "crash_potential", None)
    return next(one for one in (_descent_outcome(_descend, sys_, [x], targets,
                                                 side) for x in xs)
                if isinstance(one[0], type))


@pytest.mark.parametrize("c, tc", _SCREEN_SYSTEMS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_float_screen_bit_equal(c, tc, data):
    # each column of a float batch is its ray's single-ray descent, and a
    # batch that raises raises its first failing ray's error
    sys_ = GreenSystem.from_c(c, critical_value_angle=tc)
    xs, targets, side = data.draw(_screen_case(sys_), label="case")
    batch = _descent_outcome(_descend, sys_, xs, targets, side)
    if isinstance(batch[0], type):
        assert batch == _first_failure(sys_, xs, targets, side)
        return
    singles = [_descent_outcome(_descend, sys_, [x], targets, side)
               for x in xs]
    assert batch == ((len(targets), len(xs)), np.concatenate(
        [np.array(one[1]) for one in singles], axis=1).tolist())


@pytest.mark.parametrize("c, tc", _SCREEN_SYSTEMS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_float_screen_leaves_out_only_exact_rays_bit_equal(c, tc, data):
    # the screen never under-selects: `_ray_angle` gives every ray it
    # leaves out (a batch of two copies of the ray passes) exactly that
    # float's p/q, and raises for none of them; a batch passes when each
    # of its rays does
    sys_ = GreenSystem.from_c(c, critical_value_angle=tc)
    xs, targets, side = data.draw(_screen_case(sys_), label="case")
    passed = []
    for x in xs:
        passed.append(_float_column(sys_, [x, x], targets) is not None)
        if passed[-1]:
            assert _ray_angle(sys_, x, targets, side) == \
                (x % 1.0).as_integer_ratio()
    col = _float_column(sys_, xs, targets)
    assert (col is not None) == all(passed)
    if col is not None:
        assert col.tolist() == [x % 1.0 for x in xs]


def test_float_screen_keeps_every_crashing_access_bit_equal(sys_m3):
    # every access of levels 0..10, at a target exactly at, or below, its
    # crash potential, is screened out; a float batch of them raises as
    # Fractions do, and one above every crash potential passes
    g0 = critical_potential(sys_m3)
    for n in range(11):
        xs = [(2 * k + 1) / 2 ** (n + 2) for k in range(2 ** (n + 1))]
        for g in (g0 / 2 ** n, g0 / 2 ** (n + 1)):
            assert all(_float_column(sys_m3, [x, x], [g]) is None for x in xs)
            assert _descent_outcome(_descend, sys_m3, xs, [g], None) == \
                _descent_outcome(_descend, sys_m3, list(map(Fraction, xs)),
                                 [g], None)
        assert _float_column(sys_m3, xs, [1.5 * g0]) is not None
    # theta_c = 1/6: no float is an access angle
    sys_ = GreenSystem.from_c(-3 + 0.5j, critical_value_angle=Fraction(1, 6))
    assert _float_column(sys_, np.linspace(0.0, 1.0, 97), [1e-9]) is not None


# ---------------------------------------------------------------------------
# one ray at one target: the point step against the array loop
# ---------------------------------------------------------------------------

_POINT_SYSTEMS = [(-3.0, None), (-1.0, None), (0.0, None), (-2.0, None),
                  (-3 + 0.5j, Fraction(1, 6))]


@st.composite
def _point_case(draw, sys_):
    """An angle (dyadic, a critical access or a float 2^-48 off one, or
    random) and a potential in [1e-4, 16] G(0) (G(0) read as 1/2 when
    connected), or a crash potential G(0)/2^n, exact or a few ulps off."""
    tc = sys_.critical_value_angle or Fraction(1, 2)
    access = st.builds(
        lambda n, k: Fraction(tc.numerator + tc.denominator * k,
                              tc.denominator * 2 ** (n + 1)),
        st.integers(0, 6), st.integers(0, 127))
    theta = draw(
        st.builds(Fraction, st.integers(0, 4095), st.just(4096))
        | access
        | st.builds(lambda a, side: (float(a) + side * 2.0 ** -48) % 1.0,
                    access, st.sampled_from([-1, 1]))
        | st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    g0 = sys_._g0 if sys_.is_cantor else 0.5
    g = draw(st.floats(min_value=1e-4 * g0, max_value=16.0 * g0)
             | st.builds(lambda n, ulps: g0 / 2 ** n * (1.0 + ulps * 2e-16),
                         st.integers(0, 8), st.integers(-8, 8)))
    return theta, g


def _point_angle(rng: random.Random, sys_) -> Fraction | float:
    """`_point_case`'s kinds of angle, from `rng`."""
    tc = sys_.critical_value_angle or Fraction(1, 2)
    n, k = rng.randrange(7), rng.randrange(128)
    access = Fraction(tc.numerator + tc.denominator * k,
                      tc.denominator * 2 ** (n + 1))
    return rng.choice([Fraction(rng.randrange(4096), 4096), access,
                       (float(access) + rng.choice([-1, 1]) * 2.0 ** -48) % 1.0,
                       rng.random()])


def _point_outcome(descend, *args):
    """Points as int64 bits (two per point), or the error's type and crash
    potential."""
    try:
        w = np.atleast_1d(descend(*args))
    except (RayCrash, AngleUnresolved, InvalidInput) as exc:
        return type(exc), getattr(exc, "crash_potential", None)
    return w.view(np.int64).tolist()


@pytest.mark.parametrize("c, tc", _POINT_SYSTEMS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_point_descent_bit_equal_batch(c, tc, data):
    # a single point steps on Python scalars, a batch on arrays: in a batch
    # of 64 rays the point is the ray's column, and in a batch of 64 copies
    # of the ray its error is the single point's error
    sys_ = GreenSystem.from_c(c, critical_value_angle=tc)
    theta, g = data.draw(_point_case(sys_), label="point")
    # the other rays: angles of the same kinds, drawn from one seed
    rng = random.Random(data.draw(st.integers(0, 2 ** 32), label="seed"))
    others = [_point_angle(rng, sys_) for _ in range(63)]
    single = _point_outcome(invert_green_coords, sys_, (theta, g))
    copies = _point_outcome(descend_rays_bulk, sys_, [theta] * 64, g)
    if isinstance(single, tuple):
        assert copies == single
    else:
        assert copies == single * 64
    batch = _point_outcome(descend_rays_bulk, sys_, [theta] + others, g)
    singles = [_point_outcome(invert_green_coords, sys_, (t, g))
               for t in [theta] + others]
    if isinstance(batch, tuple):
        # the batch raises one of its rays' errors
        assert batch in singles
    else:
        assert batch == [bit for bits in singles for bit in bits]


def test_point_descent_square_root_pinned_bit_equal(sys_0):
    # at level 3 of this descent w - c = -1.0014696697658854j, purely
    # imaginary, where cmath.sqrt rounds the imaginary part of the root one
    # ulp off np.sqrt's; the point step must keep the array loop's root
    g = 9.178692863985065e-05
    assert np.sqrt(-1.0014696697658854j) != cmath.sqrt(-1.0014696697658854j)
    z = invert_green_coords(sys_0, (Fraction(11, 64), g))
    batch = descend_rays_bulk(sys_0, [Fraction(k, 64) for k in range(64)], g)
    assert z == batch[11]
    assert (z.real.hex(), z.imag.hex()) == ("0x1.e2c12b4e234ffp-2",
                                            "0x1.c395cb693c568p-1")


@pytest.mark.parametrize("top", [64, 1080])
def test_angle_table_integer_rule_bit_equal_broadcast(top):
    # every angle dyadic with p < 2^53: `_angle_table` broadcasts floats,
    # and each entry must equal `_level_angle`'s integer rule
    rng = np.random.default_rng(24)
    xs = _TABLE_ANGLES + rng.random(16).tolist()
    pq = [frac1(Fraction(x)).as_integer_ratio() for x in xs]
    pq += [(2 ** 53 - k, 2 ** 53) for k in (1, 3, 5)]
    pq += [(2 ** 53 - 1, 2 ** m) for m in (54, 60, 1074)]
    t, upper, left = _angle_table(pq, top)
    for j in range(top + 1):
        for i, (p, q) in enumerate(pq):
            tj, up, lf = _level_angle(p, q, j)
            assert (t[j, i].hex(), upper[j, i], left[j, i]) == (tj.hex(), up, lf)


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


def _equipotential_per_curve(sys_, g, n_samples):
    """`trace_equipotential` curve by curve, one `descend_rays_bulk` each."""
    k, pot = 0, sys_._g0
    while sys_.is_cantor and pot > g - sys_.tol:
        k, pot = k + 1, pot * 0.5
    steps = [Fraction(2 * i + 1, 2 * n_samples) for i in range(n_samples)]
    if k == 0:
        return [descend_rays_bulk(sys_, steps, g).tolist()]
    return [descend_rays_bulk(sys_, cylinder_angles(node.window,
                                                    node.outer_pair, steps),
                              g).tolist()
            for node in level_windows(sys_.critical_value_angle, k)[k]]


@pytest.mark.parametrize("c, g, n_samples", [
    (-3.0, 0.05, 32), (-5.0, 0.3, 40), (-2.5, 0.011, 24), (0.0, 0.2, 16),
    # 32 curves of 600 rays: 27 curves to a 2^14-ray block, then 5
    (-3.0, 0.02, 600),
    # 2 curves of 2^14 + 1 rays: one curve to a block
    (-3.0, 0.3, 2 ** 14 + 1)])
def test_equipotential_bit_equal_per_curve(c, g, n_samples):
    # curves descend together in blocks of whole curves; each point must
    # be the one its curve's own descent gives
    sys_ = GreenSystem.from_c(c)
    curves = trace_equipotential(sys_, g, n_samples)
    oracle = _equipotential_per_curve(sys_, g, n_samples)
    assert [len(curve) for curve in curves] == [n_samples] * len(oracle)
    assert np.array(curves).view(np.int64).tolist() == \
        np.array(oracle).view(np.int64).tolist()


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


def _mp_skeleton_cells(c: float, depth: int) -> list:
    """(point, inner pair of its cell) of every precritical point, in the
    order of `precritical_points`, from 60-digit mpmath: the points are
    regenerated by inverse iteration, and each cell is read from the
    point's forward itinerary (bit 1 left of the imaginary axis)."""
    cells = {node.address: node.inner_pair for level in
             level_windows(Fraction(1, 2), depth) for node in level}
    out = []
    with mpmath.workdps(60):
        cm, layer = mpmath.mpf(c), [mpmath.mpf(0)]
        points = [(layer[0], 0)]
        for n in range(1, depth + 1):
            layer = [s for q in layer for r in [mpmath.sqrt(q - cm)]
                     for s in (r, -r)]
            points += [(p, n) for p in layer]
        for p, n in points:
            bits, w = [], p
            for _ in range(n):
                bits.append(int(w < 0))
                w = w * w + cm
            assert abs(w) < 1e-30
            out.append((complex(p), cells[tuple(bits)]))
    return out


@pytest.mark.parametrize("c, depth", [(-3.0, 6), (-3000.0, 9), (-1e4, 8)])
def test_skeleton_cells_match_mp_itinerary(c, depth):
    # float forward itineraries gave 100 of 1023 cells wrong at c = -3000
    # and 32 of 511 at c = -1e4: each step multiplies rounding by |2w|
    arcs = skeleton(GreenSystem.from_c(c), depth)
    oracle = _mp_skeleton_cells(c, depth)
    assert len(arcs) == len(oracle) == 2 ** (depth + 1) - 1
    for arc, (point, pair) in zip(arcs, oracle):
        assert abs(arc.precritical_point - point) <= 1e-12 * abs(c)
        assert arc.access_angles == pair


def _skeleton_per_arc(sys_, depth):
    """Polylines of `skeleton`'s arcs, two `_descend` calls per arc."""
    cells = {node.address: node.inner_pair for level in
             level_windows(sys_.critical_value_angle, depth) for node in level}
    polys = []
    for j, pc in enumerate(precritical_points(sys_, depth)):
        i = j + 1 - (1 << pc.level)
        a1, _ = cells[tuple(i >> k & 1 for k in range(pc.level))]
        pots = [pc.potential * (0.5 ** (3.0 * k / 23)) for k in range(1, 25)]
        plus = _descend(sys_, [a1], pots, crash_side=+1)[:, 0].tolist()
        minus = _descend(sys_, [a1], pots, crash_side=-1)[:, 0].tolist()
        polys.append(tuple(reversed(minus)) + (pc.point,) + tuple(plus))
    return polys


@pytest.mark.parametrize("c", [-3.0, -5.0, -2.5, -2.1, -30.0])
def test_skeleton_bit_equal_per_arc(c):
    # arcs at one potential descend together; each polyline must be the
    # one its arc's own descents give
    sys_ = GreenSystem.from_c(c)
    polys = [arc.polyline for arc in skeleton(sys_, 5)]
    assert np.array(polys).view(np.int64).tolist() == \
        np.array(_skeleton_per_arc(sys_, 5)).view(np.int64).tolist()


@pytest.mark.parametrize("c", [1 + 1j])
def test_skeleton_off_real_ray_unresolved(c):
    sys_ = GreenSystem.from_c(c, critical_value_angle=Fraction(1, 6))
    with pytest.raises(AngleUnresolved, match="real ray c < -2"):
        skeleton(sys_, 1)


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


@pytest.mark.parametrize("c, tc", [(-3.0, Fraction(3, 10)),
                                   (-3.0, Fraction(1, 4)),
                                   (-1.0, Fraction(1, 2))],
                         ids=["ray_3_10", "ray_1_4", "connected"])
def test_angle_fixed_by_c_rejects_disagreement(c, tc):
    # each was built: the angle was taken as given on the ray c < -2, and
    # dropped for a connected c
    with pytest.raises(InvalidInput, match="disagrees with c"):
        GreenSystem.from_c(c, critical_value_angle=tc)


def test_angle_fixed_by_c():
    assert GreenSystem.from_c(-3.0).critical_value_angle == Fraction(1, 2)
    for tc in (Fraction(1, 2), Fraction(3, 2)):
        assert GreenSystem.from_c(-3.0, critical_value_angle=tc) \
            .critical_value_angle == Fraction(1, 2)
    assert GreenSystem.from_c(-1.0).critical_value_angle is None
    # too few iterations to see the escape: connected, so no angle
    assert GreenSystem.from_c(-3.0, max_iter=1).critical_value_angle is None
    with pytest.raises(InvalidInput, match="none"):
        GreenSystem.from_c(-3.0, max_iter=1,
                           critical_value_angle=Fraction(1, 2))


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


@pytest.mark.parametrize("c", [1.0, 0.26, 1e6])
@pytest.mark.parametrize("tc", [None, Fraction(1, 6), Fraction(1, 2)],
                         ids=["none", "1_6", "1_2"])
def test_real_c_above_quarter_rejected(c, tc):
    # Cantor, and on the ray of angle 0, which is periodic under doubling;
    # c = 1 with 1/6 built a system, whose skeleton raised AngleUnresolved
    with pytest.raises(InvalidInput, match="external ray of angle 0"):
        GreenSystem.from_c(c, critical_value_angle=tc)


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


@pytest.mark.parametrize("depth", [-1, MAX_JULIA_DEPTH + 1])
def test_julia_samples_depth_capped(sys_0, monkeypatch, depth):
    # numpy is unreachable: a rejected depth allocates nothing
    monkeypatch.setattr(greenray.potential, "np", None)
    with pytest.raises(InvalidInput, match=f"depth {depth} is outside"):
        julia_samples(sys_0, depth)


def test_julia_samples_real_cantor(sys_m3):
    pts = julia_samples(sys_m3, 10)
    beta = (1.0 + math.sqrt(13.0)) / 2.0
    assert np.max(np.abs(pts.imag)) == 0.0
    assert np.max(np.abs(pts.real)) <= beta + 1e-12
    # samples are near the boundary: small Green values
    gs = [escape_green(sys_m3, complex(p))[0] for p in pts[:64]]
    assert max(gs) <= 1e-2
