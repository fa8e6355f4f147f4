import cmath
import math
import re
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import greenray.rectify
from greenray.errors import (CombinatoricsMismatch, Connected, GreenrayError,
                             InsideK, InvalidInput, RayCrash, TargetRayCrash)
from greenray.potential import (GreenSystem, critical_potential,
                                descend_rays_bulk, escape_green,
                                invert_green_coords, julia_samples,
                                log_bottcher, trace_equipotential, trace_ray)
from greenray.rectify import (ContinuumMap, TransportMap, _cloud_distances,
                              boundary_derivative_probe, build_quadratic_pair,
                              chordal_distance, convergence_study,
                              quasihyperbolic_displacement,
                              transport_exterior, transport_with_residuals,
                              transported_boundary_distance)
from greenray.structures import (CircleCDF, PotentialHomeo, VirtualStructure,
                                 lipschitz_approx_d, lipschitz_approx_k,
                                 mod_xi)
from greenray.tree import build_quadratic_tree

TWO_PI = 2.0 * math.pi


def ring(sys_, g, n, offset=1.0 / 9973.0):
    return [invert_green_coords(sys_, (((i + 0.5) / n + offset) % 1.0, g))
            for i in range(n)]


# ---------------------------------------------------------------------------
# transport maps
# ---------------------------------------------------------------------------

def test_identity_transport(sys_m3, exterior_samples_m3):
    tm = TransportMap(sys_m3, sys_m3, VirtualStructure.identity())
    for z in exterior_samples_m3[:40]:
        try:
            w = transport_exterior(tm, z)
        except Exception:
            continue
        assert abs(w - z) <= 10.0 * sys_m3.tol


def test_disk_scaling_closed_form(sys_0):
    tm = TransportMap(sys_0, sys_0,
                      VirtualStructure(CircleCDF.identity(),
                                       PotentialHomeo.scaling(2.0)))
    z = 2.0 * cmath.exp(1j * math.pi / 4)
    w = transport_exterior(tm, z)
    assert abs(w - 4.0 * cmath.exp(1j * math.pi / 4)) <= 10.0 * sys_0.tol


def test_disk_transport_composition(sys_0):
    lam1, lam2 = 1.5, 1.25
    t1 = TransportMap(sys_0, sys_0,
                      VirtualStructure(CircleCDF.identity(),
                                       PotentialHomeo.scaling(lam1)))
    t2 = TransportMap(sys_0, sys_0,
                      VirtualStructure(CircleCDF.identity(),
                                       PotentialHomeo.scaling(lam2)))
    t12 = TransportMap(sys_0, sys_0,
                       VirtualStructure(CircleCDF.identity(),
                                        PotentialHomeo.scaling(lam1 * lam2)))
    for z in (1.4 + 0.3j, -0.2 + 1.9j, 2.0 - 1.0j):
        w = transport_exterior(t2, transport_exterior(t1, z))
        assert abs(w - transport_exterior(t12, z)) <= 10.0 * sys_0.tol


def test_transport_propagates_inside(sys_0):
    tm = TransportMap(sys_0, sys_0, VirtualStructure.identity())
    with pytest.raises(InsideK):
        transport_exterior(tm, 0.3)


def test_transport_propagates_skeleton(sys_m3):
    from greenray.errors import OnSkeleton
    tm = TransportMap(sys_m3, sys_m3, VirtualStructure.identity())
    with pytest.raises(OnSkeleton):
        transport_exterior(tm, 0.5)  # real gap point: two-valued angle


def test_transport_target_ray_crash(sys_0, sys_m3):
    # structure engineered to land exactly on (1/4, G(0)) of the target:
    # the crash potential of the 1/4-ray; both nudge retries still pass
    # through the precritical point, so the failure is reported
    g0 = critical_potential(sys_m3)
    d = CircleCDF(((Fraction(0), 0.0), (Fraction(1, 2), 0.25),
                   (Fraction(1), 1.0)))
    tm = TransportMap(sys_0, sys_m3,
                      VirtualStructure(d, PotentialHomeo.scaling(2.0)))
    z = -math.exp(g0 / 2.0)  # disk ray 1/2 at potential g0/2
    with pytest.raises(TargetRayCrash):
        transport_exterior(tm, z)


# ---------------------------------------------------------------------------
# quadratic pairs
# ---------------------------------------------------------------------------

def test_pair_identity_when_equal():
    tm = build_quadratic_pair(-3.0, -3.0, depth=8)
    g0 = critical_potential(tm.source)
    for y in (0.1 * g0, 0.5 * g0, g0, 2.0 * g0):
        assert tm.vs.k(y) == pytest.approx(y, rel=1e-12)


def test_pair_maps_dyadic_levels():
    tm = build_quadratic_pair(-3.0, -5.0, depth=10)
    g0 = critical_potential(tm.source)
    g1 = critical_potential(tm.target)
    for n in range(11):
        assert tm.vs.k(g0 * 0.5 ** n) == pytest.approx(g1 * 0.5 ** n, rel=1e-12)
    slopes = tm.vs.k.slopes()
    assert max(slopes) - min(slopes) <= 1e-9 * max(slopes)


def test_pair_mod_xi_matches_target_modulus():
    # every source-node weighted modulus equals the target equal-modulus law
    tm = build_quadratic_pair(-3.0, -2.5, depth=10)
    g1 = critical_potential(tm.target)
    tree = build_quadratic_tree(tm.source, 4)
    expect = g1 / TWO_PI
    for node in tree.nodes.values():
        if node.is_root:
            continue
        assert mod_xi(node, tm.vs) == pytest.approx(expect, rel=1e-6)


def test_pair_rejects_connected():
    with pytest.raises(CombinatoricsMismatch):
        build_quadratic_pair(-3.0, -1.0)


def test_real_cantor_trees_share_angular_invariants():
    # build_quadratic_pair checks only theta_c = 1/2 on both sides: the
    # angular invariants are a function of theta_c and the depth alone
    invariants = [
        {i: n.angular_invariant for i, n in
         build_quadratic_tree(GreenSystem.from_c(c), 4).nodes.items()}
        for c in (-2.5, -3.0, -5.0)]
    assert len(invariants[0]) == 31
    assert invariants[0] == invariants[1] == invariants[2]


def test_pair_residuals(sys_m3):
    tm = build_quadratic_pair(-3.0, -5.0, depth=10)
    g0 = critical_potential(tm.source)
    rng = np.random.default_rng(11)
    for _ in range(100):
        theta = float(rng.random())
        g = float(g0 * (0.2 + 1.3 * rng.random()))
        z = invert_green_coords(tm.source, (theta, g))
        pr, ar = transport_with_residuals(tm, z)[1:]
        assert pr <= 20.0 * tm.tol
        assert ar <= 20.0 * tm.tol


@pytest.fixture(scope="module")
def pair_m3_m5():
    return build_quadratic_pair(-3.0, -5.0)


@given(theta=st.floats(0.0, 1.0, exclude_max=True), u=st.floats(0.2, 1.5))
@settings(max_examples=60, deadline=None)
def test_pair_residuals_property(pair_m3_m5, theta, u):
    # away from the skeleton: for g >= G(0)/5 the critical rays are those
    # of the level-0..2 accesses, odd multiples of 1/4, 1/8 and 1/16
    assume(abs(16.0 * theta - round(16.0 * theta)) > 1e-6)
    tm = pair_m3_m5
    g = critical_potential(tm.source) * u
    z = invert_green_coords(tm.source, (theta, g))
    pr, ar = transport_with_residuals(tm, z)[1:]
    assert pr <= 20.0 * tm.tol
    assert ar <= 20.0 * tm.tol


def test_pair_equipotential_image_is_equipotential():
    tm = build_quadratic_pair(-3.0, -5.0, depth=10)
    g0 = critical_potential(tm.source)
    g = 0.8 * g0
    kg = tm.vs.k(g)
    for curve in trace_equipotential(tm.source, g, 24):
        for z in curve:
            w = transport_exterior(tm, z)
            gw, _ = escape_green(tm.target, w)
            assert abs(gw - kg) <= 20.0 * tm.tol


def test_pair_ray_image_is_ray():
    tm = build_quadratic_pair(-3.0, -5.0, depth=10)
    g0 = critical_potential(tm.source)
    theta = Fraction(1, 3)
    for p in trace_ray(tm.source, theta, 0.1 * g0, 1.5 * g0, 12):
        w = transport_exterior(tm, p.point)
        gc = log_bottcher(tm.target, w)
        d = abs(gc.angle - float(theta)) % 1.0
        assert min(d, 1.0 - d) <= 20.0 * tm.tol


def test_transported_boundary_proximity():
    tm = build_quadratic_pair(-3.0, -5.0, depth=10)
    hd = transported_boundary_distance(tm, n_rays=512, julia_depth=15)
    assert hd <= 1e-3


# ---------------------------------------------------------------------------
# continuum maps
# ---------------------------------------------------------------------------

def test_continuum_identity(sys_m1):
    cm = ContinuumMap(sys_m1, PotentialHomeo.identity())
    z = 0.4 + 1.2j
    assert abs(transport_exterior(cm, z) - z) <= 10.0 * sys_m1.tol


def test_continuum_disk_power_law(sys_0):
    cm = ContinuumMap(sys_0, PotentialHomeo.scaling(1.5))
    r, phi = 1.3, 0.7
    z = r * cmath.exp(1j * phi)
    w = transport_exterior(cm, z)
    assert abs(w - r ** 1.5 * cmath.exp(1j * phi)) <= 1e-8


def test_continuum_ray0_potential_doubles(sys_m1):
    cm = ContinuumMap(sys_m1, PotentialHomeo.scaling(2.0))
    z = invert_green_coords(sys_m1, (0.0, 0.21))
    w = transport_exterior(cm, z)
    gw, _ = escape_green(sys_m1, w)
    assert abs(gw - 0.42) <= 10.0 * sys_m1.tol
    assert w.imag == pytest.approx(0.0, abs=1e-9)  # stays on the 0-ray


def test_continuum_requires_connected(sys_m3):
    with pytest.raises(Connected):
        ContinuumMap(sys_m3, PotentialHomeo.identity())


def test_continuum_map_is_the_identity_d_transport(sys_m1):
    k = PotentialHomeo.scaling(1.5)
    cm = ContinuumMap(sys_m1, k)
    assert isinstance(cm, TransportMap)
    assert cm.source is sys_m1 and cm.target is sys_m1
    assert cm.vs == VirtualStructure(CircleCDF.identity(), k)
    assert cm.log_bilipschitz == math.log(1.5)


def test_continuum_crash_takes_the_transport_policy():
    # at c = -2 the ray 1/4 lands on the critical point 0: a descent to
    # 1e-6 i passes within the guard of it, with and without the nudges
    sys_ = GreenSystem.from_c(-2.0)
    cm = ContinuumMap(sys_, PotentialHomeo.identity())
    z = 1e-6j
    with pytest.raises(RayCrash):
        invert_green_coords(sys_, log_bottcher(sys_, z))
    with pytest.raises(TargetRayCrash):
        transport_exterior(cm, z)


# ---------------------------------------------------------------------------
# quasihyperbolic displacement
# ---------------------------------------------------------------------------

def test_displacement_identity_zero(sys_m1):
    cm = ContinuumMap(sys_m1, PotentialHomeo.identity())
    z = invert_green_coords(sys_m1, (0.17, 0.2))
    est = quasihyperbolic_displacement(cm, z)
    assert est.estimate == 0.0


def test_displacement_disk_closed_form(sys_0):
    lam = 1.5
    cm = ContinuumMap(sys_0, PotentialHomeo.scaling(lam))
    circle = np.exp(2j * np.pi * np.arange(1 << 14) / (1 << 14))
    r = 1.08
    est = quasihyperbolic_displacement(cm, complex(r), boundary=circle)
    closed = math.log((r ** lam - 1.0) / (r - 1.0))
    assert abs(est.integral - closed) <= 1e-3
    assert est.bound_ok()
    assert est.log_c == pytest.approx(math.log(lam))


def test_displacement_disk_at_two_recorded(sys_0):
    # at z = 2 the quasihyperbolic ray integral has the closed form
    # log((r^lam - 1)/(r - 1)); recorded against quadrature, no bound claim
    lam = 1.5
    cm = ContinuumMap(sys_0, PotentialHomeo.scaling(lam))
    circle = np.exp(2j * np.pi * np.arange(1 << 14) / (1 << 14))
    est = quasihyperbolic_displacement(cm, 2.0 + 0.0j, boundary=circle)
    closed = math.log((2.0 ** lam - 1.0) / (2.0 - 1.0))
    assert abs(est.integral - closed) <= 1e-3
    # bilipschitz constant metadata: log max(lam, 1/lam)
    assert est.log_c == pytest.approx(math.log(max(lam, 1.0 / lam)))
    shrink = ContinuumMap(sys_0, PotentialHomeo.scaling(0.5))
    assert shrink.log_bilipschitz == pytest.approx(math.log(2.0))


def _disk_midpoint_slack(g_lo, g_hi, steps=160):
    """How far the midpoint rule over `trace_ray`'s geometric potential
    steps can fall below the integral of dr/(r - 1) at c = 0: h^3/24 times
    the largest f'' = 2/(r - 1)^3 on each step."""
    ratio = (g_lo / g_hi) ** (1.0 / steps)
    g = [g_hi * ratio ** i for i in range(steps)] + [g_lo]
    r = np.exp(g)
    return float(np.sum(-np.diff(r) ** 3 / (12.0 * (r[1:] - 1.0) ** 3)))


@pytest.mark.parametrize("g, ceiling", [(0.01, True), (0.2, True),
                                        (0.7, True), (1.0, False)])
def test_displacement_disk_koebe_floor_not_ceiling(sys_0, g, ceiling):
    # at c = 0, delta = |z| - 1 and the density of 2|dv|/(1 - |v|^2) is
    # 2/(|z|^2 - 1): the integral is log((e^g_b - 1)/(e^g_a - 1)) and
    # d_P = |log coth(g_a/2) - log coth(g_b/2)|.  The floor d_P/2 holds
    # everywhere; the ceiling 2 d_P fails once the segment reaches well
    # past |z| = 3, where the density drops below 1/(2 delta)
    cm = ContinuumMap(sys_0, PotentialHomeo.scaling(1.5))
    for theta in (0.1, 0.45, 0.8):
        z = invert_green_coords(sys_0, (theta, g))
        est = quasihyperbolic_displacement(cm, z)
        g_a, g_b = est.potential, est.potential_image
        exact = math.log(math.expm1(g_b) / math.expm1(g_a))
        d_p = abs(math.log(math.tanh(g_a / 2.0) / math.tanh(g_b / 2.0)))
        # the midpoint rule and the cloud (2^14 roots of unity, within
        # 2 sin(pi/2^15) of each circle point) both only lower the integral
        cloud = 2.0 * math.sin(math.pi / 2 ** 15) / math.expm1(g_a)
        low = exact * (1.0 - cloud) - _disk_midpoint_slack(g_a, g_b)
        assert low - 1e-9 <= est.integral <= exact + 1e-9
        assert est.integral >= d_p / 2.0
        assert (est.integral <= 2.0 * d_p) == ceiling
        assert (g_b <= math.log(3.0)) == ceiling


def test_displacement_basilica_bounded(sys_m1):
    # slopes in [1/2, 2]: C = 2; probe near the boundary where the
    # quasihyperbolic/Poincare comparison is tight
    k = PotentialHomeo(((0.0, 0.0), (0.01, 0.02), (0.02, 0.025),
                        (0.03, 0.045), (0.04, 0.05), (1.0, 1.01)))
    assert k.bilipschitz_constant == pytest.approx(2.0)
    cm = ContinuumMap(sys_m1, k)
    cloud = julia_samples(sys_m1, 15)
    for i in range(10):
        theta = (i + 0.5) / 10 + 0.0123
        z = invert_green_coords(sys_m1, (theta % 1.0, 0.035))
        est = quasihyperbolic_displacement(cm, z, boundary=cloud)
        assert est.estimate / 2.0 <= est.log_c + 0.1


@st.composite
def clouds_and_queries(draw):
    """A cloud (duplicates allowed) and queries inside its hull, far away,
    or a single point; extents from 1e-12 to 1e3 around an offset centre.
    Or a cloud on a grid of integers times a power of two, where squares
    and sums are exact: on the real line with many equal x, or queried
    exactly at cloud points, or exactly halfway between grid points, where
    nearest distances tie."""
    kind = draw(st.sampled_from(["hull", "far", "single",
                                 "line", "on_cloud", "tie"]))
    if kind in ("line", "on_cloud", "tie"):
        step = 2.0 ** draw(st.integers(-40, 10))
        ints = st.lists(st.integers(-6, 6), min_size=1, max_size=40)
        xs = np.array(draw(ints), float)
        ys = np.zeros_like(xs) if kind == "line" else np.array(
            draw(st.lists(st.integers(-6, 6), min_size=xs.size,
                          max_size=xs.size)), float)
        cloud = step * (xs + 1j * ys)
        if kind == "on_cloud":
            return cloud, cloud[draw(st.lists(
                st.integers(0, xs.size - 1), min_size=1, max_size=30))]
        half = st.integers(-15, 15)
        return cloud, 0.5 * step * np.array(
            [complex(draw(half), draw(half))
             for _ in range(draw(st.integers(1, 30)))])
    scale = draw(st.sampled_from([1e-12, 1e-6, 1.0, 1e3]))
    centre = complex(draw(st.floats(-10.0, 10.0)), draw(st.floats(-10.0, 10.0)))
    unit = st.floats(-1.0, 1.0)
    xy = draw(st.lists(st.tuples(unit, unit), min_size=1, max_size=40))
    cloud = centre + scale * np.array([complex(x, y) for x, y in xy])
    dups = draw(st.lists(st.integers(0, len(cloud) - 1), max_size=8))
    cloud = np.concatenate([cloud, cloud[dups]])
    n = 1 if kind == "single" else draw(st.integers(1, 30))
    if kind == "far":
        r = st.floats(-1e3, 1e3)
        pts = centre + scale * np.array(
            [complex(draw(r), draw(r)) for _ in range(n)])
    else:
        pts = []
        for _ in range(n):
            ws = draw(st.lists(st.integers(0, 8), min_size=len(cloud),
                               max_size=len(cloud)))
            total = sum(ws)
            pts.append(cloud[0] if total == 0 else
                       sum(w * p for w, p in zip(ws, cloud)) / total)
        pts = np.array(pts)
    return cloud, pts


@given(clouds_and_queries())
@settings(max_examples=150, deadline=None)
def test_cloud_distances_equal_full_tree(case):
    cloud, pts = case
    full, _ = cKDTree(np.c_[cloud.real, cloud.imag]).query(
        np.c_[pts.real, pts.imag])
    assert _cloud_distances(cloud, pts).tobytes() == full.tobytes()


def _kdtree_distances(cloud, pts):
    """The oracle: a KD-tree over the whole cloud."""
    return cKDTree(np.c_[cloud.real, cloud.imag]).query(
        np.c_[pts.real, pts.imag])[0]


def _boundary_case(n_rays):
    """The cloud and ray endpoints of `transported_boundary_distance`
    (c = -3 to -5, its default depth-16 cloud)."""
    tm = build_quadratic_pair(-3.0, -5.0)
    thetas = (np.arange(n_rays) + 0.5) / n_rays + 1.0 / 9973.0
    g_end = tm.vs.k(1e-4 * critical_potential(tm.source))
    pts = descend_rays_bulk(tm.target, [tm.vs.d(t) % 1.0 for t in thetas],
                            g_end)
    return julia_samples(tm.target, 16), [pts]


def _displacement_case():
    """The cloud and the 20 midpoint sets that 20 displacements at c = -1
    query, with the bilipschitz-2 k of the basilica check."""
    sys_m1 = GreenSystem.from_c(-1.0)
    cm = ContinuumMap(sys_m1, PotentialHomeo(
        ((0.0, 0.0), (0.01, 0.02), (0.02, 0.025), (0.03, 0.045),
         (0.04, 0.05), (1.0, 1.01))))
    cloud = julia_samples(sys_m1, 15)
    queried = []

    def record(cloud, pts):
        queried.append(np.array(pts))
        return _cloud_distances(cloud, pts)

    rng = np.random.default_rng(2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(greenray.rectify, "_cloud_distances", record)
        for theta, g in zip(rng.random(20), rng.uniform(0.01, 0.05, 20)):
            z = invert_green_coords(sys_m1, (theta, g))
            quasihyperbolic_displacement(cm, z, boundary=cloud)
    assert len(queried) == 20
    return cloud, queried


@pytest.mark.parametrize("case", [
    lambda: _boundary_case(4096),
    lambda: _boundary_case(16384),
    _displacement_case,
    # the cut of the cloud scan needs its pad: without it the nearest
    # point of the second query rounds out
    lambda: (np.array([0.006609702047350958 - 0.024573117270487003j,
                       -0.018501498850456537 + 0.06878366039423212j]),
             [np.array([0j, -0.005945898401552792 + 0.022105271561872558j])]),
    # the x-window needs its pad: m.x + |q.x - m.x| rounds below q.x
    lambda: (np.array([-0.005549862681074551, 1.3974713977611906 + 0j]),
             [np.array([-0.04585198872530105 + 0j])]),
    # the cut needs its underflow pad: the farther point's square rounds
    # down to one subnormal and the nearer point's two squares round up
    # to one each, so the farther point is the nearest in floats
    lambda: (np.array([1.6e-162 + 1.6e-162j, 2.3e-162 + 0j]),
             [np.array([0j])]),
], ids=["boundary_4096", "boundary_16384", "displacement_c_m1",
        "scan_pad", "window_pad", "underflow_pad"])
def test_cloud_distances_match_kdtree_bit_equal(case):
    cloud, queries = case()
    for pts in queries:
        assert _cloud_distances(cloud, pts).tobytes() == \
            _kdtree_distances(cloud, pts).tobytes()


def test_cloud_distances_unit_circle(sys_0):
    # at c = 0 the cloud is the N-th roots of unity: the distance is at
    # least ||z| - 1| and at most that plus the chord 2 sin(pi/2N) to the
    # nearest root from z/|z|
    n = 1 << 10
    cloud = julia_samples(sys_0, 10)
    rng = np.random.default_rng(11)
    r = np.concatenate([rng.uniform(0.0, 0.99, 100), rng.uniform(1.01, 3.0, 200),
                        1.0 + rng.uniform(-1e-3, 1e-3, 100)])
    z = r * np.exp(2j * np.pi * rng.random(r.size))
    d = _cloud_distances(cloud, z)
    gap = np.abs(np.abs(z) - 1.0)
    assert np.all(d >= gap - 1e-15)
    assert np.all(d <= gap + 2.0 * math.sin(math.pi / (2 * n)) + 1e-15)


@pytest.mark.parametrize("cloud, reason", [
    (np.array([], complex), "empty"),
    (np.array([1.0, complex(math.nan, 0.0), -1.0]), "non-finite"),
    (np.array([1.0, complex(0.0, math.inf)]), "non-finite")])
def test_bad_cloud_is_invalid_input(sys_0, cloud, reason):
    cm = ContinuumMap(sys_0, PotentialHomeo.scaling(1.5))
    with pytest.raises(InvalidInput, match=reason):
        quasihyperbolic_displacement(cm, 1.5 + 0.0j, boundary=cloud)


def test_boundary_distance_needs_a_ray():
    tm = build_quadratic_pair(-3.0, -5.0, depth=2)
    with pytest.raises(InvalidInput, match="n_rays"):
        transported_boundary_distance(tm, n_rays=0)


# ---------------------------------------------------------------------------
# boundary derivative probe
# ---------------------------------------------------------------------------

def test_probe_identity_quotients_are_one(sys_0):
    cm = ContinuumMap(sys_0, PotentialHomeo.identity())
    for s in boundary_derivative_probe(cm, 1.0 + 0.0j, [1e-2, 1e-3]):
        assert abs(s.quotient - 1.0) <= 1e-7


def test_probe_radial_matches_power_law(sys_0):
    h = 1e-3
    prev = math.inf
    for lam in (1.5, 1.25, 1.1, 1.01):
        cm = ContinuumMap(sys_0, PotentialHomeo.scaling(lam))
        samples = boundary_derivative_probe(cm, 1.0 + 0.0j, [h])
        radial = next(s for s in samples if abs(s.direction - 1.0) < 1e-12)
        closed = ((1.0 + h) ** lam - 1.0) / h
        assert abs(radial.quotient - closed) <= 1e-9
        assert abs(radial.quotient - 1.0) < abs(prev - 1.0)
        prev = radial.quotient


def test_probe_skips_interior_directions(sys_0):
    cm = ContinuumMap(sys_0, PotentialHomeo.scaling(1.2))
    samples = boundary_derivative_probe(cm, 1.0 + 0.0j, [1e-2])
    dirs = {s.direction for s in samples}
    assert cmath.exp(1j * math.pi) not in dirs  # inward radial skipped
    assert len(samples) < 8


def test_probe_requires_decreasing_radii(sys_0):
    cm = ContinuumMap(sys_0, PotentialHomeo.identity())
    with pytest.raises(ValueError):
        boundary_derivative_probe(cm, 1.0, [1e-3, 1e-2])


@pytest.mark.parametrize("radii", [[0.0], [-0.1], [0.1, 0.0], [math.nan],
                                   [math.inf, 0.1]])
def test_probe_rejects_radius_not_finite_positive(sys_m1, monkeypatch,
                                                   radii):
    # radius 0 ended in ZeroDivisionError; -0.1 wrote rows of radius -0.1
    def no_work(*args):
        raise AssertionError("a rejected probe started")

    monkeypatch.setattr(greenray.rectify, "transport_exterior", no_work)
    cm = ContinuumMap(sys_m1, PotentialHomeo.scaling(1.5))
    with pytest.raises(InvalidInput, match="finite and positive"):
        boundary_derivative_probe(cm, 0.3 + 0.6j, radii)


def test_probe_tangential_approaches_one_radial_recorded(sys_0):
    # for k(y) = 2y the tangential quotients tend to 1 while the radial ones
    # stay near the power-law derivative; radial values recorded, not bounded
    cm = ContinuumMap(sys_0, PotentialHomeo.scaling(2.0))
    radii = [1e-1, 1e-2, 1e-3, 1e-4]
    samples = boundary_derivative_probe(cm, 1.0 + 0.0j, radii)
    tangential = [s for s in samples if abs(s.direction - 1j) < 1e-12]
    gaps = [abs(s.quotient - 1.0) for s in
            sorted(tangential, key=lambda s: -s.radius)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 1e-3
    radial = [s for s in samples if abs(s.direction - 1.0) < 1e-12]
    assert len(radial) == len(radii)  # recorded at every radius


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------

def test_convergence_identity_all_zero(sys_m3):
    tm = TransportMap(sys_m3, sys_m3, VirtualStructure.identity())
    g0 = critical_potential(sys_m3)
    rows = convergence_study(tm, [1, 2, 4], ring(sys_m3, 0.5 * g0, 12))
    assert all(r.sup_distance == 0.0 for r in rows)
    assert all(r.dropped_samples == 0 for r in rows)


def test_convergence_drops_library_errors_only(sys_0):
    tm = TransportMap(sys_0, sys_0, VirtualStructure.identity())
    rows = convergence_study(tm, [1], [0.5 + 0.0j, 2.0 + 0.0j])  # 0.5 in K
    assert rows[0].dropped_samples == 1
    with pytest.raises(ValueError) as exc:
        convergence_study(tm, [1], ["not a point"])
    assert not isinstance(exc.value, GreenrayError)


@pytest.mark.parametrize("samples", [[], np.empty(0, complex)],
                         ids=["list", "array"])
def test_convergence_needs_a_sample(sys_0, samples):
    tm = TransportMap(sys_0, sys_0, VirtualStructure.identity())
    with pytest.raises(InvalidInput, match="at least one sample"):
        convergence_study(tm, [1, 2], samples)


def test_convergence_pair_exact_once_uncapped():
    tm = build_quadratic_pair(-3.0, -5.0, depth=10)
    g0 = critical_potential(tm.source)
    rows = convergence_study(tm, [1, 2, 4], ring(tm.source, 0.5 * g0, 10))
    slope = max(tm.vs.k.slopes())
    assert slope < 2.0
    assert rows[0].sup_distance > 0.0
    assert rows[1].sup_distance == 0.0
    assert rows[2].sup_distance == 0.0


def test_convergence_staircase_decreases(sys_0):
    d = CircleCDF((
        (Fraction(0), 0.0),
        (Fraction(30, 100), 0.35),
        (Fraction(32, 100), 0.35),
        (Fraction(60, 100), 0.70),
        (Fraction(62, 100), 0.70),
        (Fraction(90, 100), 0.99),
        (Fraction(92, 100), 0.99),
        (Fraction(1), 1.0),
    ))
    tm = TransportMap(sys_0, sys_0,
                      VirtualStructure(d, PotentialHomeo.identity()))
    rows = convergence_study(tm, [2, 8, 32], ring(sys_0, 0.05, 24))
    sups = [r.sup_distance for r in rows]
    assert sups[0] > sups[1] > sups[2]


def _convergence_one_by_one(tm, n_list, samples):
    """convergence_study as a loop of transport_exterior calls, one per
    sample and n: the oracle of the batched study."""
    ref = {}
    for i, z in enumerate(samples):
        try:
            ref[i] = transport_exterior(tm, z)
        except GreenrayError:
            continue
    rows = []
    for n in n_list:
        tm_n = TransportMap(tm.source, tm.target, VirtualStructure(
            lipschitz_approx_d(tm.vs.d, n), lipschitz_approx_k(tm.vs.k, n)))
        sup, dropped = 0.0, len(samples) - len(ref)
        for i in ref:
            try:
                sup = max(sup, chordal_distance(
                    transport_exterior(tm_n, samples[i]), ref[i]))
            except GreenrayError:
                dropped += 1
        rows.append((n, sup, dropped))
    return rows


def _flat_onto_eighth():
    """The c = -3 to -5 pair with d flat on [1/8, 1/8 + 1/64], onto the
    level-1 access angle 1/8, and the 63 source points at G(0)/2 on the
    angles 1/8 + j/4096 inside the flat."""
    pair = build_quadratic_pair(-3.0, -5.0)
    d = CircleCDF(((Fraction(0), 0.0), (Fraction(1, 8), 0.125),
                   (Fraction(1, 8) + Fraction(1, 64), 0.125),
                   (Fraction(1), 1.0)))
    tm = TransportMap(pair.source, pair.target, VirtualStructure(d, pair.vs.k))
    g0 = critical_potential(tm.source)
    return tm, [invert_green_coords(tm.source, (Fraction(1, 8)
                                                + Fraction(j, 4096), 0.5 * g0))
                for j in range(1, 64)]


def test_transport_retries_a_crash_on_the_nudged_ray():
    # the dyadic k sends each point onto the target ray 1/8 at its crash
    # potential: the first descent raises, the +2^-45 ray answers
    tm, points = _flat_onto_eighth()
    for z in points:
        gc = log_bottcher(tm.source, z)
        theta, g = tm.vs.d(gc.angle) % 1.0, tm.vs.k(gc.potential)
        assert theta == 0.125
        with pytest.raises(RayCrash):
            invert_green_coords(tm.target, (theta, g))
        w = transport_exterior(tm, z)
        assert w == invert_green_coords(tm.target, (0.125 + 2.0 ** -45, g))
        assert abs(escape_green(tm.target, w)[0] - g) <= tm.tol


def test_boundary_distance_takes_the_transport_crash_policy():
    # the flat of d onto 1/8 and a k sending the ray ends to G'(0)/2, the
    # crash potential of the target ray 1/8: the batch descent raised a
    # bare RayCrash; the nudged ray +2^-45 answers, as in transport
    flat, _ = _flat_onto_eighth()
    src, tgt = flat.source, flat.target
    g0, g1 = critical_potential(src), critical_potential(tgt)
    g_end = 1e-4 * g0
    k = PotentialHomeo(((0.0, 0.0), (g_end, 0.5 * g1), (g0, g1)))
    tm = TransportMap(src, tgt, VirtualStructure(flat.vs.d, k))
    ends, crashed = [], 0
    for t in ((np.arange(64) + 0.5) / 64 + 1.0 / 9973.0).tolist():
        theta, g = tm.vs.d(t) % 1.0, k(g_end)
        try:
            ends.append(invert_green_coords(tgt, (theta, g)))
        except RayCrash:
            crashed += 1
            ends.append(invert_green_coords(tgt, (theta + 2.0 ** -45, g)))
    assert crashed == 1
    want = _kdtree_distances(julia_samples(tgt, 10), np.array(ends)).max()
    assert transported_boundary_distance(tm, n_rays=64, julia_depth=10) == want


def _flat_onto_quarter():
    """The c = -3 to -2 map with d flat on [1/4, 1/4 + 1/64], onto the ray
    1/4 that lands on the critical point 0 of c = -2, and k sending
    1e-4 G(0) to G_-2(1e-6 i)."""
    src, tgt = GreenSystem.from_c(-3.0), GreenSystem.from_c(-2.0)
    g0 = critical_potential(src)
    d = CircleCDF(((Fraction(0), 0.0), (Fraction(1, 4), 0.25),
                   (Fraction(1, 4) + Fraction(1, 64), 0.25),
                   (Fraction(1), 1.0)))
    k = PotentialHomeo(((0.0, 0.0),
                        (1e-4 * g0, escape_green(tgt, 1e-6j)[0]), (g0, 1.0)))
    return TransportMap(src, tgt, VirtualStructure(d, k))


def test_boundary_distance_raises_never_drops():
    # one ray end lies in the flat; with and without the nudges its descent
    # passes within the guard of 0.  The other 63 descend, so dropping it
    # would return a distance, and a lower one
    tm = _flat_onto_quarter()
    g = tm.vs.k(1e-4 * critical_potential(tm.source))
    assert g == 5.000493235500542e-07
    for t in (0.25, 0.25 + 2.0 ** -45, 0.25 - 2.0 ** -45):
        with pytest.raises(RayCrash):
            invert_green_coords(tm.target, (t, g))
    thetas = [tm.vs.d(t) % 1.0 for t in
              ((np.arange(64) + 0.5) / 64 + 1.0 / 9973.0).tolist()]
    assert thetas.count(0.25) == 1
    descend_rays_bulk(tm.target, [t for t in thetas if t != 0.25], g)
    with pytest.raises(TargetRayCrash,
                       match=re.escape("(0.25, 5.000493235500542e-07)")):
        transported_boundary_distance(tm, n_rays=64, julia_depth=10)


@pytest.fixture(scope="module")
def transport_cases(pair_m3_m5):
    return pair_m3_m5, _flat_onto_eighth()[0], _flat_onto_quarter()


def _single_ray(tm, angle, g):
    """The image of the source coordinate (angle, g) and its target point
    or error, by `invert_green_coords` ray by ray and the +-2^-45 retry."""
    theta, g = tm.vs.d(angle) % 1.0, tm.vs.k(g)
    for t in (theta, (theta + 2.0 ** -45) % 1.0, (theta - 2.0 ** -45) % 1.0):
        try:
            return theta, g, invert_green_coords(tm.target, (t, g))
        except RayCrash:
            continue
        except GreenrayError as err:
            return theta, g, err
    return theta, g, TargetRayCrash()


@given(st.lists(st.tuples(
    st.one_of(st.floats(0.0, 1.0, exclude_max=True),
              st.integers(1, 63).map(lambda j: 0.125 + j / 4096),
              st.integers(0, 63).map(lambda j: 0.25 + j / 4096)),
    st.sampled_from([1e-4, 0.3, 0.5, 0.9, 1.3])), min_size=1, max_size=24))
@settings(max_examples=40, deadline=None)
def test_transport_levels_bit_equal_single_rays(transport_cases, coords):
    # levels shared by several coordinates, crash images at G(0)/2 in the
    # flat onto 1/8 (nudged) and at 1e-4 G(0) in the flat onto 1/4 (c = -2,
    # TargetRayCrash): each result equals its ray's own, bit for bit
    g0 = critical_potential(transport_cases[0].source)
    angles, pots = [a for a, _ in coords], [u * g0 for _, u in coords]
    for tm in transport_cases:
        got = greenray.rectify._transport(tm, angles, pots)
        want = map(partial(_single_ray, tm), angles, pots)
        for theta, g, w, (theta1, g1, w1) in zip(*got, want, strict=True):
            assert (theta, g) == (theta1, g1)
            assert type(w) is type(w1)
            if isinstance(w1, complex):
                assert (w.real.hex(), w.imag.hex()) == \
                    (w1.real.hex(), w1.imag.hex())


def test_transport_descends_each_target_level_once(sys_0, monkeypatch):
    # the chart scatters a ring's potential over a few ulps, and k, of
    # slope 0.1 above 0.05, rounds them together: one batch per target
    # potential, not one per source potential
    k = PotentialHomeo(((0.0, 0.0), (0.05, 1.0), (1.0, 1.1)))
    tm = TransportMap(sys_0, sys_0, VirtualStructure(CircleCDF.identity(), k))
    pots = [log_bottcher(sys_0, z).potential for z in ring(sys_0, 0.05, 48)]
    levels = set(map(k, pots))
    assert len(levels) < len(set(pots))
    calls = []
    bulk = greenray.rectify.descend_rays_bulk
    monkeypatch.setattr(greenray.rectify, "descend_rays_bulk",
                        lambda sys_, thetas, g: calls.append(g)
                        or bulk(sys_, thetas, g))
    greenray.rectify._transport(tm, [0.1] * len(pots), pots)
    assert sorted(calls) == sorted(levels)


def test_convergence_batches_like_single_transports(monkeypatch):
    # a flat of d onto the level-1 access angle 1/8 and the dyadic k send a
    # ring at G(0)/2 onto target rays at their crash potential: those
    # groups raise in batch and are redone sample by sample with nudges
    tm, points = _flat_onto_eighth()
    g0 = critical_potential(tm.source)
    samples = ring(tm.source, 0.5 * g0, 40) + points
    samples += [0.0j, 1.7 + 0.0j]               # on the skeleton: dropped
    calls = []
    one = greenray.rectify._target_point
    monkeypatch.setattr(greenray.rectify, "_target_point",
                        lambda *a: calls.append(1) or one(*a))
    n_list = [1, 3, 8, 64]
    rows = convergence_study(tm, n_list, samples)
    assert calls, "no batch fell back to single transports"
    assert [tuple(r) for r in rows] == \
        _convergence_one_by_one(tm, n_list, samples)
    assert all(r.dropped_samples >= 2 for r in rows)


def test_chordal_distance_basics():
    assert chordal_distance(0.0, 0.0) == 0.0
    assert chordal_distance(1e9, 1e9 + 1.0) <= 1e-8
    assert chordal_distance(0.0, 1.0) == pytest.approx(math.sqrt(2.0))
