import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from greenray.errors import (CombinatoricsMismatch, Connected, GreenrayError,
                             InsideK)
from greenray.potential import (GreenSystem, critical_potential, escape_green,
                                invert_green_coords, julia_samples,
                                log_bottcher, trace_equipotential, trace_ray)
from greenray.rectify import (ContinuumMap, TransportMap,
                              boundary_derivative_probe, build_quadratic_pair,
                              chordal_distance, continuum_map,
                              convergence_study, quasihyperbolic_displacement,
                              transport_exterior, transport_residuals,
                              transported_boundary_distance)
from greenray.structures import (CircleCDF, PotentialHomeo, VirtualStructure,
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
    from greenray.errors import TargetRayCrash
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
        pr, ar = transport_residuals(tm, z)
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
    pr, ar = transport_residuals(tm, z)
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
    assert abs(continuum_map(cm, z) - z) <= 10.0 * sys_m1.tol


def test_continuum_disk_power_law(sys_0):
    cm = ContinuumMap(sys_0, PotentialHomeo.scaling(1.5))
    r, phi = 1.3, 0.7
    z = r * cmath.exp(1j * phi)
    w = continuum_map(cm, z)
    assert abs(w - r ** 1.5 * cmath.exp(1j * phi)) <= 1e-8


def test_continuum_ray0_potential_doubles(sys_m1):
    cm = ContinuumMap(sys_m1, PotentialHomeo.scaling(2.0))
    z = invert_green_coords(sys_m1, (0.0, 0.21))
    w = continuum_map(cm, z)
    gw, _ = escape_green(sys_m1, w)
    assert abs(gw - 0.42) <= 10.0 * sys_m1.tol
    assert w.imag == pytest.approx(0.0, abs=1e-9)  # stays on the 0-ray


def test_continuum_requires_connected(sys_m3):
    with pytest.raises(Connected):
        ContinuumMap(sys_m3, PotentialHomeo.identity())


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
    assert est.bound_ok(0.1)
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


def test_chordal_distance_basics():
    assert chordal_distance(0.0, 0.0) == 0.0
    assert chordal_distance(1e9, 1e9 + 1.0) <= 1e-8
    assert chordal_distance(0.0, 1.0) == pytest.approx(math.sqrt(2.0))
