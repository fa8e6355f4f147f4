"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from greenray.errors import SchemaError
from greenray.potential import (GreenSystem, critical_potential, escape_green,
                                invert_green_coords, julia_samples,
                                log_bottcher, trace_equipotential, trace_ray)
from greenray.rectify import (ContinuumMap, TransportMap,
                              boundary_derivative_probe, build_quadratic_pair,
                              convergence_study, quasihyperbolic_displacement,
                              transport_with_residuals,
                              transported_boundary_distance)
from greenray.structures import (CircleCDF, PotentialHomeo, VirtualStructure,
                                 deserialize_structure, mod_xi,
                                 serialize_structure)
from greenray.tree import (build_quadratic_tree, deserialize_tree,
                           serialize_tree, thinness_report)

TWO_PI = 2.0 * math.pi
GOLDEN = 0.6180339887498949


class Criterion:
    """Times one criterion and always prints a single PASS/FAIL line."""

    def __init__(self, num: int, limit: float):
        self.num = num
        self.limit = limit
        self.detail = ""

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        stamp = f"in {elapsed:.2f}s (limit {self.limit:.0f}s)"
        if exc_type is not None:
            print(f"[criterion {self.num}] FAIL {stamp}: {exc}")
            return False
        if elapsed >= self.limit:
            print(f"[criterion {self.num}] FAIL {stamp}: runtime budget "
                  "exceeded")
            raise AssertionError(f"criterion {self.num} exceeded its "
                                 "runtime budget")
        print(f"[criterion {self.num}] PASS {stamp}: {self.detail}")
        return False


def test_criterion_1_green_certification():
    with Criterion(1, 5.0) as crit:
        sys0 = GreenSystem.from_c(0.0)
        worst = 0.0
        for i in range(1000):
            g = 0.05 + 2.95 * i / 999.0
            z = math.exp(g) * np.exp(2j * np.pi * ((i * GOLDEN) % 1.0))
            got, _ = escape_green(sys0, complex(z))
            worst = max(worst, abs(got - math.log(abs(z))))
        assert worst <= 1e-9

        worst_fe = 0.0
        for c in (-3.0, -5.0):
            sys_ = GreenSystem.from_c(c)
            rng = np.random.default_rng(101)
            done = 0
            while done < 200:
                z = complex(rng.uniform(-3.5, 3.5), rng.uniform(-3.0, 3.0))
                g, _ = escape_green(sys_, z)
                if g == 0.0:
                    continue
                gf, _ = escape_green(sys_, z * z + c)
                res = abs(gf - 2.0 * g)
                assert res <= 4.0 * sys_.tol
                worst_fe = max(worst_fe, res)
                done += 1
        crit.detail = (f"disk error {worst:.2e} <= 1e-9; "
                 f"functional-equation residual {worst_fe:.2e} <= 4 tol")


def test_criterion_2_equal_modulus_depth8():
    with Criterion(2, 30.0) as crit:
        worst = 0.0
        for c in (-3.0, -2.5, -5.0):
            sys_ = GreenSystem.from_c(c)
            g0 = critical_potential(sys_)
            tree = build_quadratic_tree(sys_, 8)
            expect = g0 / TWO_PI
            for node in tree.nodes.values():
                if node.is_root:
                    continue
                rel = abs(node.modulus - expect) / expect
                assert rel <= 1e-6
                worst = max(worst, rel)
            rep = thinness_report(tree, g0 / (4.0 * math.pi))
            assert rep.verdict == "thin_certified"
        crit.detail = (f"3 parameters at depth 8; worst relative modulus "
                 f"deviation {worst:.2e} <= 1e-6; thin_certified")


def test_criterion_3_capacity():
    with Criterion(3, 1.0) as crit:
        worst = 0.0
        for c in (0.0, -2.5, -3.0, -5.0):
            g, _ = escape_green(GreenSystem.from_c(c), 1e6)
            worst = max(worst, abs(g - math.log(1e6)))
            assert worst <= 1e-6
        crit.detail = (f"|G(1e6) - log 1e6| = {worst:.2e} <= 1e-6 at 4 parameters")


def test_criterion_4_collapse_correctness():
    from greenray.structures import collapse
    from test_structures import flat_on_window, _invariant_sets

    with Criterion(4, 5.0) as crit:
        sys_ = GreenSystem.from_c(-3.0)
        g0 = critical_potential(sys_)
        tree = build_quadratic_tree(sys_, 4)

        # identity structure: identity collapse modulo ids
        out = collapse(tree, VirtualStructure.identity(),
                       m0=g0 / (4.0 * math.pi))
        assert _invariant_sets(out) == _invariant_sets(tree)

        # flat exactly on one depth-2 window: that subtree deleted, the
        # parent chain merged; chain-sum oracle to 1e-12
        victim = tree.level(2)[0]
        vs = VirtualStructure(flat_on_window(victim.windows),
                              PotentialHomeo.identity())
        parent = next(n for n in tree.nodes.values()
                      if victim.id in n.children)
        sibling = next(tree.nodes[c] for c in parent.children
                       if c != victim.id)
        oracle = mod_xi(parent, vs) + mod_xi(sibling, vs)
        collapsed = collapse(tree, vs)
        assert len(collapsed.nodes) == len(tree.nodes) - 7 - 1
        merged = [n for n in collapsed.nodes.values()
                  if abs(n.modulus - oracle) <= 1e-12 * oracle]
        assert len(merged) == 1
        for n in collapsed.nodes.values():
            assert len(n.children) in (0, 2)

        # scaling structure: all mod_xi scale exactly by lambda = 2
        vs2 = VirtualStructure(CircleCDF.identity(),
                               PotentialHomeo.scaling(2.0))
        for node in tree.nodes.values():
            if node.is_root:
                continue
            assert mod_xi(node, vs2) == 2.0 * node.modulus
        crit.detail = ("identity collapse exact; chain-sum oracle matched to "
                 "1e-12; scaling law exact")


def test_criterion_5_transport_residuals():
    with Criterion(5, 60.0) as crit:
        tm = build_quadratic_pair(-3.0, -5.0, depth=12)
        g0 = critical_potential(tm.source)
        rng = np.random.default_rng(31)
        worst_p = worst_a = 0.0
        for _ in range(1000):
            theta = float(rng.random())
            g = float(g0 * (0.2 + 1.3 * rng.random()))
            z = invert_green_coords(tm.source, (theta, g))
            pr, ar = transport_with_residuals(tm, z)[1:]
            assert pr <= 20.0 * tm.tol and ar <= 20.0 * tm.tol
            worst_p = max(worst_p, pr)
            worst_a = max(worst_a, ar)

        # the image of an equipotential lies on one target equipotential
        from greenray.rectify import transport_exterior
        g = 0.8 * g0
        kg = tm.vs.k(g)
        for curve in trace_equipotential(tm.source, g, 16):
            for z in curve:
                gw, _ = escape_green(tm.target,
                                     transport_exterior(tm, z))
                assert abs(gw - kg) <= 20.0 * tm.tol
        # the image of a ray has constant target angle
        theta = Fraction(1, 3)
        for p in trace_ray(tm.source, theta, 0.1 * g0, 1.5 * g0, 10):
            gc = log_bottcher(tm.target, transport_exterior(tm, p.point))
            d = abs(gc.angle - float(theta)) % 1.0
            assert min(d, 1.0 - d) <= 20.0 * tm.tol

        hd = transported_boundary_distance(tm, n_rays=4096, julia_depth=16)
        assert hd <= 1e-3
        crit.detail = (f"1000 samples: residuals ({worst_p:.2e}, {worst_a:.2e}) "
                 f"<= 20 tol; equipotential/ray images preserved; "
                 f"one-sided Hausdorff {hd:.2e} <= 1e-3")


def test_criterion_6_lipschitz_convergence():
    with Criterion(6, 60.0) as crit:
        sys0 = GreenSystem.from_c(0.0)
        flat = Fraction(1, 512)
        d = CircleCDF((
            (Fraction(0), 0.0),
            (Fraction(1, 5), 0.21), (Fraction(1, 5) + flat, 0.21),
            (Fraction(1, 2), 0.52), (Fraction(1, 2) + flat, 0.52),
            (Fraction(4, 5), 0.83), (Fraction(4, 5) + flat, 0.83),
            (Fraction(1), 1.0),
        ))
        k = PotentialHomeo(((0.0, 0.0), (0.05, 1.0), (1.0, 1.1)))
        tm = TransportMap(sys0, sys0, VirtualStructure(d, k))
        ring = [invert_green_coords(sys0, (((i + 0.5) / 48 + GOLDEN) % 1.0,
                                           0.05))
                for i in range(48)]
        rows = convergence_study(tm, [1, 2, 4, 8, 16, 32, 64], ring)
        sups = [r.sup_distance for r in rows]
        assert all(a > b for a, b in zip(sups, sups[1:])), sups
        assert sups[-1] <= 1e-3
        assert all(r.dropped_samples == 0 for r in rows)
        crit.detail = ("table strictly decreasing "
                 f"{[f'{s:.1e}' for s in sups]}; final <= 1e-3 by n=64")


def test_criterion_7_poincare_displacement():
    with Criterion(7, 30.0) as crit:
        # disk: closed-form agreement and the log lambda bound
        sys0 = GreenSystem.from_c(0.0)
        circle = np.exp(2j * np.pi * np.arange(1 << 14) / (1 << 14))
        for lam in (1.5, 2.0):
            cm = ContinuumMap(sys0, PotentialHomeo.scaling(lam))
            for i in range(50):
                g = 0.02 + 0.10 * i / 49.0
                theta = (i * GOLDEN) % 1.0
                z = math.exp(g) * complex(np.exp(2j * np.pi * theta))
                est = quasihyperbolic_displacement(cm, z, boundary=circle)
                r = abs(z)
                closed = abs(math.log((r ** lam - 1.0) / (r - 1.0)))
                assert abs(est.integral - closed) <= 1e-3
                assert est.estimate / 2.0 <= math.log(lam) + 0.1

        # basilica: slopes in [1/2, 2] so C = 2
        sysm1 = GreenSystem.from_c(-1.0)
        k = PotentialHomeo(((0.0, 0.0), (0.01, 0.02), (0.02, 0.025),
                            (0.03, 0.045), (0.04, 0.05), (1.0, 1.01)))
        assert k.bilipschitz_constant == pytest.approx(2.0)
        cm = ContinuumMap(sysm1, k)
        cloud = julia_samples(sysm1, 15)
        for i in range(50):
            theta = ((i + 0.5) / 50 + 0.0123) % 1.0
            g = 0.03 + 0.02 * (i % 5) / 4.0
            z = invert_green_coords(sysm1, (theta, g))
            est = quasihyperbolic_displacement(cm, z, boundary=cloud)
            assert est.estimate / 2.0 <= math.log(2.0) + 0.1
        crit.detail = ("disk integrals match the closed form to 1e-3 and satisfy "
                 "log lambda + 0.1; basilica bound log 2 + 0.1 at 50 points")


def test_criterion_8_boundary_derivative_schedule():
    with Criterion(8, 5.0) as crit:
        sys0 = GreenSystem.from_c(0.0)
        h = 1e-3
        prev_gap = math.inf
        rows = []
        for lam in (1.5, 1.25, 1.1, 1.01):
            cm = ContinuumMap(sys0, PotentialHomeo.scaling(lam))
            samples = boundary_derivative_probe(cm, 1.0 + 0.0j, [h])
            radial = next(s for s in samples
                          if abs(s.direction - 1.0) < 1e-12)
            closed = ((1.0 + h) ** lam - 1.0) / h
            assert abs(radial.quotient - closed) <= 1e-9
            gap = abs(radial.quotient - 1.0)
            assert gap < prev_gap
            prev_gap = gap
            rows.append((lam, complex(radial.quotient)))
        crit.detail = ("radial quotients " +
           ", ".join(f"{lam}:{q.real:.5f}" for lam, q in rows) +
           " decrease to 1 and match (1+h)^lambda closed form")


def test_criterion_9_serialization_round_trips():
    with Criterion(9, 1.0) as crit:
        sys_ = GreenSystem.from_c(-3.0)
        tree = build_quadratic_tree(sys_, 3)
        s = serialize_tree(tree)
        assert serialize_tree(deserialize_tree(s)) == s

        vs = VirtualStructure(
            CircleCDF(((Fraction(0), 0.0), (Fraction(1, 4), 0.1),
                       (Fraction(3, 4), 0.9), (Fraction(1), 1.0))),
            PotentialHomeo(((0.0, 0.0), (0.5, 0.75), (2.0, 2.0))))
        ss = serialize_structure(vs)
        assert serialize_structure(deserialize_structure(ss)) == ss

        doc = json.loads(s)
        doc["nodes"][1]["children"] = doc["nodes"][1]["children"][:1]
        with pytest.raises(SchemaError):
            deserialize_tree(doc)
        with pytest.raises(SchemaError):
            deserialize_structure({"schema": "greenray-structure/1",
                                   "d": [[0.0, 0.0], [1.0, 0.5]],
                                   "k": [[0.0, 0.0], [1.0, 1.0]]})
        crit.detail = ("tree and structure JSON byte-stable; malformed inputs "
                 "rejected")
