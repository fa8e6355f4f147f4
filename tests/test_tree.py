import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from greenray.errors import Connected, RootHasInfiniteModulus, SchemaError
from greenray.potential import (GreenSystem, critical_potential,
                                invert_green_coords)
from greenray.tree import (TreeNode, abstract_binary_tree,
                           build_quadratic_tree, deserialize_tree,
                           node_modulus, serialize_tree, thinness_report)

TWO_PI = 2.0 * math.pi


def test_layer_counts(tree_m3_d4):
    for n in range(5):
        assert len(tree_m3_d4.level(n)) == 2 ** n
    assert len(tree_m3_d4.nodes) == 31


@pytest.mark.parametrize("c", [-3.0, -2.5, -5.0])
def test_equal_modulus_law(c):
    sys_ = GreenSystem.from_c(c)
    g0 = critical_potential(sys_)
    tree = build_quadratic_tree(sys_, 4)
    expect = g0 / TWO_PI
    for node in tree.nodes.values():
        if node.is_root:
            continue
        assert abs(node.modulus - expect) / expect <= 1e-6


def test_modulus_formula_consistency(tree_m3_d4):
    for node in tree_m3_d4.nodes.values():
        if node.is_root:
            continue
        want = (node.g_plus - node.g_minus) / (TWO_PI * node.harmonic_measure)
        assert abs(node.modulus - want) <= 1e-12 * max(1.0, want)


def test_node_modulus_direct_formula():
    node = TreeNode(id=1, depth=1, g_minus=1.0, g_plus=2.0,
                    windows=((Fraction(0), Fraction(1)),),
                    harmonic_measure=1.0, modulus=1.0 / TWO_PI,
                    angular_invariant=(0.5, 0.5),
                    outer_accesses=(Fraction(1, 4), Fraction(3, 4)),
                    inner_accesses=(Fraction(1, 8), Fraction(7, 8)))
    assert abs(node_modulus(node) - 1.0 / TWO_PI) <= 1e-15
    degenerate = TreeNode(id=2, depth=1, g_minus=1.0, g_plus=1.0,
                          windows=((Fraction(0), Fraction(1)),),
                          harmonic_measure=1.0, modulus=0.0,
                          angular_invariant=(0.0, 0.0),
                          outer_accesses=None, inner_accesses=None)
    assert node_modulus(degenerate) == 0.0


def test_root_modulus_raises(tree_m3_d4):
    with pytest.raises(RootHasInfiniteModulus):
        node_modulus(tree_m3_d4.root)


def test_harmonic_measure_partition(tree_m3_d4):
    for node in tree_m3_d4.nodes.values():
        if not node.children:
            continue
        total = sum(tree_m3_d4.nodes[c].harmonic_measure for c in node.children)
        assert abs(total - node.harmonic_measure) <= 1e-15


def test_children_hang_at_parent_inner_boundary(tree_m3_d4):
    for node in tree_m3_d4.nodes.values():
        for cid in node.children:
            child = tree_m3_d4.nodes[cid]
            if not node.is_root:
                assert child.g_plus == node.g_minus
            assert child.depth == node.depth + 1


def test_root_angular_invariant(tree_m3_d4):
    t1, t2 = tree_m3_d4.root.angular_invariant
    assert t1 == pytest.approx(0.5, abs=1e-15)
    assert abs((t1 + t2) % 1.0) <= 1e-12  # theta1 = 1 - theta2


def test_level1_invariants(tree_m3_d4):
    for node in tree_m3_d4.level(1):
        assert node.harmonic_measure == 0.5
        assert set(node.angular_invariant) == {0.25, 0.75}


def test_invariants_in_unit_interval(tree_m3_d4):
    for node in tree_m3_d4.nodes.values():
        for t in node.angular_invariant:
            assert 0.0 <= t < 1.0


def test_harmonic_measure_monte_carlo_oracle(sys_m3):
    # independent oracle for mu_H of the level-1 annuli: which lobe a ray
    # enters is the sign of Re at a potential inside the band
    g0 = critical_potential(sys_m3)
    g_mid = 0.7 * g0
    rng = np.random.default_rng(5)
    thetas = rng.random(600)
    right = 0
    for th in thetas:
        z = invert_green_coords(sys_m3, (float(th), g_mid))
        if z.real > 0:
            right += 1
    assert abs(right / len(thetas) - 0.5) < 0.06


def test_build_requires_cantor(sys_0):
    with pytest.raises(Connected):
        build_quadratic_tree(sys_0, 3)


def test_build_requires_depth(sys_m3):
    with pytest.raises(ValueError):
        build_quadratic_tree(sys_m3, 0)


# ---------------------------------------------------------------------------
# thinness
# ---------------------------------------------------------------------------

def test_thinness_quadratic_certified(tree_m3_d4, sys_m3):
    g0 = critical_potential(sys_m3)
    rep = thinness_report(tree_m3_d4, g0 / (4.0 * math.pi))
    assert rep.verdict == "thin_certified"
    assert len(rep.per_depth_min_modulus) == 4
    assert all(m >= rep.threshold for m in rep.per_depth_min_modulus)


def test_thinness_shrinking_moduli_inconclusive():
    # level-n moduli 4^-n: bounded-below test fails
    deltas = [TWO_PI * 4.0 ** -n * 2.0 ** -n for n in range(1, 5)]
    g = [0.05 + sum(deltas)]
    for d in deltas:
        g.append(g[-1] - d)
    tree = abstract_binary_tree(g)
    mods = [tree.level(n)[0].modulus for n in range(1, 5)]
    assert mods == pytest.approx([0.25, 0.0625, 0.015625, 0.00390625], rel=1e-12)
    rep = thinness_report(tree, 0.01)
    assert rep.verdict == "inconclusive"
    assert any("threshold" in r for r in rep.reasons)


def test_thinness_with_end_inconclusive():
    tree = abstract_binary_tree([1.0, 0.5, 0.25, 0.125], ends=[(0, 1)])
    rep = thinness_report(tree, 1e-9)
    assert rep.verdict == "inconclusive"
    assert any("end" in r for r in rep.reasons)


def test_thinness_requires_two_levels(sys_m3):
    tree = build_quadratic_tree(sys_m3, 1)
    with pytest.raises(ValueError):
        thinness_report(tree, 0.01)


def test_end_nodes_have_zero_invariant():
    tree = abstract_binary_tree([1.0, 0.5, 0.25, 0.125], ends=[(0, 1)])
    end = [n for n in tree.nodes.values() if n.is_end]
    assert len(end) == 1
    assert end[0].angular_invariant == (0.0, 0.0)
    assert end[0].children == ()


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_serialize_round_trip_byte_stable(tree_m3_d4):
    s = serialize_tree(tree_m3_d4)
    t2 = deserialize_tree(s)
    assert serialize_tree(t2) == s
    for nid, node in tree_m3_d4.nodes.items():
        other = t2.nodes[nid]
        assert node.windows == other.windows
        assert node.angular_invariant == other.angular_invariant
        assert node.modulus == other.modulus


@pytest.mark.parametrize("build, digest", [
    (lambda: build_quadratic_tree(GreenSystem.from_c(-3.0), 8),
     "d3302df8163bbcd0f22d3ee37dd0c1528a6372b65bb1ce43696169de9c8d4ba5"),
    # 5-piece windows, and one end
    (lambda: abstract_binary_tree([0.5 ** n for n in range(7)], ends=[(0, 1)],
                                  theta_c=Fraction(3, 10)),
     "61ced293650b5c5b022884dae5076ecca133cc693c65ac48f24127559a007fe1"),
], ids=["c-3_depth8", "abstract_3_10_end"])
def test_serialized_bytes_pinned(build, digest):
    text = serialize_tree(build())
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_serialize_preserves_exact_rationals(tree_m3_d4):
    doc = json.loads(serialize_tree(tree_m3_d4))
    win = doc["nodes"][1]["windows"]
    assert all(isinstance(end, list) for piece in win for end in piece)


def test_deserialize_rejects_one_child(tree_m3_d4):
    doc = json.loads(serialize_tree(tree_m3_d4))
    doc["nodes"][1]["children"] = doc["nodes"][1]["children"][:1]
    with pytest.raises(SchemaError):
        deserialize_tree(doc)


def test_deserialize_rejects_inverted_band(tree_m3_d4):
    doc = json.loads(serialize_tree(tree_m3_d4))
    doc["nodes"][2]["g_minus"] = 10.0
    with pytest.raises(SchemaError):
        deserialize_tree(doc)


def test_deserialize_rejects_modulus_mismatch(tree_m3_d4):
    doc = json.loads(serialize_tree(tree_m3_d4))
    doc["nodes"][3]["modulus"] = doc["nodes"][3]["modulus"] * 1.5
    with pytest.raises(SchemaError):
        deserialize_tree(doc)


def test_deserialize_rejects_garbage():
    with pytest.raises(SchemaError):
        deserialize_tree("{not json")
    with pytest.raises(SchemaError):
        deserialize_tree({"schema": "something-else"})
