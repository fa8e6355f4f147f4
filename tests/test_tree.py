import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenray import angles as ang
from greenray.errors import Connected, RootHasInfiniteModulus, SchemaError
from greenray.potential import (GreenSystem, critical_potential,
                                invert_green_coords)
from greenray.structures import VirtualStructure, collapse
from greenray.tree import (AnalyticTree, TreeNode, _number_decoder,
                           _window_mass, abstract_binary_tree,
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
    # the benchmark's size
    (lambda: build_quadratic_tree(GreenSystem.from_c(-3.0), 11),
     "1bd627eda7a3cc74f246e5319a52dc7e9669ff4b63f8cfdd3dfd68bfdd45a09b"),
    # a grid with an odd factor: Q = 6 * 2^10
    (lambda: abstract_binary_tree([0.5 ** n for n in range(10)],
                                  theta_c=Fraction(1, 6)),
     "eb78f04a4bf3b8898a2267c46c4afe5ca8a4ebc7fd8530b6a4103a1fbe022e3a"),
], ids=["c-3_depth8", "abstract_3_10_end", "c-3_depth11", "abstract_1_6_depth9"])
def test_serialized_bytes_pinned(build, digest):
    text = serialize_tree(build())
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _reversed_records(tree) -> dict:
    """Tree document with its node records in reverse order."""
    doc = json.loads(serialize_tree(tree))
    doc["nodes"].reverse()
    return doc


def _ends_tree():
    return abstract_binary_tree([0.6 ** n for n in range(6)],
                                ends=[(1,), (0, 1, 1)], theta_c=Fraction(3, 10))


@pytest.mark.parametrize("make", [
    lambda: build_quadratic_tree(GreenSystem.from_c(-5.0), 6),
    _ends_tree,
    lambda: collapse(_ends_tree(), VirtualStructure.identity()),
    lambda: deserialize_tree(_reversed_records(_ends_tree())),
], ids=["quadratic", "abstract_ends", "collapsed", "deserialized"])
def test_level_is_scan_and_sort(make):
    tree = make()
    for depth in range(tree.truncation_depth + 2):
        scanned = sorted((n for n in tree.nodes.values() if n.depth == depth),
                         key=lambda n: n.id)
        got = tree.level(depth)
        assert len(got) == len(scanned)
        assert all(a is b for a, b in zip(got, scanned))


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


def test_deserialize_rejects_zero_denominator(tree_m3_d4):
    doc = json.loads(serialize_tree(tree_m3_d4))
    doc["nodes"][1]["windows"][0][0] = [1, 0]
    with pytest.raises(SchemaError, match="bad rational"):
        deserialize_tree(doc)


@pytest.mark.parametrize("field, value", [
    ("g_minus", 10 ** 400), ("windows", [[[10 ** 400, 1], [1, 1]]])])
def test_deserialize_rejects_numbers_past_float_range(tree_m3_d4, field,
                                                       value):
    doc = json.loads(serialize_tree(tree_m3_d4))
    doc["nodes"][1][field] = value
    with pytest.raises(SchemaError, match="too large"):
        deserialize_tree(doc)


@pytest.mark.parametrize("value", [[-1, 4], 1.5, -0.0 - 1e-300],
                         ids=["negative", "float_above_one", "tiny_negative"])
def test_deserialize_rejects_access_outside_unit(tree_m3_d4, value):
    doc = json.loads(serialize_tree(tree_m3_d4))
    doc["nodes"][2]["inner_accesses"][0] = value
    with pytest.raises(SchemaError, match="bad access angle in inner"):
        deserialize_tree(doc)


def test_deserialize_rejects_garbage():
    with pytest.raises(SchemaError):
        deserialize_tree("{not json")
    with pytest.raises(SchemaError):
        deserialize_tree({"schema": "something-else"})


@pytest.fixture(scope="module")
def doc_m3_d3(sys_m3):
    return serialize_tree(build_quadratic_tree(sys_m3, 3))


# one edit per case; node k of the document has id k, the root is 0, nodes
# 1-2 have depth 1 and 3-6 depth 2, and 7-14 are the depth-3 leaves
@pytest.mark.parametrize("path, value, message", [
    (("root",), 1, "missing or non-root root node"),
    (("nodes", 0, "harmonic_measure"), 0.5,
     "node 0 harmonic measure does not match its windows"),
    (("nodes", 7, "is_end"), True, r"end node 7 must carry invariant \(0,0\)"),
    (("nodes", 0, "children", 1), 99, "node 0 references missing child 99"),
    (("nodes", 1, "depth"), 2, "child depth mismatch"),
    (("nodes", 3, "g_plus"), 1.0,
     "children must hang at the parent's inner potential"),
    (("nodes", 1, "harmonic_measure"), 0.25,
     "children of node 0 do not partition its harmonic measure"),
    (("nodes", 2, "id"), 1, "duplicate node id 1"),
    (("nodes", 3, "outer_accesses"), [[1, 4]], "bad pair in outer"),
    (("nodes", 3, "inner_accesses"), "1/4", "bad pair in inner"),
    # node 5's accesses on node 3: collapse failed far from the fault
    (("nodes", 3), lambda doc: {**doc["nodes"][3], **{
        key: doc["nodes"][5][key]
        for key in ("outer_accesses", "inner_accesses")}},
     "node 3 outer accesses are not the inner accesses of its parent 1"),
    # glued, but no access is a left end of the depth-1 windows: collapse
    # failed with "expected exactly one entering access, got []"
    (("nodes",), lambda doc: [
        {**rec, ("inner_accesses" if rec["id"] == 0 else "outer_accesses"):
         [[1, 3], [2, 3]]} if rec["depth"] < 2 else rec
        for rec in doc["nodes"]],
     "node 1 outer accesses are not the seam of its window"),
], ids=["root", "measure", "end_invariant", "missing_child", "child_depth",
        "hang", "partition", "duplicate_id", "outer_pair", "inner_pair",
        "accesses_unglued", "not_the_seam"])
def test_deserialize_rejections_name_the_fault(doc_m3_d3, path, value,
                                               message):
    doc = json.loads(doc_m3_d3)
    _set_at(doc, path, value(doc) if callable(value) else value)
    with pytest.raises(SchemaError, match=message):
        deserialize_tree(doc)


# ---------------------------------------------------------------------------
# decoding and the exact measure check
# ---------------------------------------------------------------------------

def test_decoder_shares_equal_rationals():
    dec = _number_decoder()
    half = dec([1, 2], "window")
    assert dec([1, 2], "window") is half
    assert dec([2, 4], "window") == half == Fraction(1, 2)
    assert dec(None, "modulus") == math.inf
    assert dec(3, "g_plus") == 3.0 and type(dec(3, "g_plus")) is float
    # a new document gets a new table
    assert _number_decoder()([1, 2], "window") is not half


@pytest.mark.parametrize("v", [[1, 0], [0, 0], [1.0, 2], [1, 2.0], ["1", 2],
                               [True, 2], [1, False], [1, 2, 3], [1], []],
                         ids=["zero_den", "zero_zero", "float_num", "float_den",
                              "str_num", "bool_num", "bool_den", "long",
                              "short", "empty"])
def test_decoder_rejects_bad_rationals(v):
    with pytest.raises(SchemaError, match="bad rational"):
        _number_decoder()(v, "window")


@pytest.mark.parametrize("v", [True, False, "0.5", {}])
def test_decoder_rejects_non_numbers(v):
    with pytest.raises(SchemaError, match="bad number"):
        _number_decoder()(v, "g_plus")


def test_deserialized_tree_shares_equal_endpoints(tree_m3_d4):
    tree = deserialize_tree(serialize_tree(tree_m3_d4))
    ends = [x for n in tree.nodes.values()
            for x in (*(e for piece in n.windows for e in piece),
                      *(n.outer_accesses or ()), *(n.inner_accesses or ()))]
    assert len({id(x) for x in ends}) == len(set(ends))


def test_deserialize_reads_unreduced_rationals(tree_m3_d4):
    doc = json.loads(serialize_tree(tree_m3_d4))
    for rec in doc["nodes"]:
        rec["windows"] = [[[2 * n, 2 * d] for n, d in piece]
                          for piece in rec["windows"]]
    tree = deserialize_tree(doc)
    assert serialize_tree(tree) == serialize_tree(tree_m3_d4)


def _set_at(doc, path, value):
    *head, last = path
    for key in head:
        doc = doc[key]
    doc[last] = value


# each of these documents was accepted when a boolean read as 0 or 1
@pytest.mark.parametrize("path, value", [
    (("nodes", 0, "harmonic_measure"), True),
    (("nodes", 0, "windows", 0, 1), [True, True]),
    (("nodes", 0, "inner_accesses", 0), [True, 4]),
    (("nodes", 0, "angular_invariant", 0), False),
    (("nodes", 0, "children", 0), True),
    (("nodes", 0, "depth"), False),
    (("root",), False),
], ids=["harmonic_measure", "window", "access", "invariant", "child",
        "depth", "root"])
def test_deserialize_rejects_booleans(tree_m3_d4, path, value):
    doc = json.loads(serialize_tree(tree_m3_d4))
    _set_at(doc, path, value)
    with pytest.raises(SchemaError, match="bad"):
        deserialize_tree(doc)


@st.composite
def rational_windows(draw):
    """Disjoint sorted pieces as decoded [n, d] pairs: unreduced pairs,
    mixed denominators and equal endpoints shared by neighbours."""
    den = draw(st.integers(1, 10 ** 6))
    cuts = sorted(set(draw(st.lists(st.integers(0, den), min_size=2,
                                    max_size=12))))
    dec = _number_decoder()
    ends = []
    for c in cuts:
        k = draw(st.integers(1, 1000))            # [k c, k den] = c / den
        ends.append(dec([k * c, k * den], "window"))
    keep = draw(st.lists(st.booleans(), min_size=len(ends) - 1,
                         max_size=len(ends) - 1))
    return tuple((lo, hi) for (lo, hi), on in zip(zip(ends, ends[1:]), keep)
                 if on)


@given(rational_windows())
@settings(max_examples=300, deadline=None)
def test_window_mass_equals_fraction_measure(window):
    assert _window_mass(window) == float(ang.window_measure(window))


def test_window_mass_keeps_float_sum():
    window = ((Fraction(1, 3), 0.5), (0.7, Fraction(9, 10)))
    assert _window_mass(window) == float(ang.window_measure(window))


def test_deep_measure_validates_exactly():
    # 32 pieces of about 2^-22 near 1/2, on the grid 1/(3*2^53) where every
    # left end rounds down and every right end rounds up by a third of an
    # ulp: the float differences overshoot the exact mass ~2^-17 by about
    # 2.4e-15, past the 1e-12 relative and 1e-15 absolute tolerance
    den = 3 << 53
    width = 3 << 31
    los = [(3 << 52) + 1 + 2 * width * i for i in range(32)]
    deep = tuple((Fraction(lo, den), Fraction(lo + width + 1, den))
                 for lo in los)
    rest = ang.normalize_window(
        [(Fraction(0), deep[0][0])]
        + [(a[1], b[0]) for a, b in zip(deep, deep[1:])]
        + [(deep[-1][1], Fraction(1))])
    exact = float(ang.window_measure(deep))
    assert 2.0 ** -17 < exact < 2.0 ** -16
    naive = sum(float(hi) - float(lo) for lo, hi in deep)
    assert not math.isclose(naive, exact, rel_tol=1e-12, abs_tol=1e-15)

    def node(nid, windows, g_minus=0.5, g_plus=1.0, children=()):
        mu = float(ang.window_measure(windows))
        return TreeNode(id=nid, depth=0 if nid == 0 else 1,
                        g_minus=g_minus, g_plus=g_plus, windows=windows,
                        harmonic_measure=mu,
                        modulus=math.inf if nid == 0 else
                        (g_plus - g_minus) / (TWO_PI * mu),
                        angular_invariant=(0.5, 0.5),
                        outer_accesses=None, inner_accesses=None,
                        children=children)
    tree = AnalyticTree(
        nodes={0: node(0, ((Fraction(0), Fraction(1)),), 1.0, math.inf,
                       (1, 2)),
               1: node(1, deep), 2: node(2, rest)},
        root_id=0, source={"kind": "abstract"}, truncation_depth=1)
    back = deserialize_tree(serialize_tree(tree))
    assert back.nodes[1].harmonic_measure == exact
    assert _window_mass(back.nodes[1].windows) == exact
