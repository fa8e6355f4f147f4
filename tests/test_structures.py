import dataclasses
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from greenray.errors import (NotAdmissible, OverlappingWindows, RootNode,
                             SchemaError)
from greenray.potential import critical_potential
from greenray.structures import (CircleCDF, PotentialHomeo, VirtualStructure,
                                 admissible, collapse, deserialize_structure,
                                 lipschitz_approx_d, lipschitz_approx_k,
                                 measure_of, mod_xi, serialize_structure)
from greenray.potential import GreenSystem
from greenray.tree import (AnalyticTree, TreeNode, abstract_binary_tree,
                           build_quadratic_tree, deserialize_tree,
                           serialize_tree)

TWO_PI = 2.0 * math.pi

# staircase with flats [0.1,0.2], [0.45,0.55], [0.8,0.9]
STAIRCASE = CircleCDF((
    (Fraction(0), 0.0),
    (Fraction(1, 10), 0.15),
    (Fraction(2, 10), 0.15),
    (Fraction(45, 100), 0.5),
    (Fraction(55, 100), 0.5),
    (Fraction(8, 10), 0.85),
    (Fraction(9, 10), 0.85),
    (Fraction(1), 1.0),
))


def flat_on_window(windows) -> CircleCDF:
    """CDF exactly flat on the given window pieces, linear elsewhere."""
    xs = sorted({Fraction(0), Fraction(1)} |
                {Fraction(x) for piece in windows for x in piece})
    flat = set()
    for lo, hi in windows:
        flat.add((Fraction(lo), Fraction(hi)))
    rising_total = sum(b - a for a, b in zip(xs, xs[1:])
                       if (a, b) not in flat)
    bps = [(Fraction(0), 0.0)]
    acc = 0.0
    for a, b in zip(xs, xs[1:]):
        if (a, b) not in flat:
            acc += float((b - a) / rising_total)
        bps.append((b, min(acc, 1.0)))
    bps[-1] = (Fraction(1), 1.0)
    return CircleCDF(tuple(bps))


# ---------------------------------------------------------------------------
# CircleCDF
# ---------------------------------------------------------------------------

def test_cdf_identity_measures():
    d = CircleCDF.identity()
    assert measure_of(d, [(0.0, 0.25)]) == 0.25
    assert d(0.3) == 0.3
    assert d(1.7) == pytest.approx(1.7)  # lift


def test_cdf_flat_half():
    d = CircleCDF(((Fraction(0), 0.0), (Fraction(1, 2), 0.0), (Fraction(1), 1.0)))
    assert measure_of(d, [(0.0, 0.5)]) == 0.0
    assert measure_of(d, [(0.5, 1.0)]) == 1.0


def test_cdf_staircase_riemann_oracle():
    # brute-force the measure of [1/8, 3/8] by summing CDF increments over a
    # uniform 1e6-cell grid
    n = 1_000_000
    xs = np.linspace(0.0, 1.0, n + 1)
    ys = np.array([STAIRCASE(x) for x in xs])
    lo, hi = 0.125, 0.375
    mask = (xs[:-1] >= lo) & (xs[1:] <= hi)
    oracle = float(np.sum(np.diff(ys)[mask]))
    val = measure_of(STAIRCASE, [(Fraction(1, 8), Fraction(3, 8))])
    assert abs(val - oracle) <= 1e-5


def test_cdf_rejects_atoms_and_decrease():
    with pytest.raises(ValueError):
        CircleCDF(((Fraction(0), 0.0), (Fraction(1, 2), 0.5),
                   (Fraction(1, 2), 0.7), (Fraction(1), 1.0)))
    with pytest.raises(ValueError):
        CircleCDF(((Fraction(0), 0.0), (Fraction(1, 2), 0.9),
                   (Fraction(3, 4), 0.4), (Fraction(1), 1.0)))
    with pytest.raises(ValueError):
        # total increase != 1 (the everywhere-flat candidate)
        CircleCDF(((Fraction(0), 0.0), (Fraction(1), 0.0)))


def test_measure_of_rejects_overlaps():
    with pytest.raises(OverlappingWindows):
        measure_of(CircleCDF.identity(), [(0.0, 0.5), (0.25, 0.75)])


@st.composite
def circle_cdfs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    cuts = sorted(draw(st.lists(
        st.fractions(min_value=Fraction(1, 64), max_value=Fraction(63, 64),
                     max_denominator=64),
        min_size=n, max_size=n, unique=True)))
    xs = [Fraction(0)] + cuts + [Fraction(1)]
    raw = draw(st.lists(st.floats(min_value=0.0, max_value=1.0),
                        min_size=len(xs) - 1, max_size=len(xs) - 1))
    total = sum(raw)
    if total == 0.0:
        raw = [1.0] * len(raw)
        total = float(len(raw))
    ys = [0.0]
    for r in raw:
        ys.append(min(ys[-1] + r / total, 1.0))
    ys[-1] = 1.0
    return CircleCDF(tuple(zip(xs, ys)))


def _max_slope(d: CircleCDF) -> float:
    """Largest slope of d between consecutive breakpoints."""
    pts = [(float(x), y) for x, y in d.breakpoints]
    return max((y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(pts, pts[1:]))


@given(circle_cdfs(), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_cdf_monotone_continuous_lift(d, x):
    # monotone, Lipschitz on a refinement step (non-atomic), unit lift
    h = 1.0 / 4096.0
    x1 = min(x + h, 1.0)
    assert d(x1) >= d(x)
    assert d(x1) - d(x) <= _max_slope(d) * (x1 - x) + 1e-12
    assert d(x + 1.0) == pytest.approx(d(x) + 1.0, abs=1e-12)


@given(circle_cdfs())
@settings(max_examples=40, deadline=None)
def test_cdf_measure_additivity(d):
    a, b, c = 0.125, 0.375, 0.8125
    whole = measure_of(d, [(a, c)])
    parts = measure_of(d, [(a, b), (b, c)])
    assert whole == pytest.approx(parts, abs=1e-12)


# ---------------------------------------------------------------------------
# PotentialHomeo
# ---------------------------------------------------------------------------

def test_homeo_identity_scaling():
    k = PotentialHomeo.identity()
    assert k(0.7) == 0.7
    assert k(3.5) == 3.5  # linear extension
    s = PotentialHomeo.scaling(2.5)
    assert s(2.0) == 5.0
    assert s.bilipschitz_constant == 2.5


def test_homeo_validation():
    with pytest.raises(ValueError):
        PotentialHomeo(((0.0, 0.1), (1.0, 1.0)))
    with pytest.raises(ValueError):
        PotentialHomeo(((0.0, 0.0), (1.0, 1.0), (1.0, 2.0)))
    with pytest.raises(ValueError):
        PotentialHomeo(((0.0, 0.0), (1.0, 0.0)))


def test_homeo_bilipschitz_includes_inverse_slope():
    k = PotentialHomeo(((0.0, 0.0), (0.5, 0.1), (1.0, 1.1)))
    assert k.bilipschitz_constant == pytest.approx(5.0)


# ---------------------------------------------------------------------------
# mod_xi
# ---------------------------------------------------------------------------

def test_mod_xi_identity(tree_m3_d4):
    vs = VirtualStructure.identity()
    for node in tree_m3_d4.nodes.values():
        if node.is_root:
            continue
        assert mod_xi(node, vs) == node.modulus


def test_mod_xi_scaling_law(tree_m3_d4):
    vs2 = VirtualStructure(CircleCDF.identity(), PotentialHomeo.scaling(2.0))
    vs17 = VirtualStructure(CircleCDF.identity(), PotentialHomeo.scaling(1.7))
    for node in tree_m3_d4.nodes.values():
        if node.is_root:
            continue
        assert mod_xi(node, vs2) == 2.0 * node.modulus
        assert mod_xi(node, vs17) == pytest.approx(1.7 * node.modulus,
                                                   rel=1e-12)


def test_mod_xi_flat_window_infinite(tree_m3_d4):
    node = tree_m3_d4.level(2)[0]
    vs = VirtualStructure(flat_on_window(node.windows),
                          PotentialHomeo.identity())
    assert measure_of(vs.d, node.windows) == 0.0
    assert math.isinf(mod_xi(node, vs))
    # infinite mod_xi iff d glues the outer accesses (single-seam test via
    # the window measure identity)
    sibling = [n for n in tree_m3_d4.level(2) if n is not node][0]
    assert not math.isinf(mod_xi(sibling, vs))


def test_mod_xi_root_raises(tree_m3_d4):
    with pytest.raises(RootNode):
        mod_xi(tree_m3_d4.root, VirtualStructure.identity())


# ---------------------------------------------------------------------------
# admissible
# ---------------------------------------------------------------------------

def test_admissible_identity_reduces_to_thinness(tree_m3_d4, sys_m3):
    g0 = critical_potential(sys_m3)
    rep = admissible(tree_m3_d4, VirtualStructure.identity(),
                     g0 / (4.0 * math.pi))
    assert rep.verdict == "admissible_certified"
    assert rep.deleted_subtree_roots == ()
    assert rep.offending_branches == ()


def test_admissible_flat_depth1_window(tree_m3_d4, sys_m3):
    g0 = critical_potential(sys_m3)
    lobe = tree_m3_d4.level(1)[0]
    vs = VirtualStructure(flat_on_window(lobe.windows),
                          PotentialHomeo.identity())
    rep = admissible(tree_m3_d4, vs, g0 / (8.0 * math.pi))
    assert rep.verdict == "admissible_certified"
    assert rep.deleted_subtree_roots == (lobe.id,)


def test_admissible_flags_low_mod_xi(tree_m3_d4, sys_m3):
    g0 = critical_potential(sys_m3)
    # squash potentials so mod_xi drops below the threshold
    vs = VirtualStructure(CircleCDF.identity(), PotentialHomeo.scaling(0.25))
    rep = admissible(tree_m3_d4, vs, g0 / (4.0 * math.pi))
    assert rep.verdict == "inconclusive"
    assert rep.offending_branches


def test_admissible_depth_without_finite_vertex_is_inconclusive():
    # depths 2 and 3 hold no vertex: a bare AssertionError was raised
    tree = abstract_binary_tree([1, .5, .25, .125], ends=[(0,), (1,)])
    rep = admissible(tree, VirtualStructure.identity(), 0.01)
    assert rep.verdict == "inconclusive"
    with pytest.raises(NotAdmissible):
        rep.require_certified()


# ---------------------------------------------------------------------------
# collapse
# ---------------------------------------------------------------------------

def _invariant_sets(tree):
    out = []
    for node in tree.nodes.values():
        out.append((node.depth,
                    round(node.modulus, 12) if not node.is_root else None,
                    tuple(round(t, 12) for t in node.angular_invariant),
                    round(node.harmonic_measure, 12),
                    len(node.children)))
    return sorted(out)


def test_collapse_identity_is_identity(tree_m3_d4, sys_m3):
    g0 = critical_potential(sys_m3)
    out = collapse(tree_m3_d4, VirtualStructure.identity(),
                   m0=g0 / (4.0 * math.pi))
    assert _invariant_sets(out) == _invariant_sets(tree_m3_d4)


def test_collapse_scaling_scales_moduli(tree_m3_d4):
    vs = VirtualStructure(CircleCDF.identity(), PotentialHomeo.scaling(2.0))
    out = collapse(tree_m3_d4, vs)
    orig = sorted(n.modulus for n in tree_m3_d4.nodes.values() if not n.is_root)
    new = sorted(n.modulus for n in out.nodes.values() if not n.is_root)
    assert all(b == 2.0 * a for a, b in zip(orig, new))


def test_collapse_flat_depth2_window_chain_sum_oracle(tree_m3_d4):
    # delete one depth-2 subtree; its parent then forms a 2-chain with the
    # surviving sibling; brute-force re-walk of the chain is the oracle
    victim = tree_m3_d4.level(2)[0]
    vs = VirtualStructure(flat_on_window(victim.windows),
                          PotentialHomeo.identity())
    parent = next(n for n in tree_m3_d4.nodes.values()
                  if victim.id in n.children)
    sibling = next(tree_m3_d4.nodes[c] for c in parent.children
                   if c != victim.id)
    oracle = mod_xi(parent, vs) + mod_xi(sibling, vs)

    out = collapse(tree_m3_d4, vs)
    # victim subtree gone: node count drops by subtree size + merged vertex
    assert len(out.nodes) == len(tree_m3_d4.nodes) - 7 - 1
    merged = [n for n in out.level(1)
              if abs(n.modulus - oracle) <= 1e-12 * oracle]
    assert merged, "no merged node matches the chain-sum oracle"
    node = merged[0]
    # merged band spans the chain with k = id
    assert node.g_plus == parent.g_plus
    assert node.g_minus == sibling.g_minus
    # binary output, no single-child vertices
    for n in out.nodes.values():
        assert len(n.children) in (0, 2)


@st.composite
def abstract_trees_with_ends(draw):
    depth = draw(st.integers(3, 6))
    steps = draw(st.lists(st.floats(0.01, 1.0), min_size=depth,
                          max_size=depth))
    g_levels = [0.1 + sum(steps[n:]) for n in range(depth + 1)]
    ends = draw(st.lists(st.lists(st.integers(0, 1), min_size=1,
                                  max_size=depth - 1).map(tuple), max_size=3))
    # an odd numerator over 2^k * odd keeps the denominator even
    k, m = draw(st.integers(1, 4)), 2 * draw(st.integers(0, 7)) + 1
    num = 2 * draw(st.integers(0, 2 ** (k - 1) * m - 1)) + 1
    return abstract_binary_tree(g_levels, ends=ends,
                                theta_c=Fraction(num, 2 ** k * m))


@given(tree=abstract_trees_with_ends(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_collapse_chain_sum_property(tree, data):
    # flat on one window below level 1: that subtree goes, and its parent
    # forms a 2-chain with the surviving sibling
    victims = sorted(n.id for n in tree.nodes.values() if n.depth >= 2)
    assume(victims)
    victim = tree.nodes[data.draw(st.sampled_from(victims))]
    vs = VirtualStructure(flat_on_window(victim.windows),
                          PotentialHomeo.identity())
    parent = next(n for n in tree.nodes.values() if victim.id in n.children)
    sibling = next(tree.nodes[c] for c in parent.children if c != victim.id)

    out = collapse(tree, vs)
    assert len(out.nodes) == len(tree.nodes) - subtree_size(tree, victim.id) - 1
    merged = [n for n in out.nodes.values()
              if n.g_plus == parent.g_plus and n.g_minus == sibling.g_minus]
    assert len(merged) == 1
    oracle = mod_xi(parent, vs) + mod_xi(sibling, vs)
    assert merged[0].modulus == pytest.approx(oracle, rel=1e-12)
    assert all(len(n.children) in (0, 2) for n in out.nodes.values())


def subtree_size(tree, nid) -> int:
    return 1 + sum(subtree_size(tree, c) for c in tree.nodes[nid].children)


def _cumulative_position_d(window, seam, theta, d) -> Fraction:
    """Oracle for the mu_d positions of `collapse`: the exact mu_d mass of
    the window cut to the ccw arc from `seam` to theta.

    d's float breakpoints are taken as Fractions and d is interpolated
    between them in exact arithmetic; no angles or structures code runs.
    """
    xs = [Fraction(x) for x, _ in d.breakpoints]
    ys = [Fraction(y) for _, y in d.breakpoints]

    def cdf(x):
        i = max(i for i in range(len(xs) - 1) if xs[i] <= x)
        return ys[i] + (ys[i + 1] - ys[i]) * (x - xs[i]) / (xs[i + 1] - xs[i])

    seam, theta = Fraction(seam), Fraction(theta)
    arc = [(seam, theta)] if seam <= theta else \
        [(seam, Fraction(1)), (Fraction(0), theta)]
    mass = Fraction(0)
    for lo, hi in window:
        for a, b in arc:
            cut_lo, cut_hi = max(Fraction(lo), a), min(Fraction(hi), b)
            if cut_lo < cut_hi:
                mass += cdf(cut_hi) - cdf(cut_lo)
    return mass


def test_collapse_merged_angular_invariant_telescopes(tree_m3_d4):
    for length in (2, 3, 4):
        # a chain of `length` annuli down from a depth-1 annulus: below the
        # top, d kills the first child of each annulus of the chain
        top = tree_m3_d4.level(1)[0]
        chain, victims = [top], []
        for _ in range(length - 1):
            victim, survivor = (tree_m3_d4.nodes[c]
                                for c in chain[-1].children)
            victims.append(victim)
            chain.append(survivor)
        vs = VirtualStructure(
            flat_on_window([piece for v in victims for piece in v.windows]),
            PotentialHomeo.identity())
        out = collapse(tree_m3_d4, vs)
        merged = [n for n in out.nodes.values() if n.g_plus == top.g_plus
                  and n.g_minus == chain[-1].g_minus]
        assert len(merged) == 1
        # oracle: positions of the bottom inner accesses inside the top
        # window, measured by mu_d from the top's entering access
        lefts = {lo for lo, _ in top.windows}
        seam, = (a for a in top.outer_accesses if a in lefts)
        total = _cumulative_position_d(top.windows, 0, 1, vs.d)
        pos = sorted(_cumulative_position_d(top.windows, seam, b, vs.d) / total
                     for b in chain[-1].inner_accesses)
        expect = tuple(sorted(((-p) % 1.0 for p in pos), reverse=True))
        got = tuple(sorted(merged[0].angular_invariant, reverse=True))
        assert got == pytest.approx(expect, abs=1e-12), length


def test_collapse_root_chain_merges(tree_m3_d4):
    # delete a whole depth-1 lobe: the root is left with one child and the
    # pair merges into the new (infinite-modulus) root
    lobe = tree_m3_d4.level(1)[0]
    vs = VirtualStructure(flat_on_window(lobe.windows),
                          PotentialHomeo.identity())
    out = collapse(tree_m3_d4, vs)
    # 31 nodes - 15 (deleted lobe subtree) - 1 (merged pair) = 15
    assert len(out.nodes) == 15
    root = out.root
    assert math.isinf(root.modulus) and math.isinf(root.g_plus)
    sibling = next(n for n in tree_m3_d4.level(1) if n is not lobe)
    assert root.g_minus == sibling.g_minus
    assert len(root.children) == 2
    # depth shifts up by one: former depth-2 nodes are now depth 1
    assert out.truncation_depth == tree_m3_d4.truncation_depth - 1
    for n in out.nodes.values():
        assert len(n.children) in (0, 2)


def test_collapse_not_admissible_raises(tree_m3_d4, sys_m3):
    g0 = critical_potential(sys_m3)
    vs = VirtualStructure(CircleCDF.identity(), PotentialHomeo.scaling(0.25))
    with pytest.raises(NotAdmissible):
        collapse(tree_m3_d4, vs, m0=g0 / (4.0 * math.pi))


def test_collapsed_tree_serializes(tree_m3_d4):
    victim = tree_m3_d4.level(2)[0]
    vs = VirtualStructure(flat_on_window(victim.windows),
                          PotentialHomeo.identity())
    out = collapse(tree_m3_d4, vs)
    s = serialize_tree(out)
    assert serialize_tree(deserialize_tree(s)) == s


@pytest.fixture(scope="module")
def tree_m3_d11():
    return build_quadratic_tree(GreenSystem.from_c(-3.0), 11)


@pytest.fixture(scope="module")
def tree_m5_d8():
    return build_quadratic_tree(GreenSystem.from_c(-5.0), 8)


def _collapsed_base():
    tree = build_quadratic_tree(GreenSystem.from_c(-5.0), 8)
    return collapse(tree, VirtualStructure(
        flat_on_window(tree.level(3)[0].windows), PotentialHomeo.scaling(1.7)))


def _flat_at(level, index, k):
    return lambda t: VirtualStructure(flat_on_window(t.level(level)[index].windows), k)


# sha256 of serialize_tree(collapse(tree, structure)), taken before collapse
# mapped each annulus through d once; a string names a tree fixture
@pytest.mark.parametrize("tree, structure, digest", [
    ("tree_m3_d11", lambda t: VirtualStructure.identity(),
     "372428404c78e4328b66614afd2105a479440947b89125f1781705f5cba75281"),
    ("tree_m5_d8", _flat_at(1, 0, PotentialHomeo.scaling(1.7)),
     "24a5a694af24a8ea74716c3f8aff4369b8531c27487f6fa3f987480d6961059a"),
    ("tree_m5_d8", _flat_at(5, 0, PotentialHomeo.scaling(1.7)),
     "7321754797d11f05d734b7cbe7cf1c85d461662feb99c896dfc3dfa551d3e9ee"),
    ("tree_m5_d8", lambda t: VirtualStructure(STAIRCASE, PotentialHomeo.identity()),
     "9f171f28f3f37f19152a865f8c94839f493fefc9b6d08a03579dc9404a1307a3"),
    (lambda: abstract_binary_tree([0.6 ** n for n in range(6)],
                                  ends=[(1,), (0, 1, 1)],
                                  theta_c=Fraction(3, 10)),
     _flat_at(2, 1, PotentialHomeo.scaling(1.7)),
     "360ddd3f4fa6d05d64c2dcc4e8f84e84a7cd4988997d5d8907c9d162da04bf1b"),
    (_collapsed_base, _flat_at(4, 2, PotentialHomeo.scaling(1.5)),
     "2b1ccef522ffd943d3aaf00829442dc373250c9900f93c9898c57748a5368dc4"),
    (_collapsed_base, lambda t: VirtualStructure(STAIRCASE,
                                                 PotentialHomeo.scaling(1.5)),
     "aaf2a32dacd3c710facab11a36d5174db3b07a463068cdd1dd26702a1165987c"),
], ids=["identity_m3_d11", "flat1_m5_d8", "flat5_m5_d8", "staircase_m5_d8",
        "abstract_ends_flat2", "collapsed_flat4", "collapsed_staircase"])
def test_collapse_bytes_pinned(request, tree, structure, digest):
    tree = request.getfixturevalue(tree) if isinstance(tree, str) else tree()
    text = serialize_tree(collapse(tree, structure(tree)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("tree", [
    lambda: build_quadratic_tree(GreenSystem.from_c(-3.0), 6),
    lambda: abstract_binary_tree([0.6 ** n for n in range(6)],
                                 ends=[(1,), (0, 1, 1)],
                                 theta_c=Fraction(3, 10)),
    _collapsed_base,
    lambda: collapse(_collapsed_base(), VirtualStructure(
        STAIRCASE, PotentialHomeo.scaling(1.5))),
], ids=["built", "abstract_ends", "collapsed", "collapse_of_collapse"])
def test_written_trees_round_trip(tree):
    # the decoder checks that each child's outer accesses are its parent's
    # inner accesses; every tree greenray writes must pass
    text = serialize_tree(tree())
    assert serialize_tree(deserialize_tree(text)) == text


@pytest.mark.parametrize("structure", [
    lambda t: VirtualStructure.identity(),
    _flat_at(3, 0, PotentialHomeo.identity()),
    lambda t: VirtualStructure(STAIRCASE, PotentialHomeo.scaling(1.5)),
], ids=["identity", "flat3", "staircase"])
def test_collapse_of_decoded_tree_is_byte_equal(tree_m5_d8, structure):
    # a decoded tree holds one Fraction per distinct [n, d] pair of its
    # document, a built one the grid's; collapse reads only their values
    vs = structure(tree_m5_d8)
    decoded = deserialize_tree(serialize_tree(tree_m5_d8))
    assert serialize_tree(collapse(decoded, vs)) == \
        serialize_tree(collapse(tree_m5_d8, vs))


def _hand_tree(kid_windows, grandkid_windows=None) -> AnalyticTree:
    """Root over [0, 1] and two children, built without validation; the
    first child gets two children of its own when `grandkid_windows` is
    given."""
    def node(nid, depth, windows, children=()):
        (lo, a), (b, hi) = windows[0], windows[-1]
        return TreeNode(id=nid, depth=depth, g_minus=1.0 / 2 ** depth,
                        g_plus=math.inf if depth == 0 else 2.0 / 2 ** depth,
                        windows=windows, harmonic_measure=0.5,
                        modulus=1.0, angular_invariant=(0.5, 0.5),
                        outer_accesses=None if depth == 0 else (lo, hi),
                        inner_accesses=((lo + a) / 2, (b + hi) / 2),
                        children=children)
    nodes = {0: node(0, 0, ((0.0, 1.0),), (1, 2)),
             1: node(1, 1, kid_windows[0], (3, 4) if grandkid_windows else ()),
             2: node(2, 1, kid_windows[1])}
    if grandkid_windows:
        nodes[3] = node(3, 2, grandkid_windows[0])
        nodes[4] = node(4, 2, grandkid_windows[1])
    return AnalyticTree(nodes=nodes, root_id=0, source={"kind": "abstract"},
                        truncation_depth=2 if grandkid_windows else 1)


def test_collapse_rejects_overlapping_pieces():
    tree = _hand_tree((((0.0, 0.3), (0.2, 0.5)), ((0.5, 1.0),)))
    with pytest.raises(OverlappingWindows):
        collapse(tree, VirtualStructure.identity())


def test_collapse_measures_pieces_in_stored_order():
    # the first child's pieces are stored unsorted, and summing their
    # lengths in that order rounds differently from summing them sorted
    window = ((0.86, 0.99), (0.19, 0.56), (0.64, 0.84))
    tree = _hand_tree((window, ((0.0, 0.19),)))
    vs = VirtualStructure.identity()
    mass = measure_of(vs.d, window)
    assert mass != measure_of(vs.d, sorted(window))
    assert collapse(tree, vs).nodes[1].harmonic_measure == mass


def test_collapse_rejects_surviving_vertex_without_children():
    # a hand-built child whose children do not cover its window, and a d
    # flat on both of them
    tree = _hand_tree((((0.0, 0.5),), ((0.5, 1.0),)),
                      (((0.0, 0.1),), ((0.1, 0.2),)))
    vs = VirtualStructure(flat_on_window([(0, Fraction(1, 5))]),
                          PotentialHomeo.identity())
    with pytest.raises(AssertionError, match="both children deleted"):
        collapse(tree, vs)


def test_collapse_checks_telescoping(tree_m3_d4):
    # the sibling merges into its parent; giving it another entering access
    # shifts its own offsets, so the summed positions disagree with the
    # direct ones
    victim = tree_m3_d4.level(2)[0]
    parent = next(n for n in tree_m3_d4.nodes.values()
                  if victim.id in n.children)
    sibling = next(tree_m3_d4.nodes[c] for c in parent.children
                   if c != victim.id)
    (lo0, _), (lo1, hi1) = sibling.windows
    assert sibling.outer_accesses[0] == lo0
    moved = dataclasses.replace(sibling, outer_accesses=(lo1, hi1))
    tree = dataclasses.replace(tree_m3_d4,
                               nodes={**tree_m3_d4.nodes, sibling.id: moved})
    vs = VirtualStructure(flat_on_window(victim.windows),
                          PotentialHomeo.identity())
    collapse(tree_m3_d4, vs)
    with pytest.raises(AssertionError, match="telescoped"):
        collapse(tree, vs)


# ---------------------------------------------------------------------------
# lipschitz approximations
# ---------------------------------------------------------------------------

def test_lipschitz_k_identity_fixed():
    k = PotentialHomeo.identity()
    assert lipschitz_approx_k(k, 1).breakpoints == k.breakpoints


def test_lipschitz_k_caps_slope():
    k = PotentialHomeo(((0.0, 0.0), (0.5, 5.0), (1.0, 5.5)))
    k3 = lipschitz_approx_k(k, 3)
    assert max(k3.slopes()) <= 3.0
    assert k3.slopes()[1] == 1.0  # untouched below the cap
    # exact recovery once n >= max slope
    k10 = lipschitz_approx_k(k, 10)
    assert k10.breakpoints == k.breakpoints


def test_lipschitz_d_identity_fixed():
    d = CircleCDF.identity()
    assert lipschitz_approx_d(d, 5) is d


def test_lipschitz_d_ramps_flats_and_converges():
    flat_total = 0.3
    sups = []
    grid = np.linspace(0.0, 1.0, 10_001)
    for n in (2, 4, 8, 16, 32):
        dn = lipschitz_approx_d(STAIRCASE, n)
        assert dn(1.0) == 1.0
        assert _max_slope(dn) < math.inf
        assert min((dn._ys[i + 1] - dn._ys[i]) for i in range(len(dn._ys) - 1)) > 0.0
        sup = max(abs(dn(x) - STAIRCASE(x)) for x in grid)
        assert sup <= flat_total / n + 1e-12
        sups.append(sup)
    assert all(a >= b - 1e-3 for a, b in zip(sups, sups[1:]))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_structure_round_trip():
    vs = VirtualStructure(STAIRCASE, PotentialHomeo.scaling(1.5))
    s = serialize_structure(vs)
    vs2 = deserialize_structure(s)
    assert serialize_structure(vs2) == s
    assert vs2.d.breakpoints == vs.d.breakpoints
    assert vs2.k.breakpoints == vs.k.breakpoints


def test_structure_bytes_pinned():
    vs = VirtualStructure(STAIRCASE, PotentialHomeo.scaling(1.5))
    assert hashlib.sha256(serialize_structure(vs).encode()).hexdigest() == \
        "4557b7a2676e414982bc047b7e2aafc4b02c076787d1e2b93aaea87343309745"


def test_structure_rejects_malformed():
    with pytest.raises(SchemaError):
        deserialize_structure("{}")
    with pytest.raises(SchemaError):
        deserialize_structure({"schema": "greenray-structure/1",
                               "d": [[0.0, 0.0], [0.5, 0.2]],
                               "k": [[0.0, 0.0], [1.0, 1.0]]})


@pytest.mark.parametrize("x", [None, [1, 2, 3], [1, 0], "0.5", [10 ** 400, 1],
                               10 ** 400],
                         ids=["null", "long_rational", "zero_denominator",
                              "string", "huge_rational", "huge_int"])
@pytest.mark.parametrize("at", [0, 1])
def test_structure_rejects_malformed_number(x, at):
    d = [[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]]
    d[at][0] = x
    with pytest.raises(SchemaError):
        deserialize_structure({"schema": "greenray-structure/1", "d": d,
                               "k": [[0.0, 0.0], [1.0, 1.0]]})


# each of these documents was accepted when a boolean read as 0 or 1
@pytest.mark.parametrize("part, i, j, value", [
    ("d", 1, 0, [True, 2]), ("d", 2, 0, True), ("d", 2, 1, True),
    ("k", 0, 0, False), ("k", 1, 1, True),
], ids=["d_rational", "d_x", "d_y", "k_x", "k_y"])
def test_structure_rejects_booleans(part, i, j, value):
    doc = {"schema": "greenray-structure/1",
           "d": [[[0, 1], 0.0], [[1, 2], 0.5], [[1, 1], 1.0]],
           "k": [[0.0, 0.0], [1.0, 1.0]]}
    deserialize_structure(doc)
    doc[part][i][j] = value
    with pytest.raises(SchemaError, match="bad"):
        deserialize_structure(doc)
