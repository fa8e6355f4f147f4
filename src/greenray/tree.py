"""Analytic trees of annuli.

The complement of a Cantor quadratic Julia set decomposes, between
consecutive critical equipotentials, into a binary tree of annuli.  Each
node carries the conformal data that determines the complement up to
biholomorphism: the modulus

    mod A = (1/2pi) * (g_plus - g_minus) / mu_H(A),

where mu_H is the harmonic measure (total length of the angle window of
rays crossing A), and the angular invariant: the pair of normalized
cylinder positions of the two accesses to the critical point on the inner
boundary, measured counterclockwise from the glued seam of the outer
critical point.  Ends carry the invariant {0, 0}.

Trees are immutable after construction.  Quadratic trees store exact
rational windows; collapsed trees (see `structures.py`) carry measured
float windows through the same node type.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from . import angles as ang
from .errors import (Connected, InvalidInput, RootHasInfiniteModulus,
                     SchemaError)
from .potential import GreenSystem, critical_potential

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class TreeNode:
    id: int
    depth: int
    g_minus: float
    g_plus: float                      # math.inf for the root
    windows: ang.Window
    harmonic_measure: float
    modulus: float                     # math.inf for the root
    angular_invariant: tuple[float, float]
    outer_accesses: tuple | None       # access pair bounding the window
    inner_accesses: tuple | None       # access pair splitting it (None for ends)
    children: tuple[int, ...] = ()
    is_end: bool = False

    @property
    def is_root(self) -> bool:
        return math.isinf(self.g_plus)


@dataclass(frozen=True)
class AnalyticTree:
    nodes: Mapping[int, TreeNode]
    root_id: int
    source: Mapping[str, object]
    truncation_depth: int
    critical_potential: float | None = None
    _by_depth: Mapping[int, list[TreeNode]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        by_depth: dict[int, list[TreeNode]] = {}
        for nid in sorted(self.nodes):
            node = self.nodes[nid]
            by_depth.setdefault(node.depth, []).append(node)
        object.__setattr__(self, "_by_depth", by_depth)

    @property
    def root(self) -> TreeNode:
        return self.nodes[self.root_id]

    def level(self, depth: int) -> list[TreeNode]:
        """The nodes at `depth`, by id."""
        return list(self._by_depth.get(depth, ()))


def node_modulus(node: TreeNode) -> float:
    """Evaluate mod A = (1/2pi)(g_plus - g_minus)/mu_H for a non-root node."""
    if node.is_root:
        raise RootHasInfiniteModulus("the root annulus has infinite modulus")
    return (node.g_plus - node.g_minus) / (TWO_PI * node.harmonic_measure)


def angular_invariant(positions: Iterable[float]) -> tuple[float, float]:
    """Cylinder-model angular invariant of a non-root annulus.

    The flat metric of the cylindrical model is extremal for every annulus
    of an analytic tree, so `positions` are the harmonic-measure offsets of
    the two inner accesses from the seam (the glued outer access pair),
    normalized by the total measure; the invariant components are
    (seam - access) mod 1, the first access being the first one met
    counterclockwise from the seam.  Ends carry (0, 0).
    """
    pmin, pmax = sorted(positions)
    return ((-pmin) % 1.0, (-pmax) % 1.0)


def root_invariant(inner_pair) -> tuple[float, float]:
    """Angular invariant of the root: only the access separation matters."""
    delta = (float(inner_pair[0]) - float(inner_pair[1])) % 1.0
    delta = min(delta, (1.0 - delta) % 1.0)
    return (delta, (1.0 - delta) % 1.0)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def _tree_from_levels(grid: int, levels: list[list[ang.GridNode]],
                      g_levels: Sequence[float],
                      source: Mapping[str, object],
                      g0: float | None,
                      ends: frozenset[tuple[int, ...]] = frozenset()) -> AnalyticTree:
    """Tree of the grid window levels of :func:`angles._grid_levels`.

    Measures and positions are taken on the grid as (C/Q)/(M/Q), the
    rounding of the Fraction arithmetic they replace; Fractions are made
    only for the stored windows and accesses.
    """
    depth = len(levels) - 1
    view = ang._fraction_view(grid)
    lebesgue = lambda t: t              # the identity, in grid units
    ids: dict[tuple[int, ...], int] = {}
    nid = 0
    for layer in levels:
        for address, *_ in layer:
            ids[address] = nid
            nid += 1

    # drop descendants of declared ends
    def alive(addr: tuple[int, ...]) -> bool:
        return not any(addr[:k] in ends for k in range(1, len(addr)))

    nodes: dict[int, TreeNode] = {}
    for n, layer in enumerate(levels):
        for node in layer:
            address, window, outer, inner = node
            if ends and not alive(address):
                continue
            is_end = address in ends
            measure = sum(hi - lo for lo, hi in window) / grid
            if n == 0:
                g_minus, g_plus = g_levels[0], math.inf
                modulus = math.inf
            else:
                g_minus, g_plus = g_levels[n], g_levels[n - 1]
                modulus = (g_plus - g_minus) / (TWO_PI * measure)
            children: tuple[int, ...] = ()
            if n < depth and not is_end:
                children = tuple(ids[address + (b,)] for b in (0, 1))
            wn = view(node)
            if is_end:
                invariant = (0.0, 0.0)
            elif n == 0:
                invariant = root_invariant(wn.inner_pair)
            else:
                invariant = angular_invariant(
                    p / grid / measure for p in
                    ang.cylinder_positions(window, outer, inner, lebesgue))
            nodes[ids[address]] = TreeNode(
                id=ids[address], depth=n,
                g_minus=float(g_minus), g_plus=float(g_plus),
                windows=wn.window,
                harmonic_measure=measure,
                modulus=modulus,
                angular_invariant=invariant,
                outer_accesses=wn.outer_pair,
                inner_accesses=None if is_end else wn.inner_pair,
                children=children,
                is_end=is_end)
    return AnalyticTree(nodes=nodes, root_id=0, source=dict(source),
                        truncation_depth=depth, critical_potential=g0)


def build_quadratic_tree(sys: GreenSystem, depth: int) -> AnalyticTree:
    """Analytic tree of a Cantor quadratic Julia set, truncated at `depth`.

    Level-n annuli live between the critical equipotentials G(0)/2^(n-1)
    and G(0)/2^n; angle windows come from the binary access combinatorics
    of the critical value angle.
    """
    if not sys.is_cantor:
        raise Connected("analytic trees are built for Cantor parameters")
    if depth < 1:
        raise InvalidInput("depth must be >= 1")
    g0 = critical_potential(sys)
    grid, levels = ang._grid_levels(sys.critical_value_angle, depth)
    g_levels = [g0 * 0.5 ** n for n in range(depth + 1)]
    source = {"kind": "quadratic", "c_re": sys.c.real, "c_im": sys.c.imag}
    return _tree_from_levels(grid, levels, g_levels, source, g0)


def abstract_binary_tree(g_levels: Sequence[float],
                         ends: Iterable[tuple[int, ...]] = (),
                         theta_c: Fraction = Fraction(1, 2)) -> AnalyticTree:
    """Hand-built binary analytic tree with prescribed potential levels.

    g_levels[n] is the potential of the level-n critical equipotential
    (strictly decreasing, positive); windows follow the standard dyadic
    combinatorics of theta_c.  Addresses listed in `ends` become childless
    end vertices (their subtrees are dropped).
    """
    if len(g_levels) < 2:
        raise InvalidInput("need at least two potential levels")
    if any(g_levels[i] <= g_levels[i + 1] for i in range(len(g_levels) - 1)):
        raise InvalidInput("potential levels must be strictly decreasing")
    if g_levels[-1] <= 0:
        raise InvalidInput("potential levels must be positive")
    depth = len(g_levels) - 1
    grid, levels = ang._grid_levels(theta_c, depth)
    return _tree_from_levels(grid, levels, list(map(float, g_levels)),
                             {"kind": "abstract"}, None,
                             ends=frozenset(tuple(e) for e in ends))


# ---------------------------------------------------------------------------
# Thinness (O_AD modular test, bounded-below variant)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThinnessReport:
    verdict: str                        # 'thin_certified' | 'inconclusive'
    per_depth_min_modulus: tuple[float, ...]
    threshold: float
    reasons: tuple[str, ...] = ()


def thinness_report(tree: AnalyticTree, m0: float) -> ThinnessReport:
    """Modular thinness test at finite truncation depth.

    Certifies the tree thin when it is binary at every truncated level (the
    finite-depth proxy for having only infinite branches) and every
    non-root modulus is >= m0 > 0, so the modulus sums diverge along all
    branches.  Anything else is reported inconclusive, never refuted.
    """
    if tree.truncation_depth < 2:
        raise InvalidInput("thinness needs at least two levels")
    if not m0 > 0:
        raise InvalidInput("threshold m0 must be positive")
    reasons: list[str] = []
    minima: dict[int, float] = {}
    for node in tree.nodes.values():
        if node.is_root:
            if len(node.children) not in (1, 2):
                reasons.append("root has no children")
            continue
        minima[node.depth] = min(minima.get(node.depth, math.inf), node.modulus)
        if node.is_end:
            reasons.append(f"node {node.id} is a finite end")
        elif not node.children and node.depth < tree.truncation_depth:
            reasons.append(f"node {node.id} is childless above truncation depth")
    per_depth = tuple(minima[d] for d in sorted(minima))
    if any(m < m0 for m in per_depth):
        reasons.append("modulus below threshold")
    verdict = "thin_certified" if not reasons else "inconclusive"
    return ThinnessReport(verdict, per_depth, m0, tuple(reasons))


# ---------------------------------------------------------------------------
# Canonical JSON serialization
# ---------------------------------------------------------------------------

_SCHEMA = "greenray-tree/1"


def _enc_num(x) -> object:
    """JSON number codec of the tree and structure schemas.

    A Fraction is [numerator, denominator] and inf is null.
    """
    if isinstance(x, Fraction):
        return [x.numerator, x.denominator]
    x = float(x)
    if math.isinf(x):
        return None
    return x


def _number_decoder() -> Callable[[object, str], object]:
    """Decoder of the JSON number codec for one document.

    [n, d] with int entries and d != 0 is a Fraction, null is inf and a
    plain number is a float.  Equal [n, d] pairs decode to one shared
    Fraction, as :func:`angles._fraction_view` shares equal endpoints.
    """
    made: dict[tuple[int, int], Fraction] = {}

    def dec(v, what: str):
        if isinstance(v, list):
            if len(v) != 2:
                raise SchemaError(f"bad rational in {what}")
            num, den = v
            # exactly int: a boolean is not a number
            if type(num) is not int or type(den) is not int or den == 0:
                raise SchemaError(f"bad rational in {what}")
            f = made.get((num, den))
            if f is None:
                f = made[num, den] = Fraction(num, den)
            return f
        if v is None:
            return math.inf
        return _dec_float(v, what)
    return dec


def _dec_float(v, what: str) -> float:
    """A plain JSON number as a float; a boolean is not a number."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(f"bad number in {what}")
    return float(v)


def _dec_int(v, what: str) -> int:
    """A JSON integer; a boolean is not one."""
    if type(v) is not int:
        raise SchemaError(f"bad integer in {what}")
    return v


def _enc_pair(p) -> object:
    return None if p is None else [_enc_num(p[0]), _enc_num(p[1])]


def _dec_accesses(dec, v, what: str):
    """An access pair, or None; each access is an angle in [0, 1]."""
    if v is None:
        return None
    if not isinstance(v, list) or len(v) != 2:
        raise SchemaError(f"bad pair in {what}")
    pair = (dec(v[0], what), dec(v[1], what))
    if not (_in_unit(pair[0]) and _in_unit(pair[1])):
        raise SchemaError(f"bad access angle in {what}: not in [0, 1]")
    return pair


def _in_unit(a) -> bool:
    """0 <= a <= 1 for a decoded number: a Fraction, inf or a float."""
    if type(a) is Fraction:
        # decoded Fractions are in lowest terms with a positive denominator
        return 0 <= a.numerator <= a.denominator
    return 0.0 <= a <= 1.0


def tree_to_dict(tree: AnalyticTree) -> dict:
    nodes = []
    for nid in sorted(tree.nodes):
        n = tree.nodes[nid]
        nodes.append({
            "id": n.id,
            "depth": n.depth,
            "g_minus": n.g_minus,
            "g_plus": _enc_num(n.g_plus),
            "windows": [[_enc_num(lo), _enc_num(hi)] for lo, hi in n.windows],
            "harmonic_measure": n.harmonic_measure,
            "modulus": _enc_num(n.modulus),
            "angular_invariant": [n.angular_invariant[0], n.angular_invariant[1]],
            "outer_accesses": _enc_pair(n.outer_accesses),
            "inner_accesses": _enc_pair(n.inner_accesses),
            "children": list(n.children),
            "is_end": n.is_end,
        })
    return {
        "schema": _SCHEMA,
        "source": dict(tree.source),
        "critical_potential": tree.critical_potential,
        "truncation_depth": tree.truncation_depth,
        "root": tree.root_id,
        "nodes": nodes,
    }


def serialize_tree(tree: AnalyticTree) -> str:
    return json.dumps(tree_to_dict(tree), sort_keys=True, separators=(",", ":"))


def _window_mass(window: ang.Window) -> float:
    """float(angles.window_measure(window)), exactly in integers.

    Rational endpoints go on one common denominator and the integer sum is
    divided once, the correctly rounded float of the exact measure, as
    float(Fraction) gives.  A window with a float endpoint (a collapsed
    tree) keeps the float sum.
    """
    if any(isinstance(x, float) for piece in window for x in piece):
        return float(ang.window_measure(window))
    ends = [x.as_integer_ratio() for piece in window for x in piece]
    den = math.lcm(*(d for _, d in ends))
    num = sum(n * (den // d) for n, d in ends[1::2]) - \
        sum(n * (den // d) for n, d in ends[::2])
    return num / den


def _validate_tree(tree: AnalyticTree) -> None:
    root = tree.nodes.get(tree.root_id)
    if root is None or not root.is_root:
        raise SchemaError("missing or non-root root node")
    # a flat of d can squeeze the piece at a collapsed annulus's seam to a
    # point, so only combinatorial windows must show their seam
    seamed = tree.source.get("kind") != "collapsed"
    for n in tree.nodes.values():
        if len(n.children) == 1:
            raise SchemaError(f"node {n.id} has exactly one child; "
                              "analytic trees are binary")
        if not n.is_root:
            if not (0.0 <= n.g_minus < n.g_plus):
                raise SchemaError(f"node {n.id} has g_minus >= g_plus")
            want = (n.g_plus - n.g_minus) / (TWO_PI * n.harmonic_measure)
            if not math.isclose(n.modulus, want, rel_tol=1e-12, abs_tol=1e-300):
                raise SchemaError(f"node {n.id} modulus violates the "
                                  "cylinder formula")
        mu = _window_mass(n.windows)
        if not math.isclose(mu, n.harmonic_measure, rel_tol=1e-12, abs_tol=1e-15):
            raise SchemaError(f"node {n.id} harmonic measure does not match "
                              "its windows")
        if seamed and not n.is_root and n.outer_accesses is not None:
            try:
                ang.entering_access(n.windows, n.outer_accesses)
            except InvalidInput:
                raise SchemaError(f"node {n.id} outer accesses are not the "
                                  "seam of its window") from None
        if n.is_end and tuple(n.angular_invariant) != (0.0, 0.0):
            raise SchemaError(f"end node {n.id} must carry invariant (0,0)")
        kid_mu = 0.0
        for cid in n.children:
            child = tree.nodes.get(cid)
            if child is None:
                raise SchemaError(f"node {n.id} references missing child {cid}")
            if child.depth != n.depth + 1:
                raise SchemaError("child depth mismatch")
            if not n.is_root and not math.isclose(
                    child.g_plus, n.g_minus, rel_tol=1e-12, abs_tol=1e-300):
                raise SchemaError("children must hang at the parent's "
                                  "inner potential")
            if child.outer_accesses != n.inner_accesses:
                raise SchemaError(f"node {cid} outer accesses are not the "
                                  f"inner accesses of its parent {n.id}")
            kid_mu += child.harmonic_measure
        if n.children and not math.isclose(kid_mu, n.harmonic_measure,
                                           rel_tol=1e-9, abs_tol=1e-12):
            raise SchemaError(f"children of node {n.id} do not partition "
                              "its harmonic measure")


def deserialize_tree(data: str | dict) -> AnalyticTree:
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict) or data.get("schema") != _SCHEMA:
        raise SchemaError("not a greenray tree document")
    dec = _number_decoder()
    try:
        nodes: dict[int, TreeNode] = {}
        for rec in data["nodes"]:
            windows = tuple((dec(lo, "window"), dec(hi, "window"))
                            for lo, hi in rec["windows"])
            invariant = rec["angular_invariant"]
            node = TreeNode(
                id=_dec_int(rec["id"], "id"),
                depth=_dec_int(rec["depth"], "depth"),
                g_minus=_dec_float(rec["g_minus"], "g_minus"),
                g_plus=dec(rec["g_plus"], "g_plus"),
                windows=windows,
                harmonic_measure=_dec_float(rec["harmonic_measure"],
                                            "harmonic_measure"),
                modulus=dec(rec["modulus"], "modulus"),
                angular_invariant=(_dec_float(invariant[0], "invariant"),
                                   _dec_float(invariant[1], "invariant")),
                outer_accesses=_dec_accesses(dec, rec["outer_accesses"],
                                              "outer"),
                inner_accesses=_dec_accesses(dec, rec["inner_accesses"],
                                              "inner"),
                children=tuple(_dec_int(c, "children")
                               for c in rec["children"]),
                is_end=bool(rec["is_end"]))
            if node.id in nodes:
                raise SchemaError(f"duplicate node id {node.id}")
            nodes[node.id] = node
        potential = data["critical_potential"]
        tree = AnalyticTree(
            nodes=nodes, root_id=_dec_int(data["root"], "root"),
            source=dict(data["source"]),
            truncation_depth=_dec_int(data["truncation_depth"],
                                      "truncation_depth"),
            critical_potential=(None if potential is None else
                                _dec_float(potential, "critical_potential")))
        _validate_tree(tree)
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise SchemaError(f"malformed tree document: {exc}") from None
    return tree
