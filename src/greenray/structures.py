"""Potential and virtual conformal structures, and combinatorial collapsing.

A structure is a pair (d, k): d a continuous non-decreasing degree-one
circle map (the CDF of a non-atomic probability measure mu_d; flat pieces
collapse angle intervals, jumps are forbidden), and k an increasing
homeomorphism of [0, inf) fixing 0.  Both are piecewise linear here, which
keeps interval measures exact and realizes the uniform-limit topology.

The weighted modulus of a non-root annulus A is

    mod_xi A = (|J0|/mu_d(J0)) * (|k(J1)|/|J1|) * mod A,

infinite exactly when mu_d kills the angle window J0(A).  Collapsing
deletes subtrees below infinite-mod_xi vertices, removes single-child
chains, sums the chain moduli and transports windows, accesses and angular
invariants through d and k.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from . import angles as ang
from .errors import (InvalidInput, NotAdmissible, OverlappingWindows, RootNode,
                     SchemaError)
from .tree import (AnalyticTree, ThinnessReport, TreeNode, _dec_float,
                   _enc_num, _number_decoder, angular_invariant,
                   root_invariant, thinness_report)

@dataclass(frozen=True)
class CircleCDF:
    """Continuous non-decreasing circle map, d(0) = 0, total increase 1.

    Breakpoints are (x, y) with x covering [0, 1]; evaluation between
    breakpoints is linear, and the lift extends by d(x + 1) = d(x) + 1.
    Flat runs are allowed (they collapse intervals); equal x values would be
    jumps (atoms) and are rejected.
    """

    breakpoints: tuple[tuple[Fraction | float, float], ...]
    _xs: tuple[float, ...] = field(default=(), repr=False, compare=False)
    _ys: tuple[float, ...] = field(default=(), repr=False, compare=False)

    def __post_init__(self):
        bps = tuple((x, float(y)) for x, y in self.breakpoints)
        if len(bps) < 2:
            raise InvalidInput("need at least the breakpoints (0,0) and (1,1)")
        xs = tuple(float(x) for x, _ in bps)
        ys = tuple(y for _, y in bps)
        if xs[0] != 0.0 or ys[0] != 0.0:
            raise InvalidInput("lift normalization requires d(0) = 0")
        if xs[-1] != 1.0 or ys[-1] != 1.0:
            raise InvalidInput("total increase must be 1 (non-atomic probability)")
        if any(xs[i] >= xs[i + 1] for i in range(len(xs) - 1)):
            raise InvalidInput("breakpoint abscissae must be strictly increasing "
                               "(jumps encode atoms and are forbidden)")
        if any(ys[i] > ys[i + 1] for i in range(len(ys) - 1)):
            raise InvalidInput("circle CDF must be non-decreasing")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "_xs", xs)
        object.__setattr__(self, "_ys", ys)

    @staticmethod
    def identity() -> "CircleCDF":
        return CircleCDF(((Fraction(0), 0.0), (Fraction(1), 1.0)))

    def __call__(self, x) -> float:
        xf = float(x)
        k = math.floor(xf)
        xf -= k
        i = bisect.bisect_right(self._xs, xf) - 1
        if i >= len(self._xs) - 1:
            i = len(self._xs) - 2
        x0, x1 = self._xs[i], self._xs[i + 1]
        y0, y1 = self._ys[i], self._ys[i + 1]
        if xf == x0:
            return y0 + k
        return y0 + (y1 - y0) * (xf - x0) / (x1 - x0) + k

    def flat_intervals(self) -> tuple[tuple[float, float], ...]:
        out = []
        for i in range(len(self._xs) - 1):
            if self._ys[i + 1] == self._ys[i]:
                out.append((self._xs[i], self._xs[i + 1]))
        return tuple(out)


def _as_float(x) -> float:
    """float(x) for a Fraction, float or int, by one division.

    The same correctly rounded value as float(x).  Before Python 3.12,
    float(Fraction) runs numbers.Rational.__float__, which reads both
    properties and calls int() on each: about three times the cost.
    """
    num, den = x.as_integer_ratio()
    return num / den


def measure_of(d: Callable[[float], float], windows: Sequence[tuple]) -> float:
    """mu_d mass of a disjoint interval family: sum of d(b) - d(a).

    The pieces are summed in their stored order.
    """
    return _mass(d, [(_as_float(lo), _as_float(hi)) for lo, hi in windows])


def _mass(d: Callable[[float], float],
          pieces: list[tuple[float, float]]) -> float:
    """:func:`measure_of` on pieces already converted to floats."""
    ordered = sorted(pieces)
    for (a0, b0), (a1, b1) in zip(ordered, ordered[1:]):
        if a1 < b0:
            raise OverlappingWindows(f"intervals ({a0},{b0}) and ({a1},{b1}) overlap")
    if ordered and ordered[0][0] < 0.0:
        raise InvalidInput("intervals must lie in [0, 1]")
    total = 0.0
    for lo, hi in pieces:
        total += d(hi) - d(lo)
    return total


@dataclass(frozen=True)
class PotentialHomeo:
    """Increasing piecewise-linear homeomorphism of [0, inf), k(0) = 0.

    Beyond the last breakpoint the map continues with its final slope.
    """

    breakpoints: tuple[tuple[float, float], ...]
    _xs: tuple[float, ...] = field(default=(), repr=False, compare=False)
    _ys: tuple[float, ...] = field(default=(), repr=False, compare=False)

    def __post_init__(self):
        bps = tuple((float(x), float(y)) for x, y in self.breakpoints)
        if len(bps) < 2:
            raise InvalidInput("need at least two breakpoints")
        xs = tuple(x for x, _ in bps)
        ys = tuple(y for _, y in bps)
        if not all(map(math.isfinite, xs + ys)):
            raise InvalidInput("k breakpoints must be finite")
        if xs[0] != 0.0 or ys[0] != 0.0:
            raise InvalidInput("k(0) = 0 is required")
        if any(xs[i] >= xs[i + 1] for i in range(len(xs) - 1)) or \
           any(ys[i] >= ys[i + 1] for i in range(len(ys) - 1)):
            raise InvalidInput("k must be strictly increasing")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "_xs", xs)
        object.__setattr__(self, "_ys", ys)

    @staticmethod
    def identity() -> "PotentialHomeo":
        return PotentialHomeo(((0.0, 0.0), (1.0, 1.0)))

    @staticmethod
    def scaling(lam: float) -> "PotentialHomeo":
        if not lam > 0:
            raise InvalidInput("scaling factor must be positive")
        return PotentialHomeo(((0.0, 0.0), (1.0, lam)))

    def __call__(self, y: float) -> float:
        y = float(y)
        if y < 0:
            raise InvalidInput("potential homeomorphisms act on [0, inf)")
        if y >= self._xs[-1]:
            x0, x1 = self._xs[-2], self._xs[-1]
            y0, y1 = self._ys[-2], self._ys[-1]
            return y1 + (y - x1) * (y1 - y0) / (x1 - x0)
        i = bisect.bisect_right(self._xs, y) - 1
        x0, x1 = self._xs[i], self._xs[i + 1]
        y0, y1 = self._ys[i], self._ys[i + 1]
        return y0 + (y1 - y0) * (y - x0) / (x1 - x0)

    def slopes(self) -> tuple[float, ...]:
        return tuple((self._ys[i + 1] - self._ys[i]) / (self._xs[i + 1] - self._xs[i])
                     for i in range(len(self._xs) - 1))

    @property
    def bilipschitz_constant(self) -> float:
        s = self.slopes()
        return max(max(s), 1.0 / min(s))


@dataclass(frozen=True)
class VirtualStructure:
    """A (d, k) pair; virtual when d has flats, potential when d is injective."""

    d: CircleCDF
    k: PotentialHomeo

    @staticmethod
    def identity() -> "VirtualStructure":
        return VirtualStructure(CircleCDF.identity(), PotentialHomeo.identity())


# ---------------------------------------------------------------------------
# Weighted modulus
# ---------------------------------------------------------------------------

def mod_xi(node: TreeNode, vs: VirtualStructure) -> float:
    """Modulus of the annulus with respect to the structure.

    Infinite exactly when mu_d annihilates the angle window, equivalently
    when d glues the two outer access angles.
    """
    if node.is_root:
        raise RootNode("the root has infinite modulus for every structure")
    return _weighted_modulus(node, measure_of(vs.d, node.windows), vs.k)


def _weighted_modulus(node: TreeNode, mu: float, k: PotentialHomeo) -> float:
    """mod_xi of a non-root node whose window has mu_d mass `mu`."""
    if mu == 0.0:
        return math.inf
    j1 = node.g_plus - node.g_minus
    kj1 = k(node.g_plus) - k(node.g_minus)
    return (node.harmonic_measure / mu) * (kj1 / j1) * node.modulus


# ---------------------------------------------------------------------------
# Admissibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissibilityReport:
    verdict: str                                   # 'admissible_certified' | 'inconclusive'
    offending_branches: tuple[tuple[int, ...], ...]
    deleted_subtree_roots: tuple[int, ...]
    min_surviving_mod_xi: float
    thinness: ThinnessReport

    def require_certified(self) -> None:
        """Raise NotAdmissible unless the verdict is admissible_certified."""
        if self.verdict != "admissible_certified":
            raise NotAdmissible(
                "structure not certified admissible at "
                f"m0={self.thinness.threshold}: "
                f"{len(self.offending_branches)} offending branches; "
                f"thinness {self.thinness.verdict}")


def admissible(tree: AnalyticTree, vs: VirtualStructure,
               m0: float) -> AdmissibilityReport:
    """Finite-depth admissibility certificate.

    A branch through a mu_d-deleted vertex has an infinite term in its
    mod_xi sum, so only fully surviving branches matter: the certificate
    requires every surviving non-root vertex to satisfy mod_xi >= m0 (the
    bounded-below divergence proxy), the underlying tree to be thin at the
    same threshold, and every depth to retain a finite-mod_xi vertex.
    """
    thin = thinness_report(tree, m0)
    deleted: list[int] = []
    offenders: list[tuple[int, ...]] = []
    min_mx = math.inf
    depth_has_finite: dict[int, bool] = {}

    def visit(nid: int, path: tuple[int, ...]) -> None:
        node = tree.nodes[nid]
        path = path + (nid,)
        if not node.is_root:
            mx = mod_xi(node, vs)
            if math.isinf(mx):
                deleted.append(nid)
                return
            nonlocal min_mx
            min_mx = min(min_mx, mx)
            depth_has_finite[node.depth] = True
            if mx < m0:
                offenders.append(path)
        for cid in node.children:
            visit(cid, path)

    visit(tree.root_id, ())
    # a depth down to the truncation may hold no node, or deleted ones
    all_depths_ok = all(depth_has_finite.get(d, False)
                        for d in range(1, tree.truncation_depth + 1))
    ok = thin.verdict == "thin_certified" and not offenders and all_depths_ok
    return AdmissibilityReport(
        verdict="admissible_certified" if ok else "inconclusive",
        offending_branches=tuple(offenders),
        deleted_subtree_roots=tuple(deleted),
        min_surviving_mod_xi=min_mx,
        thinness=thin)


# ---------------------------------------------------------------------------
# Combinatorial collapsing
# ---------------------------------------------------------------------------

class _NodeImage(NamedTuple):
    """A node's window and accesses as floats, d at them, and the mu_d mass."""

    pieces: list[tuple[float, float]]         # the window, in stored order
    outer: tuple[float, float] | None
    inner: tuple[float, float] | None
    d: dict[float, float]
    mass: float


def _float_pair(pair) -> tuple[float, float] | None:
    return None if pair is None else (_as_float(pair[0]), _as_float(pair[1]))


def _d_image(d: CircleCDF, node: TreeNode) -> _NodeImage:
    """The node's endpoints as floats, d at each of them, and its mu_d mass.

    The one place collapse converts a node's endpoints and evaluates d,
    once per annulus; everything after reads the floats.
    """
    pieces = [(_as_float(lo), _as_float(hi)) for lo, hi in node.windows]
    outer = _float_pair(node.outer_accesses)
    inner = _float_pair(node.inner_accesses)
    points = {x for piece in pieces for x in piece}
    points.update(outer or ())
    points.update(inner or ())
    image = {x: d(x) for x in points}
    return _NodeImage(pieces, outer, inner, image,
                      _mass(image.__getitem__, pieces))


def _chain_positions(chain: list[_NodeImage]) -> tuple[float, float]:
    """Normalized mu_d positions of the bottom inner accesses in the top window.

    Positions are measured from the seam of the top annulus, by
    :func:`angles.cylinder_positions` with d read from the float views.  A
    chain of two or more annuli also checks that the per-level summation
    of link offsets telescopes to the same positions (to 1e-12), the two
    classical expressions for the merged invariant; for one annulus the two
    are the same sum.
    """
    top, bot = chain[0], chain[-1]
    # the bottom's accesses are in the top window but not in its d-table
    image = top.d if len(chain) == 1 else {**top.d, **bot.d}
    direct = ang.cylinder_positions(top.pieces, top.outer, bot.inner,
                                    image.__getitem__)
    if len(chain) > 1:
        # summation form: per link, the mu_d offset of the entering access
        # of the next annulus inside the current one; the last link
        # contributes the access offsets themselves
        acc = 0.0
        for cur, nxt in zip(chain, chain[1:]):
            link = ang.entering_access(nxt.pieces, cur.inner)
            acc += ang.cylinder_positions(cur.pieces, cur.outer, (link,),
                                          cur.d.__getitem__)[0]
        summed = [acc + p for p in ang.cylinder_positions(
            bot.pieces, bot.outer, bot.inner, bot.d.__getitem__)]
        for sd, sm in zip(direct, summed):
            if ang.circ_dist(sd / top.mass, sm / top.mass) > 1e-12:
                raise AssertionError(
                    "telescoped and summed angular invariants disagree: "
                    f"{sd / top.mass} vs {sm / top.mass}")
    return direct[0] / top.mass, direct[1] / top.mass


def collapse(tree: AnalyticTree, vs: VirtualStructure,
             m0: float | None = None) -> AnalyticTree:
    """Collapsed analytic tree of the structure (d, k).

    Deletes every subtree rooted at an infinite-mod_xi vertex, merges the
    resulting single-child chains (modulus = chain sum of mod_xi, potential
    window through k, angle data through d), and returns a binary tree.
    When m0 is given the structure is first certified admissible at that
    threshold; otherwise the caller vouches for admissibility.

    Each annulus is mapped through d once, by :func:`_d_image`, and its
    float view is handed down the recursion.
    """
    d, k = vs.d, vs.k
    if m0 is not None:
        admissible(tree, vs, m0).require_certified()

    def alive_children(node: TreeNode) -> list[tuple[TreeNode, _NodeImage]]:
        kids = [tree.nodes[c] for c in node.children]
        views = [(kid, _d_image(d, kid)) for kid in kids]
        alive = [(kid, view) for kid, view in views if view.mass > 0.0]
        if kids and not alive and not node.is_root:
            raise AssertionError(
                "both children deleted under a surviving vertex")
        return alive

    new_nodes: dict[int, TreeNode] = {}
    next_id = [0]

    def build(top: TreeNode, view: _NodeImage, new_depth: int) -> int:
        chain = [(top, view)]
        alive = alive_children(top)
        while len(alive) == 1:
            chain.append(alive[0])
            alive = alive_children(alive[0][0])
        bot, bot_view = chain[-1]

        mu = view.mass
        image = view.d
        new_windows = ang.normalize_window(
            [(image[lo], image[hi]) for lo, hi in view.pieces])
        if top.is_root:
            g_plus = math.inf
            modulus = math.inf
        else:
            g_plus = k(top.g_plus)
            modulus = 0.0
            for a, a_view in chain:
                modulus += _weighted_modulus(a, a_view.mass, k)
        g_minus = k(bot.g_minus)

        outer = None if top.is_root else tuple(image[x] for x in view.outer)
        inner = None if bot_view.inner is None else \
            tuple(bot_view.d[x] for x in bot_view.inner)

        if inner is None:
            invariant = (0.0, 0.0)
        elif top.is_root:
            invariant = root_invariant(inner)
        else:
            invariant = angular_invariant(_chain_positions(
                [a_view for _, a_view in chain]))

        nid = next_id[0]
        next_id[0] += 1
        kid_ids = [build(kid, kid_view, new_depth + 1)
                   for kid, kid_view in alive]
        new_nodes[nid] = TreeNode(
            id=nid, depth=new_depth,
            g_minus=g_minus, g_plus=g_plus,
            windows=new_windows,
            harmonic_measure=mu,
            modulus=modulus,
            angular_invariant=invariant,
            outer_accesses=outer,
            inner_accesses=inner,
            children=tuple(kid_ids),
            is_end=bot.is_end)
        return nid

    # ids are assigned pre-order; re-root at the first assigned id
    root = tree.nodes[tree.root_id]
    root_new = build(root, _d_image(d, root), 0)
    depth_max = max(n.depth for n in new_nodes.values())
    source = {"kind": "collapsed", "base": dict(tree.source)}
    return AnalyticTree(nodes=new_nodes, root_id=root_new, source=source,
                        truncation_depth=depth_max,
                        critical_potential=new_nodes[root_new].g_minus)


# ---------------------------------------------------------------------------
# Lipschitz approximations (slope capping / flat ramping)
# ---------------------------------------------------------------------------

def lipschitz_approx_k(k: PotentialHomeo, n: int) -> PotentialHomeo:
    """Slope-capped approximation: the derivative is replaced by min(n, k').

    Exactly recovers k once n reaches its maximal slope; converges uniformly
    on potential ranges covered by the breakpoints as n grows.
    """
    if n < 1:
        raise InvalidInput("n must be >= 1")
    xs, ys = k._xs, k._ys
    out = [(0.0, 0.0)]
    acc = 0.0
    for i in range(len(xs) - 1):
        dx = xs[i + 1] - xs[i]
        slope = (ys[i + 1] - ys[i]) / dx
        acc += min(float(n), slope) * dx
        out.append((xs[i + 1], acc))
    return PotentialHomeo(tuple(out))


def lipschitz_approx_d(d: CircleCDF, n: int) -> CircleCDF:
    """Homeomorphic approximation of a map correspondence.

    Flat pieces become slope-1/n ramps; rising pieces are scaled by
    (1 - F/n), F the total flat length, so the total increase stays 1.
    sup |d_n - d| <= F/n, so d_n converges uniformly to d.
    """
    if n < 1:
        raise InvalidInput("n must be >= 1")
    flat_total = sum(hi - lo for lo, hi in d.flat_intervals())
    if flat_total == 0.0:
        return d
    scale = 1.0 - flat_total / n
    bps = list(d.breakpoints)
    out = [(bps[0][0], 0.0)]
    acc = 0.0
    for i in range(len(bps) - 1):
        x0, y0 = bps[i]
        x1, y1 = bps[i + 1]
        if y1 == y0:
            acc += (float(x1) - float(x0)) / n
        else:
            acc += (y1 - y0) * scale
        out.append((x1, acc))
    out[-1] = (out[-1][0], 1.0)
    return CircleCDF(tuple(out))


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

_SCHEMA = "greenray-structure/1"


def structure_to_dict(vs: VirtualStructure) -> dict:
    return {
        "schema": _SCHEMA,
        "d": [[_enc_num(x), y] for x, y in vs.d.breakpoints],
        "k": [[x, y] for x, y in vs.k.breakpoints],
    }


def serialize_structure(vs: VirtualStructure) -> str:
    return json.dumps(structure_to_dict(vs), sort_keys=True, separators=(",", ":"))


def deserialize_structure(data: str | dict) -> VirtualStructure:
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict) or data.get("schema") != _SCHEMA:
        raise SchemaError("not a greenray structure document")
    dec = _number_decoder()
    try:
        d = CircleCDF(tuple((dec(x, "d"), _dec_float(y, "d"))
                            for x, y in data["d"]))
        k = PotentialHomeo(tuple((_dec_float(x, "k"), _dec_float(y, "k"))
                                 for x, y in data["k"]))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"malformed structure document: {exc}") from None
    return VirtualStructure(d, k)
