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
from typing import Sequence

from . import angles as ang
from .errors import (InvalidInput, NotAdmissible, OverlappingWindows, RootNode,
                     SchemaError)
from .tree import (AnalyticTree, ThinnessReport, TreeNode, angular_invariant,
                   thinness_report)

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

    @property
    def max_slope(self) -> float:
        return max((self._ys[i + 1] - self._ys[i]) / (self._xs[i + 1] - self._xs[i])
                   for i in range(len(self._xs) - 1))

    @property
    def is_identity(self) -> bool:
        return all(self(x) == float(x) for x, _ in self.breakpoints) and \
            all(y == float(x) for x, y in self.breakpoints)


def measure_of(d: CircleCDF, windows: Sequence[tuple]) -> float:
    """mu_d mass of a disjoint interval family: sum of d(b) - d(a)."""
    pieces = sorted((float(lo), float(hi)) for lo, hi in windows)
    for (a0, b0), (a1, b1) in zip(pieces, pieces[1:]):
        if a1 < b0:
            raise OverlappingWindows(f"intervals ({a0},{b0}) and ({a1},{b1}) overlap")
    if pieces and pieces[0][0] < 0.0:
        raise InvalidInput("intervals must lie in [0, 1]")
    total = 0.0
    for lo, hi in windows:
        total += d(float(hi)) - d(float(lo))
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
    mu = measure_of(vs.d, node.windows)
    if mu == 0.0:
        return math.inf
    j1 = node.g_plus - node.g_minus
    kj1 = vs.k(node.g_plus) - vs.k(node.g_minus)
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
    all_depths_ok = all(depth_has_finite.get(d, False)
                        for d in range(1, tree.truncation_depth + 1))
    if not all_depths_ok:
        # additivity of mu_d makes this impossible; an assertion-grade guard
        raise AssertionError("every vertex at some depth has infinite mod_xi")
    ok = thin.verdict == "thin_certified" and not offenders
    return AdmissibilityReport(
        verdict="admissible_certified" if ok else "inconclusive",
        offending_branches=tuple(offenders),
        deleted_subtree_roots=tuple(deleted),
        min_surviving_mod_xi=min_mx,
        thinness=thin)


# ---------------------------------------------------------------------------
# Combinatorial collapsing
# ---------------------------------------------------------------------------

def _d_image_window(d: CircleCDF, windows: ang.Window) -> ang.Window:
    pieces = []
    for lo, hi in windows:
        a, b = d(float(lo)), d(float(hi))
        if b > a:
            pieces.append((a, b))
    return ang.normalize_window(pieces)


def _chain_positions(chain: list[TreeNode], d: CircleCDF) -> tuple[float, float, float]:
    """Normalized mu_d positions of the bottom inner accesses in the top window.

    Returns (p_first, p_second, total) where positions are measured from the
    entering outer access of the top annulus; also checks that the per-level
    summation of link offsets telescopes to the same positions (to 1e-12),
    the two classical expressions for the merged invariant.
    """
    top, bot = chain[0], chain[-1]
    origin = ang.entering_access(top.windows, top.outer_accesses)
    total = measure_of(d, top.windows)
    b1, b2 = bot.inner_accesses
    direct = [ang.cumulative_position_d(top.windows, origin, b, d) for b in (b1, b2)]

    # summation form: per link, the mu_d offset of the entering access of the
    # next annulus inside the current one; the last link contributes the
    # access offsets themselves
    acc = 0.0
    for cur, nxt in zip(chain, chain[1:]):
        link = ang.entering_access(nxt.windows, cur.inner_accesses)
        acc += ang.cumulative_position_d(cur.windows, ang.entering_access(
            cur.windows, cur.outer_accesses), link, d)
    summed = []
    last_origin = ang.entering_access(bot.windows, bot.outer_accesses)
    for b in (b1, b2):
        s = acc + ang.cumulative_position_d(bot.windows, last_origin, b, d)
        summed.append(s)
    for sd, sm in zip(direct, summed):
        delta = abs((sd - sm) / total % 1.0)
        delta = min(delta, 1.0 - delta)
        if delta > 1e-12:
            raise AssertionError(
                "telescoped and summed angular invariants disagree: "
                f"{sd / total} vs {sm / total}")
    return direct[0], direct[1], total


def collapse(tree: AnalyticTree, vs: VirtualStructure,
             m0: float | None = None) -> AnalyticTree:
    """Collapsed analytic tree of the structure (d, k).

    Deletes every subtree rooted at an infinite-mod_xi vertex, merges the
    resulting single-child chains (modulus = chain sum of mod_xi, potential
    window through k, angle data through d), and returns a binary tree.
    When m0 is given the structure is first certified admissible at that
    threshold; otherwise the caller vouches for admissibility.
    """
    d, k = vs.d, vs.k
    if m0 is not None:
        rep = admissible(tree, vs, m0)
        if rep.verdict != "admissible_certified":
            raise NotAdmissible(
                f"structure not certified admissible at m0={m0}: "
                f"{len(rep.offending_branches)} offending branches; "
                f"thinness {rep.thinness.verdict}")

    def survives(node: TreeNode) -> bool:
        return node.is_root or measure_of(d, node.windows) > 0.0

    new_nodes: dict[int, TreeNode] = {}
    next_id = [0]

    def build(old_id: int, new_depth: int) -> int:
        chain = [tree.nodes[old_id]]
        while True:
            kids = [tree.nodes[c] for c in chain[-1].children]
            alive = [kid for kid in kids if survives(kid)]
            if kids and not alive and not chain[-1].is_root:
                raise AssertionError(
                    "both children deleted under a surviving vertex")
            if len(alive) == 1:
                chain.append(alive[0])
                continue
            break
        top, bot = chain[0], chain[-1]

        new_windows = _d_image_window(d, top.windows)
        mu = measure_of(d, top.windows)
        if top.is_root:
            g_plus = math.inf
            modulus = math.inf
        else:
            g_plus = k(top.g_plus)
            modulus = 0.0
            for a in chain:
                modulus += mod_xi(a, vs)
        g_minus = k(bot.g_minus)

        outer = None if top.is_root else tuple(d(float(x)) for x in top.outer_accesses)
        inner = None if bot.inner_accesses is None else \
            tuple(d(float(x)) for x in bot.inner_accesses)

        if inner is None:
            invariant = (0.0, 0.0)
        elif top.is_root:
            invariant = angular_invariant(new_windows, None, inner)
        else:
            p1, p2, total = _chain_positions(chain, d)
            q1, q2 = sorted((p1 / total, p2 / total))
            invariant = ((-q1) % 1.0, (-q2) % 1.0)

        nid = next_id[0]
        next_id[0] += 1
        kid_ids = []
        if bot.children:
            alive = [c for c in bot.children if survives(tree.nodes[c])]
            for cid in alive:
                kid_ids.append(build(cid, new_depth + 1))
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
    root_new = build(tree.root_id, 0)
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


def _enc_x(x) -> object:
    if isinstance(x, Fraction):
        return [x.numerator, x.denominator]
    return float(x)


def _dec_x(v, what: str):
    if isinstance(v, list):
        if len(v) != 2 or not all(isinstance(t, int) for t in v):
            raise SchemaError(f"bad rational in {what}")
        return Fraction(v[0], v[1])
    if isinstance(v, (int, float)):
        return float(v)
    raise SchemaError(f"bad number in {what}")


def structure_to_dict(vs: VirtualStructure) -> dict:
    return {
        "schema": _SCHEMA,
        "d": [[_enc_x(x), y] for x, y in vs.d.breakpoints],
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
    try:
        d = CircleCDF(tuple((_dec_x(x, "d"), float(y)) for x, y in data["d"]))
        k = PotentialHomeo(tuple((float(x), float(y)) for x, y in data["k"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed structure document: {exc}") from None
    return VirtualStructure(d, k)
