"""Exact circle-arc combinatorics for external angles.

Angle windows (the sets of external angles whose rays cross an annulus of
the analytic tree) are unions of disjoint arcs with rational endpoints.
Everything here is exact Fraction arithmetic so that depth-10+ combinatorics
do not drift; floats enter only when a window produced by a collapse carries
measured (d-image) endpoints.

Conventions:
  * angles live in [0, 1), increasing counterclockwise;
  * a window is a tuple of (lo, hi) pieces with lo < hi, pieces disjoint,
    stored sorted by lo, never wrapping through 1 (a wrapping arc is stored
    as two pieces);
  * doubling acts by theta -> frac(2*theta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

Number = Fraction | float
Piece = tuple[Number, Number]
Window = tuple[Piece, ...]

FULL_CIRCLE: Window = ((Fraction(0), Fraction(1)),)


def frac1(x: Fraction) -> Fraction:
    """Reduce mod 1 into [0, 1)."""
    return x - (x // 1)


def circ_dist(a: float, b: float) -> float:
    """Distance between two angles on the circle of length 1."""
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def window_measure(window: Window) -> Number:
    return sum((hi - lo) for lo, hi in window)


def normalize_window(pieces: Sequence[Piece]) -> Window:
    """Sort pieces, drop empty ones, merge touching neighbours.

    A window wrapping through 1 stays stored as two pieces (.., 1) + (0, ..).
    """
    kept = sorted([(lo, hi) for lo, hi in pieces if hi > lo])
    merged: list[list[Number]] = []
    for lo, hi in kept:
        if merged and lo == merged[-1][1]:
            merged[-1][1] = hi
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


def window_contains(window: Window, theta: Number, closed: bool = False) -> bool:
    for lo, hi in window:
        if (lo < theta < hi) or (closed and (theta == lo or theta == hi)):
            return True
    return False


def cyclic_contains(window: Window, theta: Number) -> bool:
    """Interior membership treating the window as a subset of the circle.

    Differs from :func:`window_contains` only at the wrap point: angle 0 is
    cyclically interior when the window holds both a (0, x) and a (y, 1)
    piece.
    """
    if window_contains(window, theta):
        return True
    return theta == 0 and any(hi == 1 for _, hi in window) and \
        any(lo == 0 for lo, _ in window)


def _cyclic_pieces_from(window: Window, start: Number) -> list[Piece]:
    """Pieces in ccw order starting with the piece whose left endpoint is `start`."""
    idx = None
    for i, (lo, _) in enumerate(window):
        if lo == start:
            idx = i
            break
    if idx is None:
        raise ValueError("start is not a left endpoint of the window")
    return list(window[idx:]) + list(window[:idx])


def entering_access(window: Window, pair: tuple[Number, Number]) -> Number:
    """The access of the pair that is a *left* endpoint of a window piece.

    Walking counterclockwise through the glued seam of the annulus, the ray
    family exits the window at one access and re-enters at the other; the
    re-entry access is the canonical origin for cylindrical positions.
    """
    lefts = {lo for lo, _ in window}
    hits = [a for a in pair if a in lefts]
    if len(hits) != 1:
        raise ValueError(f"expected exactly one entering access, got {hits}")
    return hits[0]


def cumulative_position(window: Window, origin: Number, theta: Number) -> Number:
    """Window measure swept going ccw from `origin` to `theta` inside the window.

    `origin` must be a left endpoint of a piece; `theta` must lie in the
    closed window.
    """
    acc: Number = 0
    for lo, hi in _cyclic_pieces_from(window, origin):
        if lo <= theta <= hi:
            return acc + (theta - lo)
        acc = acc + (hi - lo)
    raise ValueError("theta is not inside the window")


def cumulative_position_d(window: Window, origin: Number, theta: Number,
                          d: Callable[[float], float]) -> float:
    """Like :func:`cumulative_position` but measured by the pushforward of d.

    Pieces are weighted by d(hi) - d(lo); d is evaluated with the lift
    normalisation d(0) = 0, d(1) = 1, so no wrap correction is needed for
    the stored (non-wrapping) pieces.
    """
    acc = 0.0
    for lo, hi in _cyclic_pieces_from(window, origin):
        if lo <= theta <= hi:
            return acc + (d(float(theta)) - d(float(lo)))
        acc += d(float(hi)) - d(float(lo))
    raise ValueError("theta is not inside the window")


def invert_position(window: Window, origin: Number, s: Number) -> Number:
    """Angle at window-measure position `s` ccw from `origin` (inverse of
    :func:`cumulative_position`)."""
    total = window_measure(window)
    if not (0 <= s <= total):
        raise ValueError("position outside window measure")
    for lo, hi in _cyclic_pieces_from(window, origin):
        width = hi - lo
        if s <= width:
            return lo + s
        s = s - width
    return origin  # s == total wraps back to the seam


def access_candidates_in(window: Window, theta_c: Fraction, level: int) -> list[Fraction]:
    """Solutions of 2^(level+1) * theta == theta_c (mod 1) interior to the window."""
    denom = 2 ** (level + 1)
    out: list[Fraction] = []
    for lo, hi in window:
        # (theta_c + j) / denom in (lo, hi)  <=>  j in (lo*denom - theta_c, hi*denom - theta_c)
        j_lo = Fraction(lo) * denom - theta_c
        j_hi = Fraction(hi) * denom - theta_c
        j = math.floor(j_lo) + 1
        while j < j_hi:
            cand = (theta_c + j) / denom
            if lo < cand < hi:
                out.append(cand)
            j += 1
    return sorted(out)


def split_window(window: Window, a: Number, b: Number) -> tuple[Window, Window]:
    """Cut the cyclically ordered window at interior points a and b.

    Returns (chain from a ccw to b, chain from b ccw to a), both normalized.
    """
    if a == b:
        raise ValueError("split points must be distinct")
    cut: list[Piece] = []
    for lo, hi in window:
        bounds = [lo] + sorted(p for p in (a, b) if lo < p < hi) + [hi]
        cut.extend(zip(bounds[:-1], bounds[1:]))
    cut.sort()

    def chain(start: Number, stop: Number) -> Window:
        i = next(k for k, (lo, _) in enumerate(cut) if lo == start)
        out: list[Piece] = []
        for _ in range(len(cut)):
            lo, hi = cut[i]
            out.append((lo, hi))
            if hi == stop or (stop == 0 and hi == 1):
                return normalize_window(out)
            i = (i + 1) % len(cut)
        raise ValueError("split points not interior to the window")

    return chain(a, b), chain(b, a)


@dataclass(frozen=True)
class WindowNode:
    """One cell of the dyadic angle-window tree."""

    address: tuple[int, ...]
    window: Window
    outer_pair: tuple[Fraction, Fraction] | None  # accesses bounding this window
    inner_pair: tuple[Fraction, Fraction]         # accesses splitting it

    @property
    def level(self) -> int:
        return len(self.address)


def _bit0_arc(theta_c: Fraction, arcs: tuple[Window, Window]) -> int:
    """Index of the arc labelled with itinerary bit 0.

    Bit 0 is the cell of the beta fixed point (external angle 0): the arc
    whose cyclic interior or left endpoint contains angle 0.
    """
    for i, arc in enumerate(arcs):
        if cyclic_contains(arc, Fraction(0)):
            return i
    for i, arc in enumerate(arcs):
        if any(lo == 0 for lo, _ in arc):
            return i
    raise ValueError("no arc contains angle 0")


def level_windows(theta_c: Fraction, depth: int) -> list[list[WindowNode]]:
    """Window tree for the generic quadratic combinatorics of angle theta_c.

    Level n holds the 2^n cells between the level-(n-1) and level-n critical
    equipotentials; `inner_pair` are the two angles crashing at the cell's
    level-n precritical point.

    theta_c must not be periodic under angle doubling (i.e. must have even
    denominator in lowest terms), otherwise access angles of different
    levels coincide and the cells are not generic.
    """
    theta_c = frac1(Fraction(theta_c))
    if theta_c.denominator % 2 == 1:
        raise ValueError(
            "critical value angle is periodic under doubling; "
            "the generic cell structure requires an even denominator")
    s1 = frac1(Fraction(theta_c, 2))
    s2 = frac1(s1 + Fraction(1, 2))
    a, b = sorted((s1, s2))
    root_split = (a, b)
    levels: list[list[WindowNode]] = [[WindowNode((), FULL_CIRCLE, None, root_split)]]

    arc_a, arc_b = split_window(FULL_CIRCLE, a, b)
    arcs = (arc_a, arc_b)
    i0 = _bit0_arc(theta_c, arcs)
    bit_arcs = (arcs[i0], arcs[1 - i0])

    def doubled(theta: Fraction, n: int) -> Fraction:
        return frac1(theta * (2 ** n))

    for n in range(1, depth + 1):
        layer: list[WindowNode] = []
        for parent in levels[n - 1]:
            pa, pb = parent.inner_pair
            w1, w2 = split_window(parent.window, pa, pb)
            for w in (w1, w2):
                probe_lo, probe_hi = w[0]
                probe = probe_lo + (probe_hi - probe_lo) / 2
                bit = 0 if cyclic_contains(bit_arcs[0], doubled(probe, n - 1)) else 1
                cand = access_candidates_in(w, theta_c, n)
                if len(cand) != 2:
                    raise AssertionError(
                        f"window at level {n} holds {len(cand)} access candidates")
                layer.append(WindowNode(parent.address + (bit,), w,
                                        (pa, pb), (cand[0], cand[1])))
        layer.sort(key=lambda node: node.address)
        levels.append(layer)
    return levels
