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
  * doubling acts by theta -> frac(2*theta);
  * a cell of the window tree has an address of bits: for theta in the
    cell, bit k names the level-1 arc holding 2^(k-1) theta (arc 0 holds
    angle 0, the beta fixed point), so doubling maps cell (b,) + s onto
    cell s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import InvalidInput

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


def _cyclic_pieces_from(window: Window, start: Number) -> list[Piece]:
    """Pieces in ccw order starting with the piece whose left endpoint is `start`."""
    idx = None
    for i, (lo, _) in enumerate(window):
        if lo == start:
            idx = i
            break
    if idx is None:
        raise InvalidInput("start is not a left endpoint of the window")
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
        raise InvalidInput(f"expected exactly one entering access, got {hits}")
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
    raise InvalidInput("theta is not inside the window")


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
    raise InvalidInput("theta is not inside the window")


def invert_position(window: Window, origin: Number, s: Number) -> Number:
    """Angle at window-measure position `s` ccw from `origin` (inverse of
    :func:`cumulative_position`)."""
    total = window_measure(window)
    if not (0 <= s <= total):
        raise InvalidInput("position outside window measure")
    for lo, hi in _cyclic_pieces_from(window, origin):
        width = hi - lo
        if s <= width:
            return lo + s
        s = s - width
    return origin  # s == total wraps back to the seam


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


def _pull_back(window: Window, arcs: Sequence[Window]) -> list[Window]:
    """The parts of each arc that doubling maps into `window`.

    The preimage of a piece (lo, hi) under doubling is its two halves
    (lo/2, hi/2) and ((lo+1)/2, (hi+1)/2).
    """
    halves = [((lo + k) / 2, (hi + k) / 2) for k in (0, 1) for lo, hi in window]
    return [normalize_window([(max(lo, a_lo), min(hi, a_hi))
                              for lo, hi in halves for a_lo, a_hi in arc])
            for arc in arcs]


def level_windows(theta_c: Fraction, depth: int) -> list[list[WindowNode]]:
    """Window tree for the generic quadratic combinatorics of angle theta_c.

    Level n holds the 2^n cells between the level-(n-1) and level-n critical
    equipotentials; `inner_pair` are the two angles crashing at the cell's
    level-n precritical point.

    theta_c must not be periodic under angle doubling (i.e. must have even
    denominator in lowest terms), otherwise access angles of different
    levels coincide and the cells are not generic.

    Each level is the previous one pulled back under doubling: the cell
    (bit,) + s is the part of the level-1 arc A_bit that doubling maps into
    cell s, and its accesses are the halves of s's accesses lying in A_bit.
    """
    theta_c = frac1(Fraction(theta_c))
    if theta_c.denominator % 2 == 1:
        raise InvalidInput(
            "critical value angle is periodic under doubling; "
            "the generic cell structure requires an even denominator")
    a = theta_c / 2
    b = a + Fraction(1, 2)
    arcs = (((Fraction(0), a), (b, Fraction(1))), ((a, b),))
    levels: list[list[WindowNode]] = [[WindowNode((), FULL_CIRCLE, None, (a, b))]]
    for n in range(1, depth + 1):
        prev = {node.address: node for node in levels[n - 1]}
        layers: tuple[list[WindowNode], ...] = ([], [])
        for s in levels[n - 1]:
            # doubling maps each arc one-to-one onto the circle minus
            # theta_c, so each arc holds one preimage of each access
            preimages = [(t / 2, (t + 1) / 2) for t in s.inner_pair]
            for bit, window in enumerate(_pull_back(s.window, arcs)):
                inner = sorted(h if window_contains(arcs[bit], h) else h1
                               for h, h1 in preimages)
                if not all(window_contains(window, t) for t in inner):
                    raise AssertionError(
                        f"level-{n} access is not interior to its window")
                address = (bit,) + s.address
                layers[bit].append(WindowNode(address, window,
                                              prev[address[:-1]].inner_pair,
                                              (inner[0], inner[1])))
        levels.append(layers[0] + layers[1])
    return levels
