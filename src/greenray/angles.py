"""Exact circle-arc combinatorics for external angles.

Angle windows (the sets of external angles whose rays cross an annulus of
the analytic tree) are unions of disjoint arcs with rational endpoints.
Everything here is exact so that depth-10+ combinatorics do not drift: the
window tree is computed in integers on one grid Q = q*2^(depth+1) for
theta_c = p/q and handed out as Fractions; floats enter only when a window
produced by a collapse carries measured (d-image) endpoints.

Conventions:
  * angles live in [0, 1), increasing counterclockwise;
  * a window is a tuple of (lo, hi) pieces with lo < hi, pieces disjoint,
    stored sorted by lo, never wrapping through 1 (a wrapping arc is stored
    as two pieces);
  * doubling acts by theta -> frac(2*theta);
  * a cell of the window tree has an address of bits: for theta in the
    cell, bit k names the level-1 arc holding 2^(k-1) theta (arc 0 holds
    angle 0, the beta fixed point), so doubling maps cell (b,) + s onto
    cell s;
  * an annulus's window is glued at its seam, the entering access of its
    outer pair; :func:`cylinder_positions` (tree invariants, collapses) and
    its inverse :func:`cylinder_angles` (equipotentials) walk from there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import InvalidInput

Number = Fraction | float
Piece = tuple[Number, Number]
Window = tuple[Piece, ...]


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
    """Whether theta lies in the window (open pieces, or closed if asked).

    Exact for every mix of Fraction, float and int: theta and the endpoints
    are compared as integer ratios by cross-multiplication.
    """
    try:
        num, den = theta.as_integer_ratio()
    except (OverflowError, ValueError):     # inf and nan lie in no window
        return False
    for lo, hi in window:
        lo_num, lo_den = lo.as_integer_ratio()
        hi_num, hi_den = hi.as_integer_ratio()
        above = num * lo_den - lo_num * den      # sign of theta - lo
        below = hi_num * den - num * hi_den      # sign of hi - theta
        if (above > 0 and below > 0) or (closed and (above == 0 or below == 0)):
            return True
    return False


def entering_access(window: Window, pair: tuple[Number, Number]) -> Number:
    """The access of the pair that is a *left* endpoint of a window piece.

    Walking counterclockwise through the glued seam of the annulus, the ray
    family exits the window at one access and re-enters at the other; the
    re-entry access, the seam, is the origin for cylindrical positions.
    """
    return _from_seam(window, pair)[0][0]


def _from_seam(window: Window, pair: tuple[Number, Number]) -> list[Piece]:
    """The window's pieces in ccw order, starting with the one at the seam."""
    lefts = [lo for lo, _ in window]
    hits = [a for a in pair if a in lefts]
    if len(hits) != 1:
        raise InvalidInput(f"expected exactly one entering access, got {hits}")
    i = lefts.index(hits[0])
    return [*window[i:], *window[:i]]


def cylinder_positions(window: Window, pair: tuple[Number, Number],
                       thetas: Sequence[Number],
                       measure: Callable[[Number], Number]) -> list[Number]:
    """The measure swept ccw inside the window from its seam to each theta.

    The seam is the entering access of the outer access pair.  An arc
    (lo, hi) weighs measure(hi) - measure(lo), summed piece by piece from
    the seam: the identity gives Lebesgue positions, a circle CDF d gives
    mu_d positions.  A theta outside the closed window is InvalidInput.
    """
    pieces = _from_seam(window, pair)
    out = []
    for theta in thetas:
        acc: Number = 0
        for lo, hi in pieces:
            if lo <= theta <= hi:
                out.append(acc + (measure(theta) - measure(lo)))
                break
            acc += measure(hi) - measure(lo)
        else:
            raise InvalidInput(f"angle {theta} is not inside the window")
    return out


def cylinder_angles(window: Window, pair: tuple[Number, Number],
                    fractions: Sequence[Number]) -> list[Number]:
    """The angles at the given fractions of the window's Lebesgue measure
    swept ccw from its seam, the inverse of :func:`cylinder_positions`.

    Fraction 1 is the exit access, glued to the seam; a fraction outside
    [0, 1] is InvalidInput.
    """
    pieces = [(lo, hi - lo) for lo, hi in _from_seam(window, pair)]
    total = window_measure(window)
    out = []
    for f in fractions:
        if not 0 <= f <= 1:
            raise InvalidInput(f"fraction {f} is outside [0, 1]")
        s = total * f
        for lo, width in pieces:
            if s <= width:
                out.append(lo + s)
                break
            s -= width
        else:
            out.append(pieces[0][0])    # float rounding past the end: the seam
    return out


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


GridNode = tuple  # (address, window, outer pair, inner pair), ints on the grid


def _pull_back(window: Window, arcs: Sequence[Window], grid: int) -> list[Window]:
    """The parts of each arc that doubling maps into `window`, on the grid.

    The preimage of a piece (lo, hi) under doubling is its two halves
    (lo/2, hi/2) and ((lo+grid)/2, (hi+grid)/2).
    """
    halves = [((lo + k) // 2, (hi + k) // 2) for k in (0, grid) for lo, hi in window]
    return [normalize_window([(max(lo, a_lo), min(hi, a_hi))
                              for lo, hi in halves for a_lo, a_hi in arc])
            for arc in arcs]


def _interior(window: Window, t: int) -> bool:
    return any(lo < t < hi for lo, hi in window)


def _grid_levels(theta_c: Fraction, depth: int) -> tuple[int, list[list[GridNode]]]:
    """The window tree of :func:`level_windows` on one integer grid.

    Every endpoint and access down to `depth` is a multiple of 1/Q with
    Q = q*2^(depth+1) for theta_c = p/q: a level-n access has denominator
    q*2^(n+1).  Returns Q and the levels, each node an (address, window,
    outer pair, inner pair) tuple of ints counting units of 1/Q.
    """
    theta_c = frac1(Fraction(theta_c))
    if theta_c.denominator % 2 == 1:
        raise InvalidInput(
            "critical value angle is periodic under doubling; "
            "the generic cell structure requires an even denominator")
    if depth < 0:
        raise InvalidInput("depth must be >= 0")
    grid = theta_c.denominator << (depth + 1)
    a = theta_c.numerator << depth               # theta_c / 2
    b = a + grid // 2
    arcs = (((0, a), (b, grid)), ((a, b),))
    levels: list[list[GridNode]] = [[((), ((0, grid),), None, (a, b))]]
    for n in range(1, depth + 1):
        inner_of = {node[0]: node[3] for node in levels[n - 1]}
        layers: tuple[list[GridNode], ...] = ([], [])
        for address, window, _, accesses in levels[n - 1]:
            # doubling maps each arc one-to-one onto the circle minus
            # theta_c, so each arc holds one preimage of each access
            preimages = [(t // 2, (t + grid) // 2) for t in accesses]
            for bit, cell in enumerate(_pull_back(window, arcs, grid)):
                inner = sorted(h if _interior(arcs[bit], h) else h1
                               for h, h1 in preimages)
                if not all(_interior(cell, t) for t in inner):
                    raise AssertionError(
                        f"level-{n} access is not interior to its window")
                child = (bit,) + address
                layers[bit].append((child, cell, inner_of[child[:-1]],
                                    (inner[0], inner[1])))
        levels.append(layers[0] + layers[1])
    return grid, levels


def _fraction_view(grid: int) -> Callable[[GridNode], WindowNode]:
    """Maps grid nodes to WindowNodes; equal endpoints share one Fraction."""
    made: dict[int, Fraction] = {}

    def frac(i: int) -> Fraction:
        f = made.get(i)
        if f is None:
            f = made[i] = Fraction(i, grid)
        return f

    def pair(p: tuple[int, int] | None) -> tuple[Fraction, Fraction] | None:
        return None if p is None else (frac(p[0]), frac(p[1]))

    def view(node: GridNode) -> WindowNode:
        address, window, outer, inner = node
        return WindowNode(address, tuple(map(pair, window)), pair(outer),
                          pair(inner))
    return view


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
    The arithmetic runs on the integer grid of :func:`_grid_levels`.
    """
    grid, levels = _grid_levels(theta_c, depth)
    view = _fraction_view(grid)
    return [[view(node) for node in layer] for layer in levels]
