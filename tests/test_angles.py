"""The angle-window tree against an oracle that knows only angle doubling."""

import bisect
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenray.angles import (cylinder_angles, cylinder_positions,
                             level_windows, window_contains)
from greenray.errors import InvalidInput
from greenray.structures import (CircleCDF, PotentialHomeo, VirtualStructure,
                                 collapse)
from greenray.tree import abstract_binary_tree

DEPTH = 6


def itinerary(theta: Fraction, theta_c: Fraction, n: int) -> tuple[int, ...]:
    """Bit k (k = 1..n) is 1 iff 2^(k-1) theta lies in the open arc from
    theta_c/2 to theta_c/2 + 1/2, else 0 (the arc holding angle 0)."""
    a, b = theta_c / 2, theta_c / 2 + Fraction(1, 2)
    bits = []
    for _ in range(n):
        assert theta not in (a, b)
        bits.append(1 if a < theta < b else 0)
        theta = (2 * theta) % 1
    return tuple(bits)


@pytest.mark.parametrize("theta_c", [Fraction(1, 2), Fraction(1, 6),
                                     Fraction(3, 10), Fraction(5, 8)])
def test_level_windows_match_doubling_oracle(theta_c):
    levels = level_windows(theta_c, DEPTH)
    assert len(levels) == DEPTH + 1
    parents: dict[tuple[int, ...], object] = {}
    for n, layer in enumerate(levels):
        assert [node.address for node in layer] == \
            list(itertools.product((0, 1), repeat=n))
        # odd dyadic grid: no point is an access of level <= n
        grid = [Fraction(2 * i + 1, 2 ** (n + 6)) for i in range(2 ** (n + 5))]
        cells: dict[tuple[int, ...], set[int]] = {}
        for i, theta in enumerate(grid):
            cells.setdefault(itinerary(theta, theta_c, n), set()).add(i)
        denom = 2 ** (n + 1)
        solutions = [(theta_c + j) / denom for j in range(denom)]
        for node in layer:
            pieces = node.window
            assert all(type(x) is Fraction for piece in pieces for x in piece)
            inside = set()
            for lo, hi in pieces:
                inside |= set(range(bisect.bisect_right(grid, lo),
                                    bisect.bisect_left(grid, hi)))
            assert inside == cells.get(node.address, set())
            assert sum(hi - lo for lo, hi in pieces) == Fraction(1, 2 ** n)
            interior = [t for t in solutions
                        if any(lo < t < hi for lo, hi in pieces)]
            assert list(node.inner_pair) == sorted(interior)
            if n == 0:
                assert node.outer_pair is None
            else:
                assert node.outer_pair == parents[node.address[:-1]].inner_pair
        parents = {node.address: node for node in layer}


# ---------------------------------------------------------------------------
# window_contains against exact Fraction comparisons
# ---------------------------------------------------------------------------

def _collapsed_windows() -> list:
    """Float windows as a collapse makes them: d-images of exact windows."""
    tree = abstract_binary_tree([0.5 ** n for n in range(5)],
                                theta_c=Fraction(1, 6))
    d = CircleCDF(((Fraction(0), 0.0), (Fraction(1, 3), 0.1),
                   (Fraction(2, 3), 0.7), (Fraction(1), 1.0)))
    out = collapse(tree, VirtualStructure(d, PotentialHomeo.identity()))
    return [node.windows for node in out.nodes.values()]


# exact windows with endpoints off the binary grid (denominators 3 and 5),
# and float windows
WINDOWS = [node.window
           for theta_c in (Fraction(1, 2), Fraction(1, 6), Fraction(3, 10))
           for layer in level_windows(theta_c, 5) for node in layer] + \
    _collapsed_windows()


def contains_by_fractions(window, theta, closed: bool) -> bool:
    t = Fraction(theta)
    return any((Fraction(lo) < t < Fraction(hi)) or
               (closed and t in (Fraction(lo), Fraction(hi)))
               for lo, hi in window)


def near(x) -> list:
    """x, its float and the floats on either side of it."""
    f = float(x)
    return [x, f, math.nextafter(f, -math.inf), math.nextafter(f, math.inf)]


def test_window_contains_exact_at_endpoints():
    for window in WINDOWS:
        for theta in (t for piece in window for x in piece for t in near(x)):
            for closed in (False, True):
                assert window_contains(window, theta, closed) == \
                    contains_by_fractions(window, theta, closed), \
                    (window, theta, closed)


@given(window=st.sampled_from(WINDOWS),
       theta=st.one_of(st.floats(0.0, 1.0), st.fractions(0, 1),
                       st.integers(-1, 2),
                       st.sampled_from(WINDOWS).flatmap(
                           lambda w: st.sampled_from(
                               [t for piece in w for x in piece
                                for t in near(x)]))),
       closed=st.booleans())
@settings(max_examples=300, deadline=None)
def test_window_contains_matches_fraction_comparison(window, theta, closed):
    assert window_contains(window, theta, closed) == \
        contains_by_fractions(window, theta, closed)


@pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
def test_window_contains_rejects_non_finite(theta):
    assert not window_contains(((Fraction(0), Fraction(1)),), theta, True)


# the cylinder walks: a two-piece window glued at 5/8, left by 3/8
GLUED = ((Fraction(1, 8), Fraction(3, 8)), (Fraction(5, 8), Fraction(7, 8)))
SEAM_PAIR = (Fraction(3, 8), Fraction(5, 8))


def test_cylinder_walks_start_at_the_seam():
    assert cylinder_positions(GLUED, SEAM_PAIR,
                              [Fraction(5, 8), Fraction(3, 4), Fraction(1, 4),
                               Fraction(3, 8)], lambda t: t) == \
        [0, Fraction(1, 8), Fraction(3, 8), Fraction(1, 2)]
    assert cylinder_angles(GLUED, SEAM_PAIR, [0, Fraction(1, 4), 1]) == \
        [Fraction(5, 8), Fraction(3, 4), Fraction(3, 8)]


@pytest.mark.parametrize("theta_c", [Fraction(1, 2), Fraction(3, 10)])
def test_cylinder_angles_invert_positions(theta_c):
    steps = [Fraction(i, 12) for i in range(13)]
    for node in level_windows(theta_c, 4)[4]:
        thetas = cylinder_angles(node.window, node.outer_pair, steps)
        total = sum(hi - lo for lo, hi in node.window)
        assert [p / total for p in cylinder_positions(
            node.window, node.outer_pair, thetas, lambda t: t)] == steps


def _walk(walk, pair, points):
    if walk is cylinder_positions:
        return cylinder_positions(GLUED, pair, points, lambda t: t)
    return cylinder_angles(GLUED, pair, points)


@pytest.mark.parametrize("walk, point", [
    (cylinder_positions, Fraction(1, 2)), (cylinder_positions, Fraction(0)),
    (cylinder_positions, Fraction(15, 16)),
    (cylinder_angles, Fraction(-1, 4)), (cylinder_angles, Fraction(5, 4)),
    (cylinder_angles, 1.0 + 2.0 ** -52)],
    ids=["angle_in_gap", "angle_zero", "angle_in_wrap_gap",
         "fraction_below_zero", "fraction_above_one", "float_above_one"])
def test_cylinder_walks_reject_points_outside(walk, point):
    with pytest.raises(InvalidInput):
        _walk(walk, SEAM_PAIR, [Fraction(3, 8), point])


@pytest.mark.parametrize("walk", [cylinder_positions, cylinder_angles])
@pytest.mark.parametrize("pair", [
    (Fraction(3, 8), Fraction(7, 8)), (Fraction(1, 8), Fraction(5, 8))],
    ids=["no_entering_access", "two_entering_accesses"])
def test_cylinder_walks_reject_pairs_without_one_seam(walk, pair):
    with pytest.raises(InvalidInput, match="exactly one entering access"):
        _walk(walk, pair, [Fraction(3, 8)])


@pytest.mark.parametrize("theta_c, depth", [
    (Fraction(1, 3), 3), (Fraction(2, 5), 3), (Fraction(1, 2), -1)],
    ids=["period_two", "period_four", "negative_depth"])
def test_level_windows_rejects(theta_c, depth):
    with pytest.raises(InvalidInput):
        level_windows(theta_c, depth)
