"""The angle-window tree against an oracle that knows only angle doubling."""

import bisect
import itertools
from fractions import Fraction

import pytest

from greenray.angles import level_windows

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
