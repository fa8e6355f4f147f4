"""Deterministic SVG rendering.

Two views: the log-Böttcher cylinder (angle x potential rectangle, the
canonical picture for analytic trees, with skeleton slits drawn at access
angles) and a plane view for traced curves.  Output is plain SVG text with
fixed float formatting so identical inputs give identical bytes.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import InvalidInput
from .tree import AnalyticTree

_PALETTE = ("#4878a8", "#58a066", "#c2803d", "#9868a8", "#b05555",
            "#50909d", "#a0a050", "#777777")


def _f(x: float) -> str:
    return f"{x:.4f}"


def _svg_header(width: int, height: int) -> list[str]:
    return [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">',
            f'<rect width="{width}" height="{height}" fill="white"/>']


def tree_cylinder_svg(tree: AnalyticTree, width: int = 900,
                      height: int = 560, margin: int = 30) -> str:
    """Annuli of the tree as bands in the (angle, potential) cylinder.

    The potential axis is logarithmic so every level has equal height;
    red slits mark the skeleton (inner access angles below their crash
    potential).
    """
    nodes = [n for n in tree.nodes.values() if not n.is_root]
    if not nodes:
        raise InvalidInput("tree has no non-root nodes to draw")
    g_top = max(n.g_plus for n in nodes)
    g_bot = min(n.g_minus for n in nodes)
    span = math.log(g_top / g_bot) if g_top > g_bot else 1.0

    def x_of(a: float) -> float:
        return margin + float(a) * (width - 2 * margin)

    def y_of(g: float) -> float:
        return margin + (math.log(g_top / g) / span) * (height - 2 * margin)

    out = _svg_header(width, height)
    out.append(f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
               f'height="{height - 2 * margin}" fill="none" stroke="#cccccc"/>')
    for n in sorted(nodes, key=lambda n: (n.depth, n.id)):
        color = _PALETTE[n.depth % len(_PALETTE)]
        y0, y1 = y_of(n.g_plus), y_of(n.g_minus)
        for lo, hi in n.windows:
            x0, x1 = x_of(float(lo)), x_of(float(hi))
            out.append(f'<rect x="{_f(x0)}" y="{_f(y0)}" '
                       f'width="{_f(x1 - x0)}" height="{_f(y1 - y0)}" '
                       f'fill="{color}" fill-opacity="0.35" '
                       f'stroke="{color}" stroke-width="0.6"/>')
        if n.inner_accesses is not None:
            for a in n.inner_accesses:
                x = x_of(float(a) % 1.0)
                out.append(f'<line x1="{_f(x)}" y1="{_f(y_of(n.g_minus))}" '
                           f'x2="{_f(x)}" y2="{_f(height - margin)}" '
                           f'stroke="#cc2222" stroke-width="0.8"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def collapse_svg(before: AnalyticTree, after: AnalyticTree,
                 width: int = 1400, height: int = 560) -> str:
    """Before/after cylinder panels of a collapse."""
    left = tree_cylinder_svg(before, width=width // 2 - 10, height=height)
    right = tree_cylinder_svg(after, width=width // 2 - 10, height=height)

    def body(svg: str) -> str:
        lines = svg.strip().split("\n")
        return "\n".join(lines[1:-1])

    out = _svg_header(width, height)
    out.append(f'<g transform="translate(0,0)">{body(left)}</g>')
    out.append(f'<g transform="translate({width // 2 + 10},0)">{body(right)}</g>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def plane_svg(curves: Sequence[tuple[Sequence[complex], str, bool]],
              width: int = 800, height: int = 800, margin: int = 30) -> str:
    """Plane view of polylines: (points, color, closed) triples."""
    xs = [p.real for poly, _, _ in curves for p in poly]
    ys = [p.imag for poly, _, _ in curves for p in poly]
    if not xs:
        raise InvalidInput("nothing to draw")
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    span = max(x1 - x0, y1 - y0, 1e-12)
    scale = (min(width, height) - 2 * margin) / span
    cx, cy = (x0 + x1) / 2, (y0 + y1) / 2

    def pt(p: complex) -> str:
        return (f"{_f(width / 2 + (p.real - cx) * scale)},"
                f"{_f(height / 2 - (p.imag - cy) * scale)}")

    out = _svg_header(width, height)
    for poly, color, closed in curves:
        if len(poly) == 1:
            out.append(f'<circle cx="{pt(poly[0]).split(",")[0]}" '
                       f'cy="{pt(poly[0]).split(",")[1]}" r="1.2" fill="{color}"/>')
            continue
        tag = "polygon" if closed else "polyline"
        points = " ".join(pt(p) for p in poly)
        out.append(f'<{tag} points="{points}" fill="none" stroke="{color}" '
                   f'stroke-width="1.0"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
