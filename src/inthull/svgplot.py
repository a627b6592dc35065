"""Deterministic SVG rendering of an instance, its lattice, and its hull.

Pure string assembly: no plotting library, no floats.  Every coordinate is
an exact rational mapped through one affine world-to-view transform and
printed with :func:`inthull.instances.format_decimal`, so the same input
always produces the same bytes.

Composition (painted back to front): frame, lattice dots (pale for
bounding-box points outside the set, dark for points inside — omitted
entirely when the box exceeds the cell limit), the input polygon outline,
the shaded integer hull, dashed stopping-chord overlays from the engine
that computed the hull, and the hull's vertices.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor
from typing import List, Optional, Sequence

from .geom import HullResult, PolySet2, Rational, Row, bounding_box, chord
from .instances import format_decimal
from .oracle import bbox_cell_count, enumerate_integer_points

LATTICE_CELL_LIMIT = 10**4

_STYLE = {
    "frame": "fill:none;stroke:#888888;stroke-width:1",
    "poly": "fill:none;stroke:#1f77b4;stroke-width:2",
    "poly_degenerate": "stroke:#1f77b4;stroke-width:2",
    "hull": "fill:#2ca02c;fill-opacity:0.25;stroke:#2ca02c;stroke-width:1.5",
    "chord": "fill:none;stroke:#d62728;stroke-width:1;stroke-dasharray:6 3",
    "lattice_out": "fill:#cccccc",
    "lattice_in": "fill:#333333",
    "hull_vertex": "fill:#2ca02c",
}


class _View:
    """Affine world -> view transform with exact rational arithmetic."""

    def __init__(self, xmin: Fraction, xmax: Fraction, ymin: Fraction, ymax: Fraction):
        pad = Fraction(1)
        self.xmin = xmin - pad
        self.ymax = ymax + pad
        world_w = (xmax - xmin) + 2 * pad
        world_h = (ymax - ymin) + 2 * pad
        self.margin = Fraction(24)
        inner_w = Fraction(640)
        self.scale = inner_w / world_w
        self.width = inner_w + 2 * self.margin
        self.height = world_h * self.scale + 2 * self.margin

    def x(self, wx: Rational) -> str:
        return format_decimal(self.margin + (wx - self.xmin) * self.scale, 3)

    def y(self, wy: Rational) -> str:
        return format_decimal(self.margin + (self.ymax - wy) * self.scale, 3)


def render_svg(
    P: Optional[PolySet2],
    hull: HullResult,
    *,
    chords: Sequence[Row] = (),
    name: Optional[str] = None,
) -> str:
    """The complete SVG document as a string (trailing newline included);
    each of `chords`, an integer row (:data:`geom.Row`) such as a sweep
    hit's line, is drawn as the chord of P on the row's line.
    Precondition: the hull lies in P, so P's box (a unit box for None) frames it."""
    view = _View(*(bounding_box(P) if P is not None else (Fraction(0), Fraction(1)) * 2))
    out: List[str] = []
    w = format_decimal(view.width, 3)
    h = format_decimal(view.height, 3)
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">'
    )
    if name:
        out.append(f"<title>{_escape(name)}</title>")
    out.append(f'<rect x="0" y="0" width="{w}" height="{h}" fill="#ffffff"/>')
    out.append(
        f'<rect x="0.5" y="0.5" width="{format_decimal(view.width - 1, 3)}" '
        f'height="{format_decimal(view.height - 1, 3)}" style="{_STYLE["frame"]}"/>'
    )
    if P is not None:
        out.extend(_lattice_dots(P, view))
        if len(P.vertices) == 1:
            out.append(_dot(view, "poly", P.vertices[0], 3, _STYLE["poly_degenerate"]))
        else:
            out.extend(_shape(view, "poly", P.vertices))
    out.extend(_shape(view, "hull", hull))  # a one-point hull is its vertex marker
    for row in chords:
        ch = None if P is None else chord(P, row)
        if ch is not None:
            out.extend(_shape(view, "chord", ch.vertices))
    out.extend(_dot(view, "hull-vertex", p, 4, _STYLE["hull_vertex"]) for p in hull)
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _lattice_dots(P: PolySet2, view: _View) -> List[str]:
    if bbox_cell_count(P) > LATTICE_CELL_LIMIT:
        return []
    xmin, xmax, ymin, ymax = bounding_box(P)
    lattice = set(enumerate_integer_points(P))
    dots: List[str] = []
    for x in range(ceil(xmin), floor(xmax) + 1):
        for y in range(ceil(ymin), floor(ymax) + 1):
            if (x, y) in lattice:
                dots.append(_dot(view, "lp-in", (x, y), 3, _STYLE["lattice_in"]))
            else:
                dots.append(_dot(view, "lp-out", (x, y), 2, _STYLE["lattice_out"]))
    return dots


def _dot(view: _View, cls: str, p: Sequence[Rational], r: int, style: str) -> str:
    return f'<circle class="{cls}" cx="{view.x(p[0])}" cy="{view.y(p[1])}" r="{r}" style="{style}"/>'


def _shape(view: _View, cls: str, pts: Sequence[Sequence[Rational]]) -> List[str]:
    """The segment or polygon through `pts` in the style of `cls`; fewer
    than two points draw nothing."""
    if len(pts) < 2:
        return []
    if len(pts) == 2:
        (x1, y1), (x2, y2) = pts
        return [
            f'<line class="{cls}" x1="{view.x(x1)}" y1="{view.y(y1)}" '
            f'x2="{view.x(x2)}" y2="{view.y(y2)}" style="{_STYLE[cls]}"/>'
        ]
    joined = " ".join(f"{view.x(x)},{view.y(y)}" for x, y in pts)
    return [f'<polygon class="{cls}" points="{joined}" style="{_STYLE[cls]}"/>']
