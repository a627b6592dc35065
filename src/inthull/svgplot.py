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
from typing import List, Optional, Sequence, Tuple

from .geom import (
    HalfPlane,
    HullResult,
    PolySet2,
    bounding_box,
    chord,
)
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

    def x(self, wx: Fraction) -> str:
        return format_decimal(self.margin + (wx - self.xmin) * self.scale, 3)

    def y(self, wy: Fraction) -> str:
        return format_decimal(self.margin + (self.ymax - wy) * self.scale, 3)

    def pt(self, p: Sequence) -> str:
        return f"{self.x(Fraction(p[0]))},{self.y(Fraction(p[1]))}"


def _world_box(
    P: Optional[PolySet2], hull: HullResult
) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
    xs: List[Fraction] = []
    ys: List[Fraction] = []
    if P is not None:
        xmin, xmax, ymin, ymax = bounding_box(P)
        xs += [xmin, xmax]
        ys += [ymin, ymax]
    for p in hull:
        xs.append(Fraction(p.x))
        ys.append(Fraction(p.y))
    if not xs:
        xs = [Fraction(0), Fraction(1)]
        ys = [Fraction(0), Fraction(1)]
    return min(xs), max(xs), min(ys), max(ys)


def render_svg(
    P: Optional[PolySet2],
    hull: HullResult,
    *,
    chords: Sequence[HalfPlane] = (),
    name: Optional[str] = None,
) -> str:
    """The complete SVG document as a string (trailing newline included);
    each of `chords` is drawn as the chord of P on its boundary line."""
    view = _View(*_world_box(P, hull))
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
        out.extend(_polygon_outline(P, view))
    out.extend(_hull_shape(hull, view))
    for h in chords:
        out.extend(_chord_overlay(P, h, view))
    for p in hull:
        out.append(
            f'<circle class="hull-vertex" cx="{view.x(Fraction(p.x))}" '
            f'cy="{view.y(Fraction(p.y))}" r="4" style="{_STYLE["hull_vertex"]}"/>'
        )
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
            inside = (x, y) in lattice
            cls = "lp-in" if inside else "lp-out"
            style = _STYLE["lattice_in"] if inside else _STYLE["lattice_out"]
            r = "3" if inside else "2"
            dots.append(
                f'<circle class="{cls}" cx="{view.x(Fraction(x))}" '
                f'cy="{view.y(Fraction(y))}" r="{r}" style="{style}"/>'
            )
    return dots


def _polygon_outline(P: PolySet2, view: _View) -> List[str]:
    verts = P.vertices
    if len(verts) == 1:
        return [
            f'<circle class="poly" cx="{view.x(verts[0].x)}" cy="{view.y(verts[0].y)}" '
            f'r="3" style="{_STYLE["poly_degenerate"]}"/>'
        ]
    if len(verts) == 2:
        return [
            f'<line class="poly" x1="{view.x(verts[0].x)}" y1="{view.y(verts[0].y)}" '
            f'x2="{view.x(verts[1].x)}" y2="{view.y(verts[1].y)}" style="{_STYLE["poly"]}"/>'
        ]
    pts = " ".join(view.pt(v) for v in verts)
    return [f'<polygon class="poly" points="{pts}" style="{_STYLE["poly"]}"/>']


def _hull_shape(hull: HullResult, view: _View) -> List[str]:
    pts = list(hull)
    if not pts:
        return []
    if len(pts) == 1:
        return []  # the hull-vertex marker covers it
    if len(pts) == 2:
        return [
            f'<line class="hull" x1="{view.x(Fraction(pts[0].x))}" '
            f'y1="{view.y(Fraction(pts[0].y))}" x2="{view.x(Fraction(pts[1].x))}" '
            f'y2="{view.y(Fraction(pts[1].y))}" style="{_STYLE["hull"]}"/>'
        ]
    joined = " ".join(view.pt(p) for p in pts)
    return [f'<polygon class="hull" points="{joined}" style="{_STYLE["hull"]}"/>']


def _chord_overlay(P: Optional[PolySet2], h: HalfPlane, view: _View) -> List[str]:
    if P is None:
        return []
    ch = chord(P, h)
    if ch is None or len(ch.vertices) < 2:
        return []
    p, q = ch.vertices
    return [
        f'<line class="chord" x1="{view.x(p.x)}" y1="{view.y(p.y)}" '
        f'x2="{view.x(q.x)}" y2="{view.y(q.y)}" style="{_STYLE["chord"]}"/>'
    ]
