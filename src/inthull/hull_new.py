"""Integer hull via per-facet opposite-side sweeps, then one sweep per
partial-hull edge.

For each facet direction the first lattice chord (scanning from the far side
of the polygon toward the facet) yields the lattice points that are extreme
in that direction; they are vertices-in-waiting of the integer hull.  What
remains uncertain is only the part of P beyond each edge u -> w of their
hull, and one sweep of P for the lattice max m of the edge's outward
functional settles it: the sweep of the cut facet of the paper's residual
region beyond the edge, with no clip and no recursion.  The edge is final
at its own level; beyond it, the ends of the chord at m are new hull
vertices and split the edge in three.  A point, a segment or a polygon of
at most ``brute_force_cell_threshold`` cells is answered without a sweep.
``_resolve`` is the ``baseline`` engine's corner pass, which enumerates the
residual regions outside the hull of that engine's inward hits.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import index
from typing import List, Optional, Set, Tuple

from .errors import GeometryError
from .geom import (
    HalfPlane,
    HullResult,
    IntPoint2,
    PolySet2,
    _deepest_vertex,
    area,
    clip,
    convex_hull,
)
from .lattice import SweepHit, _check_max_sweep, _facet_direction, _lattice_extremes, _run_sweep
from .oracle import RunStats, bbox_cell_count, enumerate_integer_points


@dataclass(frozen=True)
class RefineConfig:
    """The cost knob of the ``new`` engine, which never changes the result:
    an input polygon whose bounding box holds at most
    `brute_force_cell_threshold` lattice cells is enumerated, not swept."""

    brute_force_cell_threshold: int = 256

    def __post_init__(self) -> None:
        # A count: a float is refused (TypeError), as in the core.
        if index(self.brute_force_cell_threshold) < 1:
            raise ValueError("brute_force_cell_threshold must be >= 1")


def sweep_facets(P: PolySet2, *, inward: bool, max_sweep: Optional[int] = None) -> Optional[List[SweepHit]]:
    """Sweep every facet of P inward or from the opposite side, in order
    (:func:`lattice._facet_direction`): one hit per facet, or None at the
    first facet whose sweep finds no lattice chord (iff P has no integer
    points at all)."""
    hits: List[SweepHit] = []
    for i in range(len(P._forms)):
        hit = _run_sweep(P, *_facet_direction(P, i, inward), max_sweep=max_sweep)
        if hit is None:
            return None
        hits.append(hit)
    return hits


def _hit_points(hits: List[SweepHit]) -> Set[IntPoint2]:
    """The extreme lattice points of every stopping chord."""
    return {p for hit in hits for p in (hit.lo, hit.hi)}


def replace_facets(P: PolySet2, *, max_sweep: Optional[int] = None) -> Set[IntPoint2]:
    """The extreme lattice points of every facet's stopping chord, swept
    from the opposite side of P, each a vertex of the integer hull; an
    empty set means P has no integer points."""
    hits = sweep_facets(P, inward=False, max_sweep=max_sweep)
    return set() if hits is None else _hit_points(hits)


def _edge_functional(u: IntPoint2, w: IntPoint2) -> Tuple[int, int, int]:
    """(a, c, b): the primitive outward normal (a, c) of the CCW edge
    u -> w, to its right, and its integer level b = a*u.x + c*u.y."""
    g = gcd(w.y - u.y, u.x - w.x)
    a, c = (w.y - u.y) // g, (u.x - w.x) // g
    return a, c, a * u.x + c * u.y


def residual_regions(P: PolySet2, hull_so_far: HullResult) -> List[PolySet2]:
    """Clip P to the outside of each directed edge of the partial hull.

    The partial hull is a CCW cycle of lattice points; a segment [u, w] is
    the 2-cycle u -> w -> u.  Edge u -> w has the outward functional
    f = a*x + c*y with primitive (a, c) and integer level b = f(u).  A
    polygon hull is cut at f >= b, keeping the edge in the region; a
    segment hull at f >= b + 1 on each of its two edges, as no lattice
    point lies strictly between levels b and b + 1.  Clips that are empty,
    or a point or segment whose lattice extremes are all edge ends, are
    dropped: a lattice point between two hull points is never a hull
    vertex.  Each region is strictly smaller than P.

    Precondition: every hull vertex is a sweep hit, a lattice extreme of
    some functional g on g's first lattice chord.  Then the segment cut
    misses nothing on the line uw: a lattice point q of P on it beyond w
    would put w between two lattice points of g's chord, g(u) = g(w) =
    g(q).  Input that is not a strictly convex CCW cycle raises GeometryError.
    """
    pts = list(hull_so_far)
    n = len(pts)
    if n < 2:
        raise ValueError("residual regions need a hull of at least 2 points")
    shift = 1 if n == 2 else 0
    regions: List[PolySet2] = []
    # The outward normals of the hull turn CCW, and so does the vertex of P
    # deepest beyond each edge: the previous one is the next clip's hint, and
    # the descents walk P about once in all.
    deepest = 0
    for i in range(n):
        u, w, z = pts[i], pts[(i + 1) % n], pts[(i + 2) % n]
        a, c, b = _edge_functional(u, w)
        # A canonical hull turns left strictly, so the next vertex is inside.
        if n > 2 and a * z.x + c * z.y >= b:
            raise GeometryError(f"hull vertices {u}, {w} and {z} are collinear or turn clockwise")
        h = HalfPlane(-a, -c, -(b + shift))
        deepest = _deepest_vertex(P, h, deepest)
        region = clip(P, h, deepest)
        if region is None:
            continue
        if region.is_degenerate and set(_lattice_extremes(region)) <= {u, w}:
            continue
        regions.append(region)
    return regions


def _lattice_points(P: Optional[PolySet2], stats: Optional[RunStats]) -> Set[IntPoint2]:
    """Lattice points of P whose hull is P's integer hull, with no sweep:
    none for None, the lattice extremes of a point or segment, and every
    lattice point of a polygon."""
    if P is None:
        return set()
    if P.is_degenerate:
        return set(_lattice_extremes(P))
    return set(enumerate_integer_points(P, stats=stats))


def _resolve(P: Optional[PolySet2], points: Set[IntPoint2], *, stats: Optional[RunStats] = None) -> Set[IntPoint2]:
    """Lattice points of P whose hull is P's integer hull, given lattice
    points of P extreme in every facet direction (``baseline``'s inward
    hits).  None, a point or a segment gives its :func:`_lattice_points`,
    and so does each residual region outside the hits' hull, counted in
    ``stats.regions``; a region no smaller than P raises GeometryError."""
    if P is None or P.is_degenerate:
        return _lattice_points(P, stats)
    if len(points) <= 1:  # as in _edge_points
        return points
    whole = area(P)
    for region in residual_regions(P, convex_hull(points)):
        if stats is not None:
            stats.regions += 1
        if not area(region) < whole:
            raise GeometryError("a residual region is no smaller than the region it came from")
        points |= _lattice_points(region, stats)
    return points


def _edge_points(P: PolySet2, points: Set[IntPoint2], max_sweep: Optional[int]) -> Set[IntPoint2]:
    """The integer hull vertices of P, given sweep hits `points` of P that
    are extreme in every facet direction.

    A stack holds the edges u -> w still open: the CCW cycle of the hits'
    hull at first (a two-point hull gives both directions).  An edge's
    sweep finds the lattice max m of its functional over P, at least its
    level b as u is in P.  At m = b the edge is final.  Above it, the ends
    p, q of the chord at m, ordered along w - u, are new hull vertices, and
    u -> p, p -> q (when p != q) and q -> w replace the edge.  So each
    sweep closes an edge or finds a vertex, and a sweep that does neither
    raises GeometryError.
    """
    pts = list(convex_hull(points))
    found = set(pts)
    # No hit means no lattice point; one hit, extreme in every facet
    # direction (the normals positively span the plane), is the only one.
    stack = list(zip(pts, pts[1:] + pts[:1])) if len(pts) > 1 else []
    while stack:
        u, w = stack.pop()
        a, c, b = _edge_functional(u, w)
        hit = _run_sweep(P, a, c, True, 0, max_sweep=max_sweep)
        if hit is None or hit.offset < b:
            raise GeometryError(f"the sweep beyond edge {u} -> {w} found less than the edge's own level {b}")
        if hit.offset == b:
            continue
        p, q = hit.lo, hit.hi
        if (q.x - p.x) * (w.x - u.x) + (q.y - p.y) * (w.y - u.y) < 0:
            p, q = q, p
        if p in found or q in found:
            raise GeometryError(f"the sweep beyond edge {u} -> {w} found the known points {p}, {q} again")
        found.update((p, q))
        stack += [(u, p), (p, q), (q, w)] if p != q else [(u, p), (q, w)]
    return found


def integer_hull_new(
    P: Optional[PolySet2],
    cfg: RefineConfig = RefineConfig(),
    *,
    max_sweep: Optional[int] = None,
    stats: Optional[RunStats] = None,
) -> HullResult:
    """Canonical integer hull of a bounded set by facet sweeps from the
    opposite side and one sweep per edge of the partial hull.

    Accepts None (empty set) and degenerate sets.  A polygon of at most
    `cfg.brute_force_cell_threshold` bounding-box cells is enumerated and
    runs no sweep, so no `max_sweep` refuses it; the result is independent
    of `cfg`.  A bad `max_sweep` is refused whatever P is.
    """
    _check_max_sweep(max_sweep)
    if P is None or P.is_degenerate or bbox_cell_count(P) <= cfg.brute_force_cell_threshold:
        return convex_hull(_lattice_points(P, stats))
    return convex_hull(_edge_points(P, replace_facets(P, max_sweep=max_sweep), max_sweep))
