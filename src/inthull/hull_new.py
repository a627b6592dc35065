"""Integer hull via per-facet opposite-side sweeps and recursive refinement.

For each facet direction the first lattice chord (scanning from the far side
of the polygon toward the facet) yields the lattice points that are extreme
in that direction; they are vertices-in-waiting of the integer hull.  What
remains uncertain is only the area of P outside the hull of those candidates.
This module cuts it into residual regions, one clip per directed edge of
that hull (a two-point hull is the 2-cycle u -> w -> u, cut one level out on
each side), and resolves each region as it resolved P.  ``_resolve`` is that
one step for every set, the input polygon being the first region: a point or
segment gives its lattice extremes, a small set (or one with no depth left)
is enumerated, and any other set is swept and its regions resolved one level
deeper (the ``baseline`` engine runs it with no depth left).  A final convex
hull of everything collected is the answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import index
from typing import List, Optional, Set

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
from .lattice import SweepHit, _check_max_sweep, _lattice_extremes, _run_sweep
from .oracle import RunStats, bbox_cell_count, enumerate_integer_points


@dataclass(frozen=True)
class RefineConfig:
    """Cost knobs for the refinement stage; the result never depends on them.

    Sets whose bounding box holds at most `brute_force_cell_threshold`
    lattice cells, the input polygon included, are enumerated directly;
    larger ones are swept and refined recursively until `max_depth` levels
    of regions, after which enumeration is forced.
    """

    brute_force_cell_threshold: int = 256
    max_depth: int = 16

    def __post_init__(self) -> None:
        # Both are counts: a float is refused (TypeError), as in the core.
        if index(self.brute_force_cell_threshold) < 1:
            raise ValueError("brute_force_cell_threshold must be >= 1")
        if index(self.max_depth) < 1:
            raise ValueError("max_depth must be >= 1")


def sweep_facets(P: PolySet2, *, inward: bool, max_sweep: Optional[int] = None) -> Optional[List[SweepHit]]:
    """Sweep every facet of P inward or from the opposite side, in order.

    Each sweep reads its facet's normal from P's integer forms and starts
    from its own facet or opposite vertex (:func:`lattice._run_sweep`).
    Returns one hit per facet, or None at the first facet whose sweep finds
    no lattice chord (which happens iff P has no integer points at all).
    """
    hits: List[SweepHit] = []
    for i in range(len(P._forms)):
        hit = _run_sweep(P, i, inward=inward, max_sweep=max_sweep)
        if hit is None:
            return None
        hits.append(hit)
    return hits


def _hit_points(hits: List[SweepHit]) -> Set[IntPoint2]:
    """The extreme lattice points of every stopping chord."""
    return {p for hit in hits for p in (hit.lo, hit.hi)}


def replace_facets(P: PolySet2, *, max_sweep: Optional[int] = None) -> Set[IntPoint2]:
    """Sweep every facet from the opposite side of P.

    Returns the extreme lattice points of every stopping chord, each a
    vertex of the integer hull; an empty set means P has no integer points.
    """
    hits = sweep_facets(P, inward=False, max_sweep=max_sweep)
    return set() if hits is None else _hit_points(hits)


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
    misses nothing on the line uw itself: a lattice point q of P on that
    line beyond w would give g(u) = g(w) = g(q), so w would lie between two
    lattice points of g's stopping chord and not be one of its extremes.
    Input that is not a strictly convex CCW cycle raises GeometryError.
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
        g = gcd(w.y - u.y, u.x - w.x)
        a, c = (w.y - u.y) // g, (u.x - w.x) // g
        b = a * u.x + c * u.y
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


def _resolve(
    P: Optional[PolySet2],
    points: Optional[Set[IntPoint2]] = None,
    *,
    cfg: RefineConfig = RefineConfig(),
    depth_left: int = 0,
    max_sweep: Optional[int] = None,
    stats: Optional[RunStats] = None,
    P_area: Optional[Fraction] = None,
) -> Set[IntPoint2]:
    """Lattice points of P whose hull is P's integer hull.

    The input set and every residual region are resolved alike.  None is
    empty and a point or segment gives its lattice extremes.  Given no
    candidate `points`, a set with no depth left, or with at most
    `cfg.brute_force_cell_threshold` bounding-box cells, is enumerated; any
    other set is swept from the opposite side of each facet.  Each residual
    region outside the hull of the candidates is then resolved one level
    deeper.  The candidates must be lattice points of P, extreme in every
    facet direction (the ``baseline`` engine passes its inward hits).
    `P_area` is P's area when the caller has it (a region's parent does).
    """
    if P is None:
        return set()
    if P.is_degenerate:
        return set(_lattice_extremes(P))
    if points is None:
        if depth_left <= 0 or bbox_cell_count(P) <= cfg.brute_force_cell_threshold:
            return set(enumerate_integer_points(P, stats=stats))
        if stats is not None:
            stats.max_depth = max(stats.max_depth, cfg.max_depth + 1 - depth_left)
        points = replace_facets(P, max_sweep=max_sweep)
    if len(points) <= 1:
        # No hit on some facet means no lattice points anywhere; a single
        # candidate attaining every facet's lattice extreme is the whole
        # lattice (the facet normals positively span the plane).
        return points
    hull_so_far = convex_hull(points)
    P_area = area(P) if P_area is None else P_area
    for region in residual_regions(P, hull_so_far):
        if stats is not None:
            stats.regions += 1
        region_area = area(region)
        if not region_area < P_area:
            raise GeometryError("a residual region is no smaller than the region it came from")
        points |= _resolve(
            region, cfg=cfg, depth_left=depth_left - 1, max_sweep=max_sweep, stats=stats, P_area=region_area
        )
    return points


def integer_hull_new(
    P: Optional[PolySet2],
    cfg: RefineConfig = RefineConfig(),
    *,
    max_sweep: Optional[int] = None,
    stats: Optional[RunStats] = None,
) -> HullResult:
    """Canonical integer hull of a bounded set by facet sweeps + refinement.

    Accepts None (empty set) and degenerate sets.  The result is
    independent of `cfg`, which only trades recursion against direct
    enumeration.  A bad `max_sweep` is refused whatever P is.
    """
    _check_max_sweep(max_sweep)
    # P is swept one level above its regions, which may recurse cfg.max_depth deep.
    return convex_hull(_resolve(P, cfg=cfg, depth_left=cfg.max_depth + 1, max_sweep=max_sweep, stats=stats))
