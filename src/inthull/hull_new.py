"""Integer hull via per-facet opposite-side sweeps and recursive refinement.

For each facet direction the first lattice chord (scanning from the far side
of the polygon toward the facet) yields the lattice points that are extreme
in that direction; they are vertices-in-waiting of the integer hull.  What
remains uncertain is only the area of P outside the hull of those candidates,
which this module cuts into residual regions and resolves either by direct
enumeration (small regions) or by applying the same algorithm recursively
(large ones).  A final convex hull of everything collected is the answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from .errors import GeometryError
from .geom import (
    HalfPlane,
    HullResult,
    IntPoint2,
    PolySet2,
    area,
    chord,
    clip,
    convex_hull,
    line_through,
)
from .lattice import SweepHit, _lattice_extremes, _run_sweep
from .oracle import RunStats, bbox_cell_count, enumerate_integer_points


@dataclass(frozen=True)
class RefineConfig:
    """Cost knobs for the refinement stage; the result never depends on them.

    Regions whose bounding box holds at most `brute_force_cell_threshold`
    lattice cells are enumerated directly; larger ones are refined
    recursively until `max_depth` levels, after which enumeration is forced.
    """

    brute_force_cell_threshold: int = 256
    max_depth: int = 16

    def __post_init__(self) -> None:
        if self.brute_force_cell_threshold < 1:
            raise ValueError("brute_force_cell_threshold must be >= 1")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")


def sweep_facets(
    P: PolySet2,
    *,
    inward: bool,
    max_sweep: Optional[int] = None,
    stats: Optional[RunStats] = None,
) -> Optional[List[SweepHit]]:
    """Sweep every facet of P inward or from the opposite side, in order.

    Returns one hit per facet, or None at the first facet whose sweep finds
    no lattice chord (which happens iff P has no integer points at all).
    """
    hits: List[SweepHit] = []
    hint: Optional[int] = None
    for i in range(len(P.halfplanes)):
        out = _run_sweep(P, i, inward=inward, max_sweep=max_sweep, hint=hint)
        if out.hit is None:
            return None
        hits.append(out.hit)
        # The minimizing vertex rotates with the facet normal, so this
        # facet's anchor is a one-step hint for the next facet.
        hint = out.anchor_min
    return hits


def _hit_points(hits: List[SweepHit]) -> Set[IntPoint2]:
    """The extreme lattice points of every stopping chord."""
    return {p for hit in hits for p in (hit.lo, hit.hi)}


def replace_facets(
    P: PolySet2,
    *,
    max_sweep: Optional[int] = None,
    stats: Optional[RunStats] = None,
) -> Set[IntPoint2]:
    """Sweep every facet from the opposite side of P.

    Returns the extreme lattice points of every stopping chord, each a
    vertex of the integer hull; an empty set means P has no integer points.
    """
    hits = sweep_facets(P, inward=False, max_sweep=max_sweep, stats=stats)
    return set() if hits is None else _hit_points(hits)


def _degenerate_candidates(R: PolySet2) -> Set[IntPoint2]:
    """Extreme lattice points of a point/segment region (all that a hull needs)."""
    return set(_lattice_extremes(R.vertices))


def _filter_region(
    region: Optional[PolySet2], known: Tuple[IntPoint2, IntPoint2]
) -> Optional[PolySet2]:
    """Drop empty clips and degenerate clips that cannot add new hull points.

    A degenerate (point/segment) region is kept only when its extreme lattice
    points include one outside `known` (the generating hull edge's
    endpoints); anything between two known hull points is never a hull
    vertex.
    """
    if region is None:
        return None
    if not region.is_degenerate:
        return region
    extremes = _degenerate_candidates(region)
    if all(p in known for p in extremes):  # vacuously true when no lattice points
        return None
    return region


def _two_point_regions(P: PolySet2, u: IntPoint2, w: IntPoint2) -> List[PolySet2]:
    """Residual regions when the partial hull is a single lattice segment.

    Every lattice point of P either lies on the segment's line — covered by
    the degenerate chord piece — or at integer level >= b+1 or <= b-1 of the
    line's functional, covered by the two shifted clips.  The open strips in
    between contain no lattice points, so the three pieces cover the lattice
    of P exactly, each with strictly smaller area than P.
    """
    l = line_through(u, w)
    if l.b.denominator != 1:
        raise GeometryError(f"the line through lattice points {u} and {w} has offset {l.b}")
    b = l.b
    known = (u, w)
    regions: List[PolySet2] = []
    for hp in (HalfPlane(l.a, l.c, b - 1), HalfPlane(-l.a, -l.c, -(b + 1))):
        region = _filter_region(clip(P, hp), known)
        if region is not None:
            regions.append(region)
    piece = _filter_region(chord(P, l), known)
    if piece is not None:
        regions.append(piece)
    return regions


def residual_regions(P: PolySet2, hull_so_far: HullResult) -> List[PolySet2]:
    """Clip P to the outside of each edge of the partial hull.

    Together the returned regions contain every lattice point of P that is
    not interior to the partial hull, and each has strictly smaller area
    than P.  Degenerate clips that cannot contribute new hull points are
    filtered out.
    """
    pts = list(hull_so_far)
    if len(pts) < 2:
        raise ValueError("residual regions need a hull of at least 2 points")
    if len(pts) == 2:
        return _two_point_regions(P, pts[0], pts[1])
    regions: List[PolySet2] = []
    n = len(pts)
    for i in range(n):
        u, w = pts[i], pts[(i + 1) % n]
        z = pts[(i + 2) % n]
        l = line_through(u, w)
        fz = l.eval_at(z)
        # Canonical hulls have no 3 collinear vertices, so z picks a side.
        if fz == l.b:
            raise GeometryError(f"hull vertices {u}, {w} and {z} are collinear")
        if fz < l.b:
            outer = HalfPlane(-l.a, -l.c, -l.b)
        else:
            outer = HalfPlane(l.a, l.c, l.b)
        region = _filter_region(clip(P, outer), (u, w))
        if region is not None:
            regions.append(region)
    return regions


def _resolve_regions(
    P: PolySet2,
    points: Set[IntPoint2],
    *,
    cfg: RefineConfig = RefineConfig(),
    depth_left: int = 0,
    level: int = 0,
    max_sweep: Optional[int] = None,
    stats: Optional[RunStats] = None,
) -> Set[IntPoint2]:
    """Add to `points` every lattice point of P that their hull may miss.

    `points` are lattice points of P, extreme in every facet direction.  Each
    residual region outside their hull is enumerated when it is small or no
    depth is left, and otherwise refined by the same facet sweeps; the hull
    of the returned set is P's integer hull.
    """
    if len(points) <= 1:
        # No hit on some facet means no lattice points anywhere; a single
        # candidate attaining every facet's lattice extreme is the whole
        # lattice (the facet normals positively span the plane).
        return points
    hull_so_far = convex_hull(points)
    parent_area = area(P)
    for region in residual_regions(P, hull_so_far):
        if stats is not None:
            stats.regions += 1
        if not area(region) < parent_area:
            raise GeometryError("a residual region is no smaller than the region it came from")
        if region.is_degenerate:
            points |= _degenerate_candidates(region)
        elif depth_left <= 0 or bbox_cell_count(region) <= cfg.brute_force_cell_threshold:
            points |= set(enumerate_integer_points(region, stats=stats))
        else:
            points |= _collect_candidates(
                region, cfg, depth_left - 1, level + 1, max_sweep, stats
            )
    return points


def _collect_candidates(
    P: PolySet2,
    cfg: RefineConfig,
    depth_left: int,
    level: int,
    max_sweep: Optional[int],
    stats: Optional[RunStats],
) -> Set[IntPoint2]:
    """Lattice points of P whose convex hull equals P's integer hull."""
    if stats is not None and level > stats.max_depth:
        stats.max_depth = level
    points = replace_facets(P, max_sweep=max_sweep, stats=stats)
    return _resolve_regions(
        P,
        points,
        cfg=cfg,
        depth_left=depth_left,
        level=level,
        max_sweep=max_sweep,
        stats=stats,
    )


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
    enumeration.
    """
    if P is None:
        return convex_hull([])
    if P.is_degenerate:
        return convex_hull(_degenerate_candidates(P))
    points = _collect_candidates(P, cfg, cfg.max_depth, 0, max_sweep, stats)
    return convex_hull(points)
