"""Integer hull via per-facet opposite-side sweeps, then one sweep per
partial-hull edge.

For each facet direction the first lattice chord (scanning from the far side
of the polygon toward the facet) yields the lattice points that are extreme
in that direction; they are vertices-in-waiting of the integer hull.  A
hull point's normal cone, the directions in which it is the lattice max, is
convex, so once two facets less than a half-turn apart stop at the same
point, every facet between them stops there alone: ``replace_facets``
sweeps only the facets that bisection cannot settle that way.  What
remains uncertain is only the part of P beyond each edge u -> w of their
hull, and one sweep of P for the lattice max m of the edge's outward
functional settles it: the sweep of the cut facet of the paper's residual
region beyond the edge, with no clip and no recursion.  The edge is final
at its own level; beyond it, the ends of the chord at m are new hull
vertices and split the edge in three, of which the middle one, on the
chord at m, is final unswept.  An edge sweep's descent starts at the
opposite vertex of the facet that found u, near the top of P in the edge's
direction.  A point, a segment or a polygon of at most
``brute_force_cell_threshold`` cells is answered without a sweep.
``residual_regions`` cuts P outside a partial hull; only the ``baseline``
engine's corner pass calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import index
from typing import Dict, List, Optional, Sequence, Set, Tuple

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
from .lattice import SweepHit, _facet_direction, _lattice_extremes, _run_sweep
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


def sweep_facets(P: PolySet2, *, inward: bool) -> Optional[List[SweepHit]]:
    """Sweep every facet of P inward or from the opposite side, in order
    (:func:`lattice._facet_direction`): one hit per facet, or None at the
    first facet whose sweep finds no lattice chord (iff P has no integer
    points at all)."""
    hits: List[SweepHit] = []
    for i in range(len(P._forms)):
        hit = _run_sweep(P, *_facet_direction(P, i, inward))
        if hit is None:
            return None
        hits.append(hit)
    return hits


def _hit_points(hits: List[SweepHit]) -> Set[IntPoint2]:
    """The extreme lattice points of every stopping chord."""
    return {p for hit in hits for p in (hit.lo, hit.hi)}


def replace_facets(P: PolySet2, stats: Optional[RunStats] = None) -> Dict[IntPoint2, int]:
    """The extreme lattice points of every facet's stopping chord, swept
    from the opposite side of P, each a vertex of the integer hull H and
    mapped to the first facet whose sweep found it; empty when P has no
    integer points.

    Not every facet is swept.  Facet i's sweep finds the face of H on which
    -n_i is greatest, for the facet's outward normal n_i, and the
    directions in which a hull point p is greatest form a convex cone, p's
    normal cone.  If the chords of facets i < k both hold p and n_i turns
    to n_k by less than a half-turn (cross(n_i, n_k) > 0), the normal of
    every facet between them lies strictly inside that cone, so its chord
    is p alone and needs no sweep.  Facet 0 is swept first (P has a lattice
    point iff any sweep finds one), then the facet range [0, n], n standing
    for facet 0 again, is bisected while a range fails that test.  The
    answer is the point set of sweeping every facet.
    """
    n = len(P._forms)
    a, c, top, hint = _facet_direction(P, 0, False)
    hit = _run_sweep(P, a, c, top, hint)
    if stats is not None:
        stats.facet_sweeps += 1
    if hit is None:
        return {}
    found = {hit.lo: 0, hit.hi: 0}
    # (a, c, lo, hi) of each swept facet: its outward normal and chord ends.
    ends: List[Optional[Tuple[int, int, IntPoint2, IntPoint2]]] = [None] * (n + 1)
    ends[0] = ends[n] = a, c, hit.lo, hit.hi
    ranges = [(0, n)]
    while ranges:
        i, k = ranges.pop()
        (ai, ci, lo, hi), (ak, ck, lo_k, hi_k) = ends[i], ends[k]
        if ai * ck - ci * ak > 0 and (lo in (lo_k, hi_k) or hi in (lo_k, hi_k)):
            continue
        m = (i + k) // 2
        a, c, top, hint = _facet_direction(P, m, False)
        hit = _run_sweep(P, a, c, top, hint)
        if stats is not None:
            stats.facet_sweeps += 1
        if hit is None:
            raise GeometryError(f"the sweep of facet {m} found no lattice point, but facet 0's did")
        ends[m] = a, c, hit.lo, hit.hi
        found.setdefault(hit.lo, m)
        found.setdefault(hit.hi, m)
        if k - m > 1:
            ranges.append((m, k))
        if m - i > 1:
            ranges.append((i, m))
    return found


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
    vertex.  Each region is strictly smaller than P in area; a region that
    is not raises GeometryError.

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
    whole = area(P)
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
        if not area(region) < whole:
            raise GeometryError("a residual region is no smaller than the polygon it came from")
        regions.append(region)
    return regions


def _lattice_points(P: Optional[PolySet2], stats: Optional[RunStats]) -> Sequence[IntPoint2]:
    """Distinct lattice points of P whose hull is P's integer hull, with no
    sweep, as the layer below returns them: none for None, the lattice
    extremes of a point or segment, and every lattice point of a polygon."""
    if P is None:
        return ()
    if P.is_degenerate:
        return _lattice_extremes(P)
    return enumerate_integer_points(P, stats=stats)


def _edge_points(P: PolySet2, hits: Dict[IntPoint2, int], stats: Optional[RunStats]) -> Set[IntPoint2]:
    """The integer hull vertices of P, given sweep hits of P that are
    extreme in every facet direction, each mapped to the facet i whose
    opposite sweep found it.

    A stack holds the edges u -> w still open: the CCW cycle of the hits'
    hull at first (a two-point hull gives both directions).  An edge's
    sweep finds the lattice max m of its functional over P, at least its
    level b as u is in P.  At m = b the edge is final.  Above it, the ends
    p, q of the chord at m, ordered along w - u, are new hull vertices, and
    u -> p and q -> w replace the edge.  The chord p -> q needs no sweep:
    it has the edge's functional and lies at its lattice max m, so it is
    final.  So each sweep closes an edge or finds a vertex, and a sweep
    that does neither raises GeometryError.

    The edge's outward normal bounds u's normal cone, which holds -n_i, so
    P's top vertex in the edge's direction lies near its top vertex in
    direction -n_i, across P from facet i: the sweep's descent starts at
    the vertex halfway round from the facet, i + (n + 1) // 2, and split
    edges keep their parent's hint.
    """
    n = len(P._forms)
    pts = list(convex_hull(hits))
    found = set(pts)
    # No hit means no lattice point; one hit, extreme in every facet
    # direction (the normals positively span the plane), is the only one.
    stack = [(u, w, hits[u] + (n + 1) // 2) for u, w in zip(pts, pts[1:] + pts[:1])] if len(pts) > 1 else []
    while stack:
        u, w, hint = stack.pop()
        a, c, b = _edge_functional(u, w)
        hit = _run_sweep(P, a, c, True, hint)
        if stats is not None:
            stats.edge_sweeps += 1
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
        stack += [(u, p, hint), (q, w, hint)]
    return found


def integer_hull_new(
    P: Optional[PolySet2],
    cfg: RefineConfig = RefineConfig(),
    *,
    stats: Optional[RunStats] = None,
) -> HullResult:
    """Canonical integer hull of a bounded set by facet sweeps from the
    opposite side and one sweep per edge of the partial hull.

    Accepts None (empty set) and degenerate sets.  A polygon of at most
    `cfg.brute_force_cell_threshold` bounding-box cells is enumerated and
    runs no sweep; the result is independent of `cfg`.
    """
    if P is None or P.is_degenerate or bbox_cell_count(P) <= cfg.brute_force_cell_threshold:
        return convex_hull(_lattice_points(P, stats))
    return convex_hull(_edge_points(P, replace_facets(P, stats), stats))
