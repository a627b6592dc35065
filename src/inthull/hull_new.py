"""Integer hull via opposite-side sweeps of a half-turn cover of facets,
then at most one sweep per partial-hull edge.

For each facet direction the first lattice chord (scanning from the far side
of the polygon toward the facet) yields the lattice points that are extreme
in that direction; they are vertices of the integer hull H.
``replace_facets``, this engine's one facet pass, sweeps only enough
facets that each swept normal turns to the next by less than a half-turn,
all the way round: those normals positively span the plane, so a single
hit is the only lattice point, and otherwise the hits' hull is a partial
hull of lattice points.  What remains
uncertain is only the part of P beyond each edge u -> w of that hull, and
one sweep of P for the lattice max m of the edge's outward functional
settles it: the sweep of the cut facet of the paper's residual region
beyond the edge, with no clip and no recursion.  The edge is final at its
own level; beyond it, the ends of the chord at m are new hull vertices and
split the edge in three, of which the middle one, on the chord at m, is
final unswept.  Many edges need no sweep at all: each point of the cycle
keeps the hit of the first sweep that found it, whose line
(``SweepHit.line``) bounds every lattice point of P, and an edge whose
functional is a nonnegative combination of its ends' lines with a
combined bound below its level plus one is final.  The edge loop keeps
H's CCW cycle as it splits edges, and each sweep's descent starts midway
between the top vertices of P that the sweeps which found the edge's ends
reached, a range that holds the edge's own top vertex.  A point, a
segment or a polygon of at most ``brute_force_cell_threshold`` cells is
answered without a sweep.
``residual_regions`` cuts P outside a partial hull; only the ``baseline``
engine's corner pass calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .errors import GeometryError
from .geom import (
    HalfPlane,
    HullResult,
    IntPoint2,
    PolySet2,
    Row,
    _deepest,
    _integer,
    _normal,
    area,
    clip,
    convex_hull,
)
from .lattice import SweepHit, _facet_direction, _lattice_extremes, _run_sweep
from .oracle import RunStats, _column_ends, bbox_cell_count, enumerate_integer_points


@dataclass(frozen=True)
class RefineConfig:
    """The cost knob of the ``new`` engine, which never changes the result:
    an input polygon whose bounding box holds at most
    `brute_force_cell_threshold` lattice cells is enumerated, not swept."""

    brute_force_cell_threshold: int = 256

    def __post_init__(self) -> None:
        # A count: a float or a bool is refused (TypeError), as in the core.
        if _integer(self.brute_force_cell_threshold) < 1:
            raise ValueError("brute_force_cell_threshold must be >= 1")


def replace_facets(P: PolySet2) -> Dict[int, SweepHit]:
    """The hit of each facet of a half-turn cover of P's facets, swept
    from the opposite side of P, keyed by facet index in sweep order; empty
    when P has no integer points.  The ends of each hit's chord are
    vertices of the integer hull H.

    Facet 0 is swept first (P has a lattice point iff any sweep finds
    one), then the facet range [0, n], n standing for facet 0 again, is
    bisected until each range's end normals n_i, n_k turn by less than a
    half-turn (cross(n_i, n_k) > 0); neighbouring facets always do.  The
    swept normals then positively span the plane, so if every sweep stops
    at one point, it is P's only lattice point: any other would lie past
    the level of every sweep.
    """
    n = len(P._forms)
    hit = _run_sweep(P, *_facet_direction(P, 0, False))
    if hit is None:
        return {}
    hits = {0: hit}
    ranges = [(0, n)]
    while ranges:
        i, k = ranges.pop()
        # Each hit's line is its facet's normal negated, which keeps the turn.
        (ai, ci, _), (ak, ck, _) = hits[i].line, hits[k % n].line
        if ai * ck - ci * ak > 0:
            continue
        m = (i + k) // 2
        hit = _run_sweep(P, *_facet_direction(P, m, False))
        if hit is None:
            raise GeometryError(f"the sweep of facet {m} found no lattice point, but facet 0's did")
        hits[m] = hit
        if k - m > 1:
            ranges.append((m, k))
        if m - i > 1:
            ranges.append((i, m))
    return hits


def _edge_functional(u: IntPoint2, w: IntPoint2) -> Row:
    """(a, c, b): the primitive outward normal (a, c) of the CCW edge
    u -> w, to its right (:func:`geom._normal`), and its integer level
    b = a*u.x + c*u.y."""
    a, c = _normal(w.x - u.x, w.y - u.y)
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
        deepest = _deepest(P._forms, h.a, h.c, deepest)[0]
        region = clip(P, h, deepest)
        if region is None:
            continue
        if region.is_degenerate and set(_lattice_extremes(region)) <= {u, w}:
            continue
        if not area(region) < whole:
            raise GeometryError("a residual region is no smaller than the polygon it came from")
        regions.append(region)
    return regions


def _lattice_points(P: Optional[PolySet2], stats: Optional[RunStats]) -> Sequence[Sequence[int]]:
    """Distinct lattice points of P whose hull is P's integer hull, with no
    sweep and without listing every lattice point: none for None, the
    lattice extremes of a point or segment, and the two ends of each column
    of a polygon (:func:`oracle._column_ends`)."""
    if P is None:
        return ()
    if P.is_degenerate:
        return _lattice_extremes(P)
    return _column_ends(P, stats=stats)


def _closed_by(cert_u: Row, cert_w: Row, a: int, c: int, b: int) -> bool:
    """Whether the certificates h_u <= beta_u and h_w <= beta_w, rows
    (a, c, beta) that every lattice point of P satisfies, of the ends
    of an edge with outward functional f = a*x + c*y at level b show that
    no lattice point of P has f > b.

    Every lattice point of P satisfies both, so when f = lam*h_u + mu*h_w
    with lam, mu >= 0 it has f <= lam*beta_u + mu*beta_w, and below b + 1
    that bound leaves b as f's lattice max.  Cramer's rule gives lam and mu
    over the denominator D, whose sign is flipped positive.  A bound of
    exactly b + 1 also leaves the edge final, so `<=` would be as sound:
    the only lattice point of level b + 1 would be the apex h_u = beta_u,
    h_w = beta_w, which lies on the chord of u's sweep between its ends,
    both in the cycle, and so at level at most b.
    """
    au, cu, beta_u = cert_u
    aw, cw, beta_w = cert_w
    D, lam, mu = au * cw - cu * aw, a * cw - c * aw, au * c - cu * a
    if D < 0:
        D, lam, mu = -D, -lam, -mu
    return D != 0 and lam >= 0 and mu >= 0 and lam * beta_u + mu * beta_w < (b + 1) * D


def _edge_points(P: PolySet2, hits: Dict[int, SweepHit], stats: Optional[RunStats]) -> HullResult:
    """The integer hull of P, given the sweep hits of a half-turn cover of
    its facets (:func:`replace_facets`), in sweep order.

    A stack holds the edges u -> w still open: the CCW cycle of the hits'
    hull at first (a two-point hull gives both directions).  An edge's
    sweep finds the lattice max m of its functional over P, at least its
    level b as u is in P.  At m = b the edge is final: no lattice point
    lies beyond it, and none on its line outside it, as u and w are
    vertices of H.  Above it, the ends p, q of the chord at m, ordered
    along w - u, are new vertices of H, and u -> p and q -> w replace the
    edge in the cycle and on the stack.  The chord p -> q needs no sweep:
    it has the edge's functional and lies at its lattice max m, so it is
    final.  So each sweep closes an edge or finds a vertex, and a sweep
    that does neither raises GeometryError.  Once every edge is closed,
    the cycle holds every lattice point of P and each of its points is a
    vertex of H: it is H, read from its lex-min vertex.

    Many edges are closed with no sweep.  Each cycle point keeps the first
    sweep hit that found it, and with it the hit's line (a, c, beta), a
    bound on every lattice point of P that the point attains: its
    certificate.  An edge whose ends' certificates bound its functional
    below b + 1 over P's lattice points (:func:`_closed_by`) is final at b;
    only the other edges are swept.

    Each sweep's descent starts at the CCW midpoint of the vertices of P
    at which the hits of u and w began (``SweepHit.vertex``): P's top
    vertices for the normals of their lines.  u attains its line and w its
    own, so those normals lie in the normal cones of u and w in the cycle,
    and the edge's outward normal lies between them, CCW; P's top vertex
    for it therefore lies in the CCW range of vertices between the two.
    The hint changes only the speed of the descent, never the hit.
    """
    found: Dict[IntPoint2, SweepHit] = {}
    for hit in hits.values():
        found.setdefault(hit.lo, hit)
        found.setdefault(hit.hi, hit)
    start = convex_hull(found)
    # One hit, extreme in directions that positively span the plane, is
    # the only lattice point; no hit means none.
    if len(start) < 2:
        return start
    pts = start.points
    cycle = dict(zip(pts, pts[1:] + pts[:1]))
    n = len(P._forms)
    stack = list(cycle.items())
    while stack:
        u, w = stack.pop()
        a, c, b = _edge_functional(u, w)
        if _closed_by(found[u].line, found[w].line, a, c, b):
            continue
        lo = found[u].vertex
        hit = _run_sweep(P, a, c, True, lo + (found[w].vertex - lo) % n // 2)
        if stats is not None:
            stats.edge_sweeps += 1
        if hit is None or hit.offset < b:
            raise GeometryError(f"the sweep beyond edge {u} -> {w} found less than the edge's own level {b}")
        if hit.offset == b:
            continue
        p, q = hit.lo, hit.hi
        if (q.x - p.x) * (w.x - u.x) + (q.y - p.y) * (w.y - u.y) < 0:
            p, q = q, p
        if p in cycle or q in cycle:
            raise GeometryError(f"the sweep beyond edge {u} -> {w} found the known points {p}, {q} again")
        # Assigned left to right, so p = q gives u -> p -> w.
        cycle[u], cycle[p], cycle[q] = p, q, w
        found[p] = found[q] = hit
        stack += [(u, p), (q, w)]
    first = u = min(cycle)
    points = [first]
    while (u := cycle[u]) != first:
        points.append(u)
    return HullResult(tuple(points))


def integer_hull_new(
    P: Optional[PolySet2],
    cfg: RefineConfig = RefineConfig(),
    *,
    stats: Optional[RunStats] = None,
) -> HullResult:
    """Canonical integer hull of a bounded set by facet sweeps from the
    opposite side and at most one sweep per edge of the partial hull.

    Accepts None (empty set) and degenerate sets.  A polygon of at most
    `cfg.brute_force_cell_threshold` bounding-box cells is enumerated and
    runs no sweep; the result is independent of `cfg`.
    """
    if P is None or P.is_degenerate:
        return convex_hull(_lattice_points(P, stats))
    if bbox_cell_count(P) <= cfg.brute_force_cell_threshold:
        return convex_hull(enumerate_integer_points(P, stats=stats))
    hits = replace_facets(P)
    if stats is not None:
        stats.facets(hits)
    return _edge_points(P, hits, stats)
