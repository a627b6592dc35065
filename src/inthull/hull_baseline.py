"""Integer hull via inward facet normalization and corner enumeration.

Every facet line is translated inward to the last integer offset whose chord
still contains a lattice point, one sweep per facet in this engine's own
facet pass (``normalize_facets``).  Each sweep proves its line as an integer
row (``SweepHit.line``), and intersecting those rows as they stand yields Q
with the same lattice points as P but with every facet supported by a
lattice chord.  The hull of all stopping-chord extremes is a central core of
the integer hull; what remains are the corner regions of Q outside that
core (``hull_new.residual_regions``), which this engine always resolves by
a brute-force walk of their columns, so its cost profile isolates what the
edge sweeps of the ``new`` engine improve on.  The walk
(``oracle._hull_points``, which also answers a None, point or segment Q)
hands the final hull only each column's lowest and highest lattice point,
the only ones that can be its vertices.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .errors import GeometryError
from .geom import HullResult, PolySet2, _intersect_halfplanes, convex_hull
from .hull_new import residual_regions
from .lattice import SweepHit, _facet_direction, _run_sweep
from .oracle import RunStats, _hull_points


def normalize_facets(P: PolySet2) -> Tuple[Optional[PolySet2], List[SweepHit]]:
    """Tighten every facet offset to its inward stopping offset: Q's rows
    are the lines the facet sweeps prove.

    Returns (Q, hits) where Q has exactly the lattice points of P, or
    (None, []) when some facet sweep finds no lattice chord — which happens
    iff P contains no integer points at all.
    """
    hits: List[SweepHit] = []
    for i in range(len(P._forms)):
        hit = _run_sweep(P, *_facet_direction(P, i, True))
        if hit is None:
            return None, []
        hits.append(hit)
    Q = _intersect_halfplanes([hit.line for hit in hits])
    # Every stopping offset is the maximum of its functional over the lattice
    # of P, so each hit point satisfies all tightened constraints: Q is
    # nonempty (though it may be degenerate).
    if Q is None:
        raise GeometryError("the tightened facets leave no room for the stopping-chord points")
    return Q, hits


def integer_hull_baseline(P: Optional[PolySet2], *, stats: Optional[RunStats] = None) -> HullResult:
    """Canonical integer hull by normalization and corner enumeration: the
    corner regions of Q outside the hull of the stopping-chord extremes are
    always brute-forced, each counted in ``stats.regions``, with every
    cell charged to ``stats.brute_cells`` and every lattice point to
    ``stats.enumerated_points``.

    The distinct stopping-chord points and the two ends of every region's
    columns are pooled in one list, not a set: points shared by regions
    repeat, and the final :func:`convex_hull` keeps only each column's two
    ends."""
    if stats is None:
        stats = RunStats()
    points: list = []
    if P is not None and not P.is_degenerate:
        # Normalization keeps the lattice, so a None or degenerate Q answers as P.
        P, hits = normalize_facets(P)
        stats.facets(dict(enumerate(hits)))
        points = list({p for hit in hits for p in (hit.lo, hit.hi)})
    if P is None or P.is_degenerate or len(points) <= 1:
        return convex_hull(_hull_points(P, stats))
    for region in residual_regions(P, convex_hull(points)):
        stats.regions += 1
        points += _hull_points(region, stats)
    return convex_hull(points)
