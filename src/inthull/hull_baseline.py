"""Integer hull via inward facet normalization and corner enumeration.

Every facet line is translated inward to the last integer offset whose chord
still contains a lattice point; rebuilding the set from the tightened
half-planes yields Q with the same lattice points as P but with every facet
supported by a lattice chord.  The hull of all stopping-chord extremes is a
central core of the integer hull; what remains are the corner regions of Q
outside that core, which this engine always resolves by direct enumeration —
no recursion — so its cost profile isolates what the sweep-based refinement
engine improves on.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import GeometryError
from .geom import (
    HalfPlane,
    HullResult,
    PolySet2,
    _intersect_halfplanes,
    convex_hull,
)
from .hull_new import _hit_points, _resolve, sweep_facets
from .lattice import SweepHit, _check_max_sweep
from .oracle import RunStats


def normalize_facets(P: PolySet2, *, max_sweep: Optional[int] = None) -> Tuple[Optional[PolySet2], List[SweepHit]]:
    """Tighten every facet offset to its inward stopping offset.

    Returns (Q, hits) where Q has exactly the lattice points of P, or
    (None, []) when some facet sweep finds no lattice chord — which happens
    iff P contains no integer points at all.
    """
    hits = sweep_facets(P, inward=True, max_sweep=max_sweep)
    if hits is None:
        return None, []
    Q = _intersect_halfplanes(
        [HalfPlane(hp.a, hp.c, Fraction(hit.offset)) for hp, hit in zip(P.halfplanes, hits)]
    )
    # Every stopping offset is the maximum of its functional over the lattice
    # of P, so each hit point satisfies all tightened constraints: Q is
    # nonempty (though it may be degenerate).
    if Q is None:
        raise GeometryError("the tightened facets leave no room for the stopping-chord points")
    return Q, hits


def integer_hull_baseline(
    P: Optional[PolySet2],
    *,
    max_sweep: Optional[int] = None,
    stats: Optional[RunStats] = None,
) -> HullResult:
    """Canonical integer hull by normalization and corner enumeration: the
    corner regions of Q outside the hull of the stopping-chord extremes are
    always brute-forced, never recursed.  A bad `max_sweep` is refused
    whatever P is."""
    _check_max_sweep(max_sweep)
    points = None
    if P is not None and not P.is_degenerate:
        # Normalization keeps the lattice, so a None or degenerate Q resolves as P.
        P, hits = normalize_facets(P, max_sweep=max_sweep)
        points = _hit_points(hits)
    return convex_hull(_resolve(P, points, stats=stats))
