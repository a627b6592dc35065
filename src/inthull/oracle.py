"""Brute-force lattice enumeration and the oracle hull engine.

The oracle lists a polygon's lattice points column by column, taking each
integer column's lowest and highest lattice point from a walk along the
polygon's two boundary chains in x.  It is the trusted reference the fast
engines are tested against, and also the subroutine both engines use on
regions deemed small enough to enumerate directly.  Budgets are checked
against the bounding-box cell count *before* scanning, so a call either
completes or raises without burning time first.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import List, Optional

from .errors import BudgetExceeded
from .geom import HullResult, IntPoint2, PolySet2, convex_hull
from .lattice import _columns, _lattice_extremes


@dataclass
class RunStats:
    """Mutable counters an engine fills in while computing a hull."""

    brute_cells: int = 0  # total bounding-box cells of brute-forced regions
    regions: int = 0  # refinement/corner regions processed
    max_depth: int = 0  # deepest recursion level reached (new engine)


def bbox_cell_count(P: PolySet2) -> int:
    """Number of integer grid cells in the bounding box of P (0 if none), cached."""
    return P._cells


def enumerate_integer_points(
    P: Optional[PolySet2],
    *,
    budget: int = 10**8,
    stats: Optional[RunStats] = None,
) -> List[IntPoint2]:
    """All integer points of P in lexicographic order.

    Raises BudgetExceeded when the bounding box holds more than `budget`
    cells (checked before any scanning).  P may be degenerate or None.
    """
    if P is None:
        return []
    cells = bbox_cell_count(P)
    if cells > budget:
        raise BudgetExceeded(f"bounding box has {cells} cells (budget {budget})")
    if stats is not None:
        stats.brute_cells += cells
    if P.is_degenerate:
        return _enumerate_degenerate(P)
    points: List[IntPoint2] = []
    for x, y_lo, y_hi in _columns(P):
        points.extend(IntPoint2(x, y) for y in range(y_lo, y_hi + 1))
    return points


def _enumerate_degenerate(P: PolySet2) -> List[IntPoint2]:
    ends = _lattice_extremes(P)
    if len(ends) < 2:
        return list(ends)
    lo, hi = ends
    # Consecutive lattice points on a line differ by its primitive direction.
    g = gcd(hi.x - lo.x, hi.y - lo.y)
    dx, dy = (hi.x - lo.x) // g, (hi.y - lo.y) // g
    return [IntPoint2(lo.x + k * dx, lo.y + k * dy) for k in range(g + 1)]


def integer_hull_oracle(P: Optional[PolySet2], *, stats: Optional[RunStats] = None) -> HullResult:
    """Integer hull by full enumeration: trusted, exponential-ish, bounded by
    the default cell budget of :func:`enumerate_integer_points`."""
    points = enumerate_integer_points(P, stats=stats)
    return convex_hull(points)
