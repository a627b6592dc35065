"""Brute-force lattice enumeration and the oracle hull engine.

The oracle lists a polygon's lattice points column by column, taking each
integer column's lowest and highest lattice point from a walk along the
polygon's two boundary chains in x.  It is the trusted reference the fast
engines are tested against.  ``new`` enumerates a small input polygon
with it.  Every other set an engine hulls without a sweep (none, a point,
a segment, and each corner region of ``baseline``) goes through
``_hull_points``: a point or segment by its lattice extremes, uncharged,
and a polygon by the same walk's column ends, the only points of a column
that can be hull vertices.  Budgets are checked against the bounding-box
cell count *before* scanning, so a call either completes or raises without
burning time first.  Every call counts: a door given no :class:`RunStats`
makes one, so ``_charge`` and ``_hull_points`` always hold one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from math import gcd
from typing import List, Mapping, Optional, Sequence, Tuple

from .errors import BudgetExceeded
from .geom import Form, HullResult, IntPoint2, PolySet2, _integer, convex_hull
from .lattice import SweepHit, _columns, _lattice_extremes


@dataclass
class RunStats:
    """Mutable counters an engine fills in while computing a hull."""

    brute_cells: int = 0  # total bounding-box cells of brute-forced regions
    regions: int = 0  # corner regions of the baseline engine
    max_depth: int = 0  # always 0: no engine recurses; kept for the benchmark's readers
    facet_sweeps: int = 0  # sweeps of one facet's direction, inward or from the opposite side
    edge_sweeps: int = 0  # sweeps of `new` beyond one edge of its partial hull
    enumerated_points: int = 0  # lattice points of brute-forced sets, listed or counted per column

    def facets(self, hits: Mapping[int, SweepHit]) -> None:
        """Count an engine's facet pass from its hits, keyed by facet index:
        one sweep per hit, or the one sweep that found no lattice point, as
        a pass stops there and P then has none for any sweep to find."""
        self.facet_sweeps += len(hits) or 1


def _turn_index(forms: Sequence[Form], c: int, s: int, lo: int, hi: int) -> int:
    """The first index i in [lo, hi) at which coordinate c (0 for x, 1 for
    y) does not move in direction s (1 up, -1 down) from vertex i to vertex
    (i + 1) mod n, or hi if there is none; on the callers' ranges that move
    holds up to some index and fails after it."""
    n = len(forms)
    while lo < hi:
        mid = (lo + hi) // 2
        p, q = forms[mid], forms[(mid + 1) % n]
        if s * (q[c] * p[2] - p[c] * q[2]) > 0:
            lo = mid + 1
        else:
            hi = mid
    return lo


def bbox_cell_count(P: PolySet2) -> int:
    """Number of integer grid cells in the bounding box of P (0 if none); -ceil(x) = floor(-x).

    Reads O(log n) of P's n forms.  Vertex 0 of a canonical set is its
    lex-smallest, so a minimum of x.  Along the cycle (a segment's two ends
    in lex order, wrapping back to vertex 0) x rises strictly up to the
    first maximum-x vertex r, then holds for at most one vertical edge and
    falls; y falls, holds for at most one horizontal edge and rises over
    the lower chain 0..r, and mirrors that over the upper chain r..n
    (vertex n is vertex 0).  Each extreme is thus where a monotone step
    test turns false, found by binary search (:func:`_turn_index`), and the
    count is exact.
    """
    forms = P._forms
    n = len(forms)
    r = _turn_index(forms, 0, 1, 0, n - 1)
    X0, _, W0 = forms[0]
    Xr, _, Wr = forms[r]
    _, Ylo, Wlo = forms[_turn_index(forms, 1, -1, 0, r)]
    _, Yhi, Whi = forms[_turn_index(forms, 1, 1, r, n) % n]
    ncols = Xr // Wr + -X0 // W0 + 1
    nrows = Yhi // Whi + -Ylo // Wlo + 1
    return ncols * nrows if ncols > 0 and nrows > 0 else 0


_CELL_BUDGET = 10**8  # the default bounding-box cells of one brute-forced set


def _charge(P: PolySet2, budget: int, stats: RunStats) -> None:
    """Refuse P with BudgetExceeded when its bounding box holds more than
    `budget` cells, before any scan, else add its cells to `brute_cells`."""
    cells = bbox_cell_count(P)
    if cells > budget:
        raise BudgetExceeded(f"bounding box has {cells} cells (budget {budget})")
    stats.brute_cells += cells


def enumerate_integer_points(
    P: Optional[PolySet2],
    *,
    budget: int = _CELL_BUDGET,
    stats: Optional[RunStats] = None,
) -> List[IntPoint2]:
    """All integer points of P in lexicographic order, as IntPoint2s.

    Each column from the column walk is expanded by C-level iteration, with
    no Python frame per point.  Raises BudgetExceeded when the bounding box
    holds more than `budget` cells (checked before any scanning), and
    TypeError when `budget` is not an integer (:func:`geom._integer`).  P
    may be degenerate or None.
    """
    _integer(budget)
    if stats is None:
        stats = RunStats()
    if P is None:
        return []
    _charge(P, budget, stats)
    if P.is_degenerate:
        points = _enumerate_degenerate(P)
    else:
        points = []
        for x, y_lo, y_hi in _columns(P):
            # tuple.__new__(IntPoint2, (x, y)) is IntPoint2(x, y) without the
            # named tuple's Python-level __new__ frame.
            points.extend(map(tuple.__new__, repeat(IntPoint2), zip(repeat(x), range(y_lo, y_hi + 1))))
    stats.enumerated_points += len(points)
    return points


def _hull_points(P: Optional[PolySet2], stats: RunStats) -> Sequence[Tuple[int, int]]:
    """Lattice points of P whose hull is P's integer hull, without listing
    every lattice point: none for None; the lattice extremes of a point or
    segment, charged no cells and counted as no points; and the lowest and
    highest lattice point of each integer column of a polygon, by
    increasing x, one point for a column of one.

    A polygon is charged and refused as :func:`enumerate_integer_points` is
    at its default budget; that function lists the points between the ends
    too, and `enumerated_points` counts them all.
    """
    if P is None:
        return ()
    if P.is_degenerate:
        return _lattice_extremes(P)
    _charge(P, _CELL_BUDGET, stats)
    columns = list(_columns(P))
    ends: List[Tuple[int, int]] = []
    for x, y_lo, y_hi in columns:
        ends += ((x, y_lo), (x, y_hi)) if y_lo < y_hi else ((x, y_lo),)
    stats.enumerated_points += sum(y_hi - y_lo + 1 for _, y_lo, y_hi in columns)
    return ends


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
