"""The enumeration oracle: the trusted reference both engines are tested against."""

from __future__ import annotations

import copy
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from inthull import (
    BudgetExceeded,
    HalfPlane,
    IntPoint2,
    PolySet2,
    RunStats,
    clip,
    contains,
    convex_hull,
    enumerate_integer_points,
    instance_to_polyset,
    integer_hull_baseline,
    integer_hull_new,
    integer_hull_oracle,
    point,
    polyset_from_vertices,
)
import inthull.oracle as oracle
from inthull.generate import convex_chain_polygon, edgecase_halfplanes, random_polygon
from inthull.geom import bounding_box
from inthull.oracle import bbox_cell_count
from helpers import brute_points_in, hull_tuples, octagon, random_polyset


def test_enumerate_handles_missing_input():
    assert enumerate_integer_points(None) == []
    assert integer_hull_oracle(None) == convex_hull([])


def far_octagon() -> PolySet2:
    """Eight vertices near a circle of radius 40, each coordinate with a
    denominator near 10**10, moved by an integer vector of size ~10**9."""
    dirs = [(40, 3), (28, 29), (-2, 40), (-29, 27), (-40, -3), (-27, -29), (3, -40), (29, -28)]
    pts = []
    for k, (dx, dy) in enumerate(dirs):
        q = 10**10 + 7919 * k + 1
        pts.append((Fraction(dx * q + q // 3 + k, q) + 10**9 + 7, Fraction(dy * q - q // 5 - k, q) - 10**9 - 3))
    P = polyset_from_vertices(pts)
    assert len(P.vertices) == 8
    return P


def check_enumerate_matches_full_box_scan(P: PolySet2):
    """P's enumeration is its box scan, in lexicographic order, and every
    point is an IntPoint2 inside P.  Called through its module, so that a
    rebinding of the function reaches it."""
    assert bbox_cell_count(P) <= 10**4
    pts = oracle.enumerate_integer_points(P)
    assert [(p.x, p.y) for p in pts] == brute_points_in(P)
    assert pts == sorted(pts)  # lexicographic output order
    for p in pts:
        assert type(p) is IntPoint2 and contains(P, (p.x, p.y))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6).map(lambda seed: random_polyset(random.Random(seed), max_num=25, max_den=6)))
# A vertical left edge, a vertical right edge, both, one integer column
# (with and without a vertical edge on it), no integer column, a sliver,
# and big denominators far from the origin.
@example(polyset_from_vertices([(0, Fraction(-1, 3)), (7, Fraction(2, 5)), (4, Fraction(13, 2)), (0, Fraction(7, 2))]))
@example(polyset_from_vertices([(Fraction(-5, 2), Fraction(1, 3)), (6, Fraction(-2, 3)), (6, Fraction(29, 4)), (Fraction(1, 2), 5)]))
@example(polyset_from_vertices([(-3, Fraction(1, 2)), (5, Fraction(-7, 3)), (5, Fraction(9, 2)), (-3, Fraction(17, 3))]))
@example(polyset_from_vertices([(Fraction(2, 3), 0), (Fraction(3, 2), Fraction(1, 2)), (Fraction(4, 3), Fraction(11, 2))]))
@example(polyset_from_vertices([(1, Fraction(-1, 2)), (Fraction(3, 2), 1), (1, Fraction(7, 2))]))
@example(polyset_from_vertices([(Fraction(1, 3), 0), (Fraction(2, 3), Fraction(1, 2)), (Fraction(1, 2), 5)]))
@example(polyset_from_vertices([(0, Fraction(1, 3)), (140, Fraction(599, 10)), (140, Fraction(601, 10))]))
@example(far_octagon())
def test_enumerate_matches_full_box_scan(P):
    check_enumerate_matches_full_box_scan(P)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.integers(-4, 4), st.integers(-4, 4), st.integers(-15, 15))
def test_enumerate_count_monotone_under_clipping(seed, a, c, b):
    if a == 0 and c == 0:
        return
    P = random_polyset(random.Random(seed), max_num=20, max_den=5)
    Q = clip(P, HalfPlane(a, c, b))
    n_p = len(enumerate_integer_points(P))
    n_q = 0 if Q is None else len(enumerate_integer_points(Q))
    assert n_q <= n_p


def check_column_ends_match_enumeration(P: PolySet2):
    """The column walk hands on at most two points per column, whose hull
    is the hull of P's enumeration, and charges P's cells and lattice
    points to RunStats as the enumeration does.  Called through its module,
    so that a rebinding of either function reaches it."""
    walked, listed = RunStats(), RunStats()
    ends = oracle._hull_points(P, walked)
    points = oracle.enumerate_integer_points(P, stats=listed)
    assert convex_hull(ends) == convex_hull(points)
    assert max(Counter(x for x, _ in ends).values(), default=0) <= 2
    assert walked == listed == RunStats(brute_cells=bbox_cell_count(P), enumerated_points=len(points))


def translated(P: PolySet2, dx: int, dy: int) -> PolySet2:
    return polyset_from_vertices([(v.x + dx, v.y + dy) for v in P.vertices])


def column_walk_polygons():
    """60 seeded random polygons, 20 of them moved ~10**12; 12 thin wedges
    of the paper's edge case and 10 random slivers; 6 octagons with ~10**10
    denominators moved ~10**12."""
    rng = random.Random(36)
    polys = [random_polyset(random.Random(seed), max_num=25, max_den=6) for seed in range(60)]
    polys += [translated(P, rng.randint(-10**12, 10**12), rng.randint(-10**12, 10**12)) for P in polys[:20]]
    polys += [instance_to_polyset(edgecase_halfplanes(3 + k % 3, 3 + k, k)) for k in range(12)]
    for _ in range(10):
        X, Y, L = rng.randint(-10**6, 10**6), Fraction(rng.randint(0, 999), 1000), rng.randint(50, 2000)
        rise, width = Fraction(rng.randint(-3 * L, 3 * L), rng.randint(1, 7)), Fraction(rng.randint(1, 9), 10)
        polys.append(polyset_from_vertices([(X, Y), (X + L, Y + rise), (X + L, Y + rise + width)]))
    return polys + [octagon(rng, 10**12) for _ in range(6)]


def test_column_ends_have_the_hull_of_every_lattice_point():
    for P in column_walk_polygons():
        check_column_ends_match_enumeration(P)


def test_budget_guard_refuses_large_boxes_up_front():
    P = polyset_from_vertices([(0, 0), (1000, 0), (1000, 1000), (0, 1000)])
    stats = RunStats()
    with pytest.raises(BudgetExceeded, match=r"^bounding box has 1002001 cells \(budget 10000\)$"):
        enumerate_integer_points(P, budget=10**4, stats=stats)
    assert stats == RunStats()  # refused before counting any work
    # At the default budget of 10**8 cells, the enumeration and the column
    # walk refuse alike, before a scan that would take minutes.
    P = polyset_from_vertices([(0, 0), (10**4, 0), (10**4, 10**4), (0, 10**4)])
    for walk in (enumerate_integer_points, oracle._hull_points):
        with pytest.raises(BudgetExceeded, match=r"^bounding box has 100020001 cells \(budget 100000000\)$"):
            walk(P, stats=stats)
        assert stats == RunStats()


def check_a_wide_segment_is_answered_uncharged():
    """Both engines answer a segment by its lattice extremes, charging no
    cell and counting no point, even when its bounding box holds more cells
    than the default budget: (0, 0)-(10**6, 10**6 - 1) spans about 10**12
    cells and holds only its two ends.  The oracle, which lists every
    lattice point, refuses it before any scan."""
    S = PolySet2((point(0, 0), point(10**6, 10**6 - 1)))
    for engine in (integer_hull_new, integer_hull_baseline):
        stats = RunStats()
        assert hull_tuples(engine(S, stats=stats)) == [(0, 0), (10**6, 10**6 - 1)]
        assert stats == RunStats()
    with pytest.raises(BudgetExceeded, match=r"^bounding box has 1000001000000 cells \(budget 100000000\)$"):
        integer_hull_oracle(S)


def test_a_wide_segment_is_answered_uncharged():
    check_a_wide_segment_is_answered_uncharged()


def test_degenerate_enumeration():
    # single integer point
    sq = polyset_from_vertices([(0, 0), (2, 0), (2, 2), (0, 2)])
    corner = clip(sq, HalfPlane(1, 1, 0))
    assert [(p.x, p.y) for p in enumerate_integer_points(corner)] == [(0, 0)]
    # single non-integer point
    tri = polyset_from_vertices([(0, 0), (1, 0), (Fraction(1, 2), Fraction(1, 2))])
    apex = clip(tri, HalfPlane(0, -1, Fraction(-1, 2)))
    assert apex is not None and len(apex.vertices) == 1
    assert enumerate_integer_points(apex) == []
    # segment carrying three lattice points
    edge = clip(sq, HalfPlane(0, 1, 0))
    assert [(p.x, p.y) for p in enumerate_integer_points(edge)] == [(0, 0), (1, 0), (2, 0)]
    # diagonal segment whose endpoints are not lattice points
    box = polyset_from_vertices(
        [
            (Fraction(1, 2), Fraction(1, 2)),
            (Fraction(5, 2), Fraction(1, 2)),
            (Fraction(5, 2), Fraction(5, 2)),
            (Fraction(1, 2), Fraction(5, 2)),
        ]
    )
    diag = clip(clip(box, HalfPlane(1, -1, 0)), HalfPlane(-1, 1, 0))
    assert diag is not None and diag.is_degenerate
    assert [(p.x, p.y) for p in enumerate_integer_points(diag)] == [(1, 1), (2, 2)]


def test_oracle_hull_golden_and_contains_all_points():
    tri = polyset_from_vertices([(0, 0), (4, 0), (0, 4)])
    hull = integer_hull_oracle(tri)
    assert hull_tuples(hull) == [(0, 0), (4, 0), (0, 4)]
    pts = enumerate_integer_points(tri)
    H = polyset_from_vertices(hull_tuples(hull))
    for p in pts:
        assert contains(H, (p.x, p.y))


def check_cell_counts_match_their_bounding_boxes():
    """The budget's cell count is the product of the integer columns and
    rows of the bounding box, 0 when either is empty, on seeded random
    polygons and on points and segments with negative and fractional
    coordinates."""
    sets = [random_polyset(random.Random(seed), max_num=25, max_den=6) for seed in range(40)]
    third, half = Fraction(1, 3), Fraction(1, 2)
    sets += [
        PolySet2(ends)
        for ends in (
            [(-3, -4)],
            [(-3 * half, -7 * third)],
            [(-5 * half, -third), (7 * third, 4)],
            [(-7 * half, -2), (5 * third, -2)],
            [(-7 * half, -third), (5 * third, -third)],
            [(-1, 9 * half), (-1, 11 * half)],
            [(-11 * third, 5), (-2 * third, -7 * half)],
            # Flat extremes: a vertical edge at min x, at max x and at both;
            # a horizontal edge at min y, at max y and at both.
            [(-5 * half, -third), (7 * third, -2), (1, 4), (-5 * half, 3)],
            [(-5 * half, -third), (7 * third, -2), (7 * third, 4), (-1, 3)],
            [(-5 * half, -third), (7 * third, -2), (7 * third, 4), (-5 * half, 3)],
            [(-7 * half, -1), (3, -1), (5 * half, 9 * half), (-1, 4)],
            [(-7 * half, 0), (3, -1), (5 * half, 9 * half), (-1, 9 * half)],
            [(-7 * half, -1), (3, -1), (5 * half, 9 * half), (-1, 9 * half)],
            # The max-y vertex is vertex 0, reached by wrapping round.
            [(0, 0), (2, -5), (1, -1)],
            # Most vertices on the lower left or the upper left, so the
            # middle vertex of the cycle lies far from the y extremes.
            [(0, 0), (1, -3), (2, -5), (3, -6), (5, -7), (10, 0), (5, 5)],
            [(0, 0), (5, -5), (10, 0), (5, 7), (3, 6), (2, 5), (1, 3)],
        )
    ]
    sets += [instance_to_polyset(convex_chain_polygon(n)) for n in (4, 6, 100, 1000, 4000)]
    sets += [octagon(random.Random(seed)) for seed in range(3)]  # ~10**10 denominators
    sets += [instance_to_polyset(random_polygon(n, 10**30, seed)) for seed, n in enumerate((3, 12, 50))]
    for P in sets:
        xmin, xmax, ymin, ymax = bounding_box(P)
        ncols = math.floor(xmax) - math.ceil(xmin) + 1
        nrows = math.floor(ymax) - math.ceil(ymin) + 1
        assert bbox_cell_count(P) == (ncols * nrows if ncols > 0 and nrows > 0 else 0), P


def test_cell_counts_match_their_bounding_boxes():
    half = Fraction(1, 2)
    vertical, lattice_point, off_lattice = ([(half, -1), (half, 3)], [(1, 2)], [(half, 0)])
    assert [bbox_cell_count(PolySet2(ends)) for ends in (vertical, lattice_point, off_lattice)] == [0, 1, 0]
    check_cell_counts_match_their_bounding_boxes()


class CountedForms(tuple):
    """A tuple of forms that counts the forms read from it, by index,
    slice or iteration."""

    reads = 0

    def __getitem__(self, key):
        item = super().__getitem__(key)
        self.reads += len(item) if isinstance(key, slice) else 1
        return item

    def __iter__(self):
        for item in super().__iter__():
            self.reads += 1
            yield item


def test_the_cell_count_reads_logarithmically_many_forms():
    P = instance_to_polyset(convex_chain_polygon(4000))
    n, cells = len(P._forms), bbox_cell_count(P)
    counted = copy.copy(P)
    object.__setattr__(counted, "_forms", CountedForms(P._forms))
    assert bbox_cell_count(counted) == cells
    assert counted._forms.reads <= 6 * math.ceil(math.log2(n)) + 10, counted._forms.reads


def test_stats_accumulate_cells():
    sq = polyset_from_vertices([(0, 0), (3, 0), (3, 3), (0, 3)])
    stats = RunStats()
    enumerate_integer_points(sq, stats=stats)
    enumerate_integer_points(sq, stats=stats)
    assert stats.brute_cells == 2 * 16
