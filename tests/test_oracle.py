"""The enumeration oracle: the trusted reference both engines are tested against."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from inthull import (
    BudgetExceeded,
    HalfPlane,
    PolySet2,
    RunStats,
    bbox_cell_count,
    clip,
    contains,
    convex_hull,
    enumerate_integer_points,
    integer_hull_oracle,
    polyset_from_vertices,
)
from helpers import brute_points_in, hull_tuples, random_polyset


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
    assert bbox_cell_count(P) <= 10**4
    pts = enumerate_integer_points(P)
    assert [(p.x, p.y) for p in pts] == brute_points_in(P)
    assert pts == sorted(pts)  # lexicographic output order
    for p in pts:
        assert contains(P, (p.x, p.y))


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


def test_budget_guard_refuses_large_boxes_up_front():
    P = polyset_from_vertices([(0, 0), (1000, 0), (1000, 1000), (0, 1000)])
    stats = RunStats()
    with pytest.raises(BudgetExceeded):
        enumerate_integer_points(P, budget=10**4, stats=stats)
    assert stats.brute_cells == 0  # refused before counting any work


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


def test_stats_accumulate_cells():
    sq = polyset_from_vertices([(0, 0), (3, 0), (3, 3), (0, 3)])
    stats = RunStats()
    enumerate_integer_points(sq, stats=stats)
    enumerate_integer_points(sq, stats=stats)
    assert stats.brute_cells == 2 * 16
