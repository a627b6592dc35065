"""The enumeration oracle: the trusted reference both engines are tested against."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inthull import (
    BudgetExceeded,
    HalfPlane,
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


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_enumerate_matches_full_box_scan(seed):
    P = random_polyset(random.Random(seed), max_num=25, max_den=6)
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
