"""The tighten-then-enumerate hull engine."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inthull import (
    RunStats,
    SweepLimitExceeded,
    area,
    contains,
    convex_hull,
    integer_hull_baseline,
    integer_hull_new,
    integer_hull_oracle,
    normalize_facets,
    polyset_from_vertices,
)
from inthull.hull_new import residual_regions
from helpers import brute_points_in, hull_tuples, random_polyset

TRI_SHALLOW = polyset_from_vertices([(-2, Fraction(-1, 5)), (3, Fraction(-1, 5)), (Fraction(17, 10), Fraction(39, 10))])
HULL_SHALLOW = [(-1, 0), (2, 0), (2, 2), (1, 3), (0, 2)]

TRI_SLANTED = polyset_from_vertices(
    [(Fraction(-5, 2), Fraction(-1, 5)), (Fraction(11, 5), Fraction(-7, 10)), (Fraction(18, 5), Fraction(39, 10))]
)
HULL_SLANTED = [(-2, 0), (2, 0), (3, 2), (3, 3), (1, 2)]


def test_golden_triangles():
    assert hull_tuples(integer_hull_baseline(TRI_SHALLOW)) == HULL_SHALLOW
    assert hull_tuples(integer_hull_baseline(TRI_SLANTED)) == HULL_SLANTED


def test_normalization_preserves_the_lattice_set():
    for seed in range(60):
        P = random_polyset(random.Random(seed), max_num=20, max_den=5)
        Q, hits = normalize_facets(P)
        pts = brute_points_in(P)
        if Q is None:
            assert pts == []
            continue
        assert brute_points_in(Q) == pts
        assert len(hits) == len(P.halfplanes)


def test_normalization_reports_lattice_free_sets():
    thin = polyset_from_vertices(
        [(Fraction(1, 4), Fraction(1, 4)), (Fraction(3, 4), Fraction(1, 4)), (Fraction(1, 2), Fraction(3, 4))]
    )
    Q, hits = normalize_facets(thin)
    assert Q is None
    assert hits == []
    assert list(integer_hull_baseline(thin)) == []


def test_partition_corners_are_small_and_outside_the_central_hull():
    for seed in range(40):
        P = random_polyset(random.Random(seed), max_num=25, max_den=6)
        Q, hits = normalize_facets(P)
        if Q is None:
            continue
        central = convex_hull({p for h in hits for p in (h.lo, h.hi)})
        if len(central) >= 3:
            C = polyset_from_vertices(hull_tuples(central))
        else:
            C = None
        corners = residual_regions(Q, central) if len(central) >= 2 else []
        for corner in corners:
            assert area(corner) < area(Q)
            # no integer point interior to the central hull shows up in a corner
            if C is not None:
                for x, y in brute_points_in(corner):
                    strictly_inside = contains(C, (x, y)) and all(
                        h.a * x + h.c * y != h.b for h in C.halfplanes
                    )
                    assert not strictly_inside


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6))
def test_three_engine_agreement(seed):
    P = random_polyset(random.Random(seed), max_num=30, max_den=8)
    h_base = integer_hull_baseline(P)
    assert h_base == integer_hull_oracle(P)
    assert h_base == integer_hull_new(P)


def test_stats_record_brute_work():
    stats = RunStats()
    integer_hull_baseline(TRI_SHALLOW, stats=stats)
    assert stats.brute_cells > 0  # the corner regions are enumerated directly


def test_max_sweep_guard_propagates():
    thin = polyset_from_vertices(
        [(0, Fraction(1, 3)), (1000, Fraction(999, 7)), (1000, Fraction(1000, 7))]
    )
    with pytest.raises(SweepLimitExceeded):
        integer_hull_baseline(thin, max_sweep=1)
