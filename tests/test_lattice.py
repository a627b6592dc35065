"""Diophantine helpers, chord extraction, and facet-line sweeps."""

from __future__ import annotations

import random
from fractions import Fraction
from math import floor, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from inthull import (
    Line,
    Point2,
    Segment,
    SegmentNotOnLine,
    SweepLimitExceeded,
    chord,
    egcd,
    floor_sum,
    integer_points_on_chord,
    lattice_of_line,
    line_has_integer_point,
    polyset_from_vertices,
    sweep_from_opposite,
    sweep_inward,
)
from inthull.generate import convex_chain_polygon
from helpers import brute_points_in, random_polyset, reference_stop

UNIT_SQUARE = polyset_from_vertices([(0, 0), (1, 0), (1, 1), (0, 1)])


# ---------------------------------------------------------------------------
# egcd


@given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))
def test_egcd_bezout_identity(a, c):
    if a == 0 and c == 0:
        with pytest.raises(ValueError):
            egcd(0, 0)
        return
    g, u, v = egcd(a, c)
    assert g == gcd(a, c)
    assert a * u + c * v == g


# ---------------------------------------------------------------------------
# floor_sum against a literal loop


def floor_sum_reference(n: int, m: int, a: int, b: int) -> int:
    return sum((a * i + b) // m for i in range(n))


@given(
    st.integers(0, 200),
    st.integers(1, 10**6),
    st.integers(-10**6, 10**6),
    st.integers(-10**6, 10**6),
)
def test_floor_sum_matches_reference(n, m, a, b):
    assert floor_sum(n, m, a, b) == floor_sum_reference(n, m, a, b)


def test_floor_sum_rejects_bad_modulus():
    with pytest.raises(ValueError):
        floor_sum(3, 0, 1, 1)


# ---------------------------------------------------------------------------
# line lattice structure


def test_line_has_integer_point_iff_integral_offset():
    assert line_has_integer_point(Line(3, 5, 7))
    assert not line_has_integer_point(Line(3, 5, Fraction(7, 2)))
    # reduction can turn a fractional description into an integral one
    assert line_has_integer_point(Line(2, 4, 6))


def test_lattice_of_line_parametrizes_all_solutions():
    rng = random.Random(42)
    checked = 0
    while checked < 100:
        a = rng.randint(-60, 60)
        c = rng.randint(-60, 60)
        if a == 0 and c == 0:
            continue
        g = gcd(a, c)
        line = Line(a // g, c // g, rng.randint(-50, 50))
        lat = lattice_of_line(line)
        for t in range(-3, 4):
            x = lat.base.x + t * lat.dir[0]
            y = lat.base.y + t * lat.dir[1]
            assert line.a * x + line.c * y == line.b
        # dir is primitive, so consecutive points are lattice-adjacent on the line
        assert gcd(lat.dir[0], lat.dir[1]) == 1
        checked += 1


# ---------------------------------------------------------------------------
# chord extraction


def test_chord_segment_point_and_miss():
    tri = polyset_from_vertices([(0, 0), (4, 0), (0, 4)])
    c1 = chord(tri, Line(0, 1, 2))  # y = 2 crosses
    assert isinstance(c1, Segment)
    assert {(c1.p.x, c1.p.y), (c1.q.x, c1.q.y)} == {(0, 2), (2, 2)}
    c2 = chord(tri, Line(1, 1, 4))  # touches the hypotenuse: full edge
    assert isinstance(c2, Segment)
    c3 = chord(tri, Line(0, 1, 4))  # touches apex only
    assert isinstance(c3, Point2)
    assert (c3.x, c3.y) == (0, 4)
    assert chord(tri, Line(0, 1, 5)) is None


def test_integer_points_on_chord_goldens():
    line = Line(1, 1, 4)
    seg = Segment(Point2(Fraction(1, 2), Fraction(7, 2)), Point2(Fraction(4), Fraction(0)))
    hit = integer_points_on_chord(line, seg)
    assert hit is not None
    assert hit.offset == 4
    assert (hit.lo.x, hit.lo.y) == (1, 3)
    assert (hit.hi.x, hit.hi.y) == (4, 0)
    # no integer point on the line at all
    assert integer_points_on_chord(Line(2, 2, 1), Segment(Point2(Fraction(0), Fraction(1, 2)), Point2(Fraction(1), Fraction(-1, 2)))) is None
    # integer points exist on the line but not inside the segment
    tight = Segment(Point2(Fraction(5, 4), Fraction(11, 4)), Point2(Fraction(7, 4), Fraction(9, 4)))
    assert integer_points_on_chord(line, tight) is None


def test_integer_points_on_chord_rejects_off_line_segment():
    with pytest.raises(SegmentNotOnLine):
        integer_points_on_chord(Line(1, 0, 0), Segment(Point2(Fraction(1), Fraction(0)), Point2(Fraction(1), Fraction(2))))


@settings(max_examples=120)
@given(st.integers(0, 10**6))
def test_integer_points_on_chord_matches_enumeration(seed):
    rng = random.Random(seed)
    a = rng.randint(-8, 8)
    c = rng.randint(-8, 8)
    if a == 0 and c == 0:
        a = 1
    g = gcd(a, c)
    line = Line(a // g, c // g, rng.randint(-20, 20))
    lat = lattice_of_line(line)
    t0, t1 = sorted((rng.randint(-15, 15), rng.randint(-15, 15)))
    seg = Segment(
        Point2(lat.base.x + Fraction(t0 * 2 - 1, 2) * lat.dir[0], lat.base.y + Fraction(t0 * 2 - 1, 2) * lat.dir[1]),
        Point2(lat.base.x + Fraction(t1 * 2 + 1, 2) * lat.dir[0], lat.base.y + Fraction(t1 * 2 + 1, 2) * lat.dir[1]),
    )
    hit = integer_points_on_chord(line, seg)
    expected = sorted(
        (lat.base.x + t * lat.dir[0], lat.base.y + t * lat.dir[1]) for t in range(t0, t1 + 1)
    )
    assert hit is not None
    assert (hit.lo.x, hit.lo.y) == expected[0]
    assert (hit.hi.x, hit.hi.y) == expected[-1]


# ---------------------------------------------------------------------------
# sweeps: goldens, reference agreement, bracketing, translation invariance


def test_sweep_goldens_on_unit_square():
    # facet 1 is the right edge x <= 1
    hit_in = sweep_inward(UNIT_SQUARE, 1)
    assert hit_in is not None
    assert (hit_in.offset, tuple(hit_in.lo), tuple(hit_in.hi)) == (1, (1, 0), (1, 1))
    hit_op = sweep_from_opposite(UNIT_SQUARE, 1)
    assert hit_op is not None
    assert (hit_op.offset, tuple(hit_op.lo), tuple(hit_op.hi)) == (0, (0, 0), (0, 1))


def test_sweep_finds_interior_stop_when_facet_line_is_irrational_for_the_lattice():
    # x <= 7/2: the first lattice-carrying line inside is x = 3
    box = polyset_from_vertices([(0, 0), (Fraction(7, 2), 0), (Fraction(7, 2), 2), (0, 2)])
    hit = sweep_inward(box, 1)
    assert hit is not None
    assert hit.offset == 3
    assert tuple(hit.lo) == (3, 0) and tuple(hit.hi) == (3, 2)


def test_sweep_none_when_no_integer_points():
    thin = polyset_from_vertices(
        [(Fraction(1, 4), Fraction(1, 4)), (Fraction(3, 4), Fraction(1, 4)), (Fraction(1, 2), Fraction(3, 4))]
    )
    assert brute_points_in(thin) == []
    for i in range(len(thin.halfplanes)):
        assert sweep_inward(thin, i) is None
        assert sweep_from_opposite(thin, i) is None


def translated_chain(n, target_area, dx, dy):
    """convex_chain_polygon(n, target_area) moved by (dx, dy)."""
    inst = convex_chain_polygon(n, target_area)
    return polyset_from_vertices([(x + dx, y + dy) for x, y in inst.vertices])


# Chain polygons are centrally symmetric: every facet direction has a
# minimum and a maximum face that are edges, so a sweep's two boundary
# chains start and end at different vertices, and on these small areas they
# cross many edges first.  The lattice-free 60-gon makes every sweep climb
# both chains to the top; the 40-gon holds a single lattice point.  Seed 2193
# is a random polygon with first hits past a vertex of the lower chain and
# past one of the upper chain: a window not cut at such a vertex counts a
# point outside P.
@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6).map(lambda seed: random_polyset(random.Random(seed), max_num=25, max_den=6)))
@example(translated_chain(20, 5, Fraction(1, 3), Fraction(2, 7)))
@example(translated_chain(20, 40, Fraction(-5, 11), Fraction(13, 3)))
@example(translated_chain(40, 12, Fraction(1, 2), Fraction(-1, 3)))
@example(translated_chain(40, 1, Fraction(2, 9), Fraction(4, 5)))
@example(translated_chain(60, 25, Fraction(1, 6), Fraction(5, 7)))
@example(translated_chain(60, Fraction(1, 2), Fraction(1, 3), Fraction(2, 7)))
@example(random_polyset(random.Random(2193), max_num=25, max_den=6))
def test_sweeps_match_enumeration_reference(P):
    for i in range(len(P.halfplanes)):
        for side, sweep in (("inward", sweep_inward), ("opposite", sweep_from_opposite)):
            hit = sweep(P, i)
            ref = reference_stop(P, i, side)
            if ref is None:
                assert hit is None
            else:
                assert hit is not None
                assert (hit.offset, tuple(hit.lo), tuple(hit.hi)) == ref


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_sweep_hits_are_integer_points_of_p_on_the_stop_line(seed):
    P = random_polyset(random.Random(seed), max_num=20, max_den=5)
    pts = set(brute_points_in(P))
    for i, h in enumerate(P.halfplanes):
        hit = sweep_inward(P, i)
        if hit is None:
            continue
        for p in (hit.lo, hit.hi):
            assert (p.x, p.y) in pts
            assert h.a * p.x + h.c * p.y == hit.offset
        assert hit.offset <= h.b


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_sweep_stop_lines_bracket_every_integer_point(seed):
    P = random_polyset(random.Random(seed), max_num=20, max_den=5)
    pts = brute_points_in(P)
    for i, h in enumerate(P.halfplanes):
        inner = sweep_inward(P, i)
        outer = sweep_from_opposite(P, i)
        assert (inner is None) == (outer is None) == (not pts)
        if not pts:
            continue
        for x, y in pts:
            assert outer.offset <= h.a * x + h.c * y <= inner.offset


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_tightening_to_the_stop_offset_preserves_the_lattice_set(seed):
    P = random_polyset(random.Random(seed), max_num=20, max_den=5)
    before = brute_points_in(P)
    for i, h in enumerate(P.halfplanes):
        hit = sweep_inward(P, i)
        if hit is None:
            continue
        rows = [(g.a, g.c, g.b) for g in P.halfplanes]
        rows[i] = (h.a, h.c, Fraction(hit.offset))
        xs = [v.x for v in P.vertices]
        ys = [v.y for v in P.vertices]
        from math import ceil

        tightened = [
            (x, y)
            for x in range(ceil(min(xs)), floor(max(xs)) + 1)
            for y in range(ceil(min(ys)), floor(max(ys)) + 1)
            if all(a * x + c * y <= b for a, c, b in rows)
        ]
        assert tightened == before


def test_max_sweep_guard_raises_on_long_sweeps():
    # a sliver whose first lattice chord is far from the facet line
    thin = polyset_from_vertices(
        [(0, Fraction(1, 3)), (100, Fraction(99, 7)), (100, Fraction(100, 7))]
    )
    with pytest.raises(SweepLimitExceeded):
        for i in range(len(thin.halfplanes)):
            sweep_inward(thin, i, max_sweep=1)
    # a generous cap changes nothing
    P = random_polyset(random.Random(7), max_num=15, max_den=4)
    for i in range(len(P.halfplanes)):
        a = sweep_inward(P, i)
        b = sweep_inward(P, i, max_sweep=10**9)
        assert (a is None and b is None) or (a == b)
