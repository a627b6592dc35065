"""Diophantine helpers, chord extraction, the lattice points of segments,
and facet-line sweeps."""

from __future__ import annotations

import random
from fractions import Fraction
from math import ceil, floor, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from inthull import (
    HalfPlane,
    Point2,
    PolySet2,
    SweepLimitExceeded,
    chord,
    contains,
    enumerate_integer_points,
    floor_sum,
    instance_to_polyset,
    integer_hull_new,
    polyset_from_vertices,
    sweep_from_opposite,
    sweep_inward,
)
from inthull.generate import convex_chain_polygon
from inthull.lattice import _Frame, _first_hit, _run_sweep, _windows, egcd
from helpers import brute_points_in, frame_line, octagon, random_polyset, reference_stop

UNIT_SQUARE = polyset_from_vertices([(0, 0), (1, 0), (1, 1), (0, 1)])


def point_set(x, y):
    return PolySet2((Point2(Fraction(x), Fraction(y)),))


def segment(p, q):
    """The segment PolySet2 between two distinct rational points."""
    ends = sorted(Point2(Fraction(x), Fraction(y)) for x, y in (p, q))
    return PolySet2(tuple(ends))


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
# the first lattice level between two lines, against two references


def scan_first_hit(lp, lq, lr, up, uq, ur, n):
    """The first level T in [0, n] with ceil(L(T)) <= floor(U(T)), level by level."""
    for T in range(n + 1):
        if -(-(lp * T + lq) // lr) <= (up * T + uq) // ur:
            return T
    return None


def count_first_hit(lp, lq, lr, up, uq, ur, n):
    """The same level by bisection on lattice-point counts: the points on the
    chords at levels 0..m are one floor_sum per line."""

    def count(m):
        return m + 1 + floor_sum(m + 1, ur, up, uq) + floor_sum(m + 1, lr, -lp, -lq)

    if count(n) == 0:
        return None
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi) // 2
        if count(mid) > 0:
            hi = mid
        else:
            lo = mid + 1
    return lo


def lines_below_each_other(rng, kind, n, max_den, slack):
    """(lp, lq, lr, up, uq, ur) with the lower line on or below the upper on
    [0, n]; the upper line is raised `slack`/ur above the least it may be."""
    lr, ur = rng.randint(1, max_den), rng.randint(1, max_den)
    lp = rng.randint(-3 * lr, 3 * lr)
    lq = rng.randint(-5 * lr * max(n, 1), 5 * lr * max(n, 1))
    near = lp * ur // lr
    if kind == "parallel":
        ur = lr
        up = lp
    elif kind == "widening":
        up = near + rng.randint(1, 3)
    elif kind == "narrowing":
        up = near - rng.randint(0, 3)
    else:  # a flat lower line (after the shear by its slope) and a steep upper one
        lp = rng.randint(-3, 3) * lr
        up = lp // lr * ur + ur * rng.randint(1, 3) + rng.randint(0, ur - 1)
    # U(T) >= L(T) at both ends: uq*lr >= lq*ur and (up*n + uq)*lr >= (lp*n + lq)*ur.
    least = max(lq * ur, (lp * n + lq) * ur - up * n * lr)
    return lp, lq, lr, up, -(-least // lr) + slack, ur


KINDS = ("parallel", "widening", "narrowing", "steep")


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(KINDS), st.integers(0, 40), st.sampled_from([0, 0, 1, 5]))
@example(0, "steep", 0, 0)
def test_first_hit_matches_a_level_by_level_scan(seed, kind, n, slack):
    args = lines_below_each_other(random.Random(seed), kind, n, 60, slack) + (n,)
    assert _first_hit(*args) == scan_first_hit(*args)


def test_first_hit_matches_a_count_bisection_at_scale():
    rng = random.Random(8)
    found = {True: 0, False: 0}
    for i in range(2000):
        n = rng.choice([0, 1, rng.randint(2, 10**6), rng.randint(10**9, 10**12)])
        kind = KINDS[i % 4]
        args = lines_below_each_other(rng, kind, n, 10**10, rng.choice([0, 0, 1, 10**5])) + (n,)
        hit = count_first_hit(*args)
        assert _first_hit(*args) == hit, (kind, args)
        found[hit is not None] += 1
    assert min(found.values()) > 200


def test_first_hit_none_between_lines_that_never_hold_a_lattice_point():
    # Slope p/q and gap 1/(3q): 3q*s is never 3p*T + 1 or 3p*T + 2.
    rng = random.Random(3)
    for _ in range(200):
        q = rng.randint(1, 10**10)
        p = rng.randint(-10**10, 10**10)
        n = rng.randint(0, 10**12)
        assert _first_hit(3 * p, 1, 3 * q, 3 * p, 2, 3 * q, n) is None
    # A shallow strip inside (0, 1) until level D.
    D = 10**12 + 7
    assert _first_hit(1, D, 3 * D, 1, 2 * D, 3 * D, D - 1) is None
    assert _first_hit(1, D, 3 * D, 1, 2 * D, 3 * D, D) == D


# ---------------------------------------------------------------------------
# chord extraction


def test_chord_segment_point_and_miss():
    tri = polyset_from_vertices([(0, 0), (4, 0), (0, 4)])
    c1 = chord(tri, HalfPlane(0, 1, 2))  # y = 2 crosses
    assert c1.vertices == (Point2(0, 2), Point2(2, 2))
    c2 = chord(tri, HalfPlane(1, 1, 4))  # touches the hypotenuse: full edge
    assert c2.vertices == (Point2(0, 4), Point2(4, 0))
    c3 = chord(tri, HalfPlane(0, 1, 4))  # touches apex only
    assert c3.vertices == (Point2(0, 4),)
    c4 = chord(tri, HalfPlane(1, -1, Fraction(1, 2)))  # a slanted cut, rational ends
    assert c4.vertices == (Point2(Fraction(1, 2), 0), Point2(Fraction(9, 4), Fraction(7, 4)))
    assert c4.halfplanes == ()
    assert chord(tri, HalfPlane(0, 1, 5)) is None


def test_chord_refuses_points_and_segments():
    for S in (point_set(0, 0), segment((0, 0), (2, 2))):
        with pytest.raises(ValueError):
            chord(S, HalfPlane(1, -1, 0))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6))
def test_chord_is_the_polygon_on_the_line(seed):
    rng = random.Random(seed)
    P = random_polyset(rng, max_num=20, max_den=5)
    kind = rng.randrange(5)
    if kind == 0:  # along an edge, from either side
        e = rng.choice(P.halfplanes)
        h = rng.choice([e, HalfPlane(-e.a, -e.c, -e.b)])
    else:
        a, c = 0, 0
        while gcd(a, c) != 1:
            a, c = rng.randint(-5, 5), rng.randint(-5, 5)
        vals = [a * v.x + c * v.y for v in P.vertices]
        lo, hi = min(vals), max(vals)
        if kind == 1:  # through a vertex
            b = rng.choice(vals)
        elif kind == 2:  # an integer offset
            b = Fraction(rng.randint(floor(lo) - 1, ceil(hi) + 1))
        elif kind == 3:  # a rational offset
            b = lo + (hi - lo) * Fraction(rng.randint(-1, 8), 7) + Fraction(1, rng.randint(2, 9))
        else:  # a line that misses P
            gap = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            b = rng.choice([lo - gap, hi + gap])
        h = HalfPlane(a, c, b)
    vals = [h.a * x + h.c * y for x, y in P.vertices]
    piece = chord(P, h)
    if not min(vals) <= h.b <= max(vals):
        assert piece is None
        return
    assert piece is not None and piece.is_degenerate
    for p in piece.vertices:
        assert h.a * p.x + h.c * p.y == h.b
        assert contains(P, p)
        assert any(g.a * p.x + g.c * p.y == g.b for g in P.halfplanes)  # on P's boundary
    on_line = [(x, y) for x, y in brute_points_in(P) if h.a * x + h.c * y == h.b]
    assert [tuple(p) for p in enumerate_integer_points(piece)] == on_line


# ---------------------------------------------------------------------------
# lattice points of a point or segment, through the public API


def check_segment_lattice(S, expected):
    """`expected` is the sorted list of the lattice points of S: the oracle
    enumerates all of them, and the hull of S is the two extreme ones."""
    assert [tuple(p) for p in enumerate_integer_points(S)] == expected
    assert [tuple(p) for p in integer_hull_new(S)] == expected[:1] + expected[1:][-1:]


def line_lattice(a, c, b):
    """(base, dir): the integer points of a*x + c*y = b (a, c coprime) are
    base + k*dir for integer k."""
    _, u, v = egcd(a, c)
    return (u * b, v * b), (c, -a)


def test_segment_lattice_points_goldens():
    # on x + y = 4
    check_segment_lattice(
        segment((Fraction(1, 2), Fraction(7, 2)), (4, 0)), [(1, 3), (2, 2), (3, 1), (4, 0)]
    )
    # no integer point on the line 2x + 2y = 1 at all
    check_segment_lattice(segment((0, Fraction(1, 2)), (1, Fraction(-1, 2))), [])
    # integer points exist on the line but not inside the segment
    check_segment_lattice(segment((Fraction(5, 4), Fraction(11, 4)), (Fraction(7, 4), Fraction(9, 4))), [])
    # a single point, lattice or not
    check_segment_lattice(point_set(3, -2), [(3, -2)])
    check_segment_lattice(point_set(3, Fraction(-1, 2)), [])


@settings(max_examples=120)
@given(st.integers(0, 10**6))
def test_segment_lattice_points_match_enumeration(seed):
    rng = random.Random(seed)
    a = rng.randint(-8, 8)
    c = rng.randint(-8, 8)
    if a == 0 and c == 0:
        a = 1
    g = gcd(a, c)
    (bx, by), (dx, dy) = line_lattice(a // g, c // g, rng.randint(-20, 20))
    t0, t1 = sorted((rng.randint(-15, 15), rng.randint(-15, 15)))
    k0, k1 = Fraction(t0 * 2 - 1, 2), Fraction(t1 * 2 + 1, 2)
    S = segment((bx + k0 * dx, by + k0 * dy), (bx + k1 * dx, by + k1 * dy))
    expected = sorted((bx + t * dx, by + t * dy) for t in range(t0, t1 + 1))
    check_segment_lattice(S, expected)


def test_segment_lattice_points_move_with_far_integer_translations():
    # Line segments with endpoint denominators ~10^10 on lines a*x + c*y = b
    # that carry lattice points, and on the lattice-free lines b + 1/2, moved
    # ~10^12 by integer vectors: their lattice points move with them.
    rng = random.Random(2026)
    for i in range(200):
        a, c = rng.randint(1, 1000), rng.randint(-1000, 1000)
        g = gcd(a, c)
        a, c = a // g, c // g
        (bx, by), (dx, dy) = line_lattice(a, c, rng.randint(-10**6, 10**6))
        den = rng.randint(10**10, 2 * 10**10)
        k0 = Fraction(rng.randint(-5 * den, 5 * den), den)
        k1 = k0 + Fraction(rng.randint(1, 6 * den), den)
        if i % 4 == 3:
            (hx, hy), _ = line_lattice(a, c, Fraction(1, 2))
            bx, by = bx + hx, by + hy
            expected = []
        else:
            expected = sorted((bx + t * dx, by + t * dy) for t in range(ceil(k0), floor(k1) + 1))
        ends = [(bx + k * dx, by + k * dy) for k in (k0, k1)]
        check_segment_lattice(segment(*ends), expected)
        X, Y = rng.randint(-10**12, 10**12), rng.randint(-10**12, 10**12)
        moved = segment(*[(x + X, y + Y) for x, y in ends])
        check_segment_lattice(moved, [(x + X, y + Y) for x, y in expected])


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


def test_max_sweep_refuses_a_far_hit_before_searching_for_it(monkeypatch):
    # Swept from the opposite side, facet 0's first lattice chord is
    # 4.8 * 10^10 levels away.
    far = polyset_from_vertices(
        [
            (0, Fraction(1, 3)),
            (10**12, Fraction(10**12 - 1, 7) + Fraction(1, 3)),
            (10**12, Fraction(10**12, 7) + Fraction(1, 3)),
        ]
    )
    assert sweep_from_opposite(far, 0).offset == -428571428571
    windows = []
    counted = lambda *args: windows.append(args[-1]) or _first_hit(*args)
    monkeypatch.setattr("inthull.lattice._first_hit", counted)
    with pytest.raises(SweepLimitExceeded, match="more than 1 "):
        sweep_from_opposite(far, 0, max_sweep=1)
    # At most one solve, over a window of one level.
    assert windows in ([], [0])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
@example(-1)
def test_max_sweep_refuses_exactly_the_sweeps_longer_than_the_limit(seed):
    if seed < 0:  # lattice-free: no hit, and every level in range is swept
        P = polyset_from_vertices(
            [(Fraction(1, 4), Fraction(1, 4)), (Fraction(7, 4), Fraction(1, 4)), (Fraction(1, 2), Fraction(3, 4))]
        )
    else:
        P = random_polyset(random.Random(seed), max_num=20, max_den=5)
    for i, h in enumerate(P.halfplanes):
        for inward in (True, False):
            sign = -1 if inward else 1
            values = [sign * (h.a * x + h.c * y) for x, y in P.vertices]
            free = _run_sweep(P, i, inward)
            # The levels from the ceiling of the minimum up to the hit, or
            # over the whole range when there is none.
            last = floor(max(values)) if free is None else sign * free.offset
            steps = last - ceil(min(values)) + 1
            for limit in sorted({0, 1, 2, steps - 1, steps, steps + 1} - {-1}):
                if steps > limit:
                    with pytest.raises(SweepLimitExceeded):
                        _run_sweep(P, i, inward, max_sweep=limit)
                else:
                    assert _run_sweep(P, i, inward, max_sweep=limit) == free


def test_max_sweep_must_not_be_negative():
    with pytest.raises(ValueError):
        sweep_inward(UNIT_SQUARE, 0, max_sweep=-1)


def test_max_sweep_must_be_an_integer():
    P = polyset_from_vertices([(0, 0), (7, 1), (3, 5)])
    for limit in (1.5, 2.0, Fraction(3)):
        with pytest.raises(TypeError):
            sweep_inward(P, 1, max_sweep=limit)
        with pytest.raises(TypeError):
            integer_hull_new(P, max_sweep=limit)


def hint_test_polygons():
    # Rectangles have minimum faces parallel to every swept line.
    yield polyset_from_vertices([(0, 0), (5, 0), (5, 3), (0, 3)])
    yield polyset_from_vertices(
        [(Fraction(-7, 3), Fraction(1, 2)), (Fraction(9, 4), Fraction(1, 2)), (Fraction(9, 4), Fraction(17, 5)), (Fraction(-7, 3), Fraction(17, 5))]
    )
    yield instance_to_polyset(convex_chain_polygon(40))
    for seed in range(150):
        yield random_polyset(random.Random(seed), max_num=30, max_den=7)


def test_sweeps_do_not_depend_on_their_hint():
    """A sweep's window walk gives the same windows, lines included, from
    every start in [-n, 2n), for the functional of every facet taken either
    way."""
    for P in hint_test_polygons():
        n = len(P.vertices)
        for h in P.halfplanes:
            for sign in (1, -1):
                frame = _Frame(P._forms, sign * h.a, sign * h.c)
                windows = list(_windows(frame, 0))
                for hint in range(-n, 2 * n):
                    assert list(_windows(frame, hint)) == windows, (P, h, sign, hint)


def reference_chord(P, frame, T):
    """The lowest and highest s of P on the line t = T of the frame, in
    plain Fractions: vertices on the line and edges crossing it."""
    A, C, u, v = frame.A, frame.C, frame.u, frame.v
    verts = P.vertices
    ends = []
    for p, q in zip(verts, verts[1:] + verts[:1]):
        tp, tq = A * p.x + C * p.y, A * q.x + C * q.y
        if tp == T:
            ends.append(-v * p.x + u * p.y)
        elif min(tp, tq) < T < max(tp, tq):
            slope, intercept = frame_line(p, q, A, C, u, v)
            ends.append(slope * T + intercept)
    return min(ends), max(ends)


def window_test_polygons():
    # Rectangles and a parallelogram with vertical sides: parallel minimum
    # and maximum faces in the x frame and in every facet frame.
    yield polyset_from_vertices([(0, 0), (5, 0), (5, 3), (0, 3)])
    yield polyset_from_vertices([(Fraction(-7, 3), Fraction(1, 2)), (Fraction(9, 4), Fraction(1, 2)), (Fraction(9, 4), Fraction(17, 5)), (Fraction(-7, 3), Fraction(17, 5))])
    yield polyset_from_vertices([(Fraction(1, 3), 0), (Fraction(2, 3), 0), (Fraction(2, 3), 9), (Fraction(1, 3), 9)])
    yield polyset_from_vertices([(0, 0), (4, 1), (4, 5), (0, 4)])
    yield instance_to_polyset(convex_chain_polygon(40))
    for seed in range(50):
        yield random_polyset(random.Random(seed), max_num=30, max_den=7)
    # ~10**10 denominators moved ~10**12.
    rng = random.Random(7)
    for _ in range(4):
        yield octagon(rng, reach=10**12)


def test_windows_tile_the_levels_and_give_the_chord_ends():
    """The windows tile [ceil(min t), floor(max t)] with no gap or overlap,
    and at both ends of each the two lines give the ends of the chord, in
    the x frame and in both directions of every facet frame."""
    windows_seen = 0
    for P in window_test_polygons():
        for a, c in [(1, 0)] + [(sign * h.a, sign * h.c) for h in P.halfplanes for sign in (1, -1)]:
            frame = _Frame(P._forms, a, c)
            levels = [a * p.x + c * p.y for p in P.vertices]
            t = ceil(min(levels))
            for start, end, lower, upper in _windows(frame, 0):
                assert start == t <= end, (P, a, c)
                for T in (start, end):
                    (lp, lq, lr), (up, uq, ur) = lower, upper
                    assert (Fraction(lp * T + lq, lr), Fraction(up * T + uq, ur)) == reference_chord(P, frame, T), (P, a, c, T)
                t = end + 1
                windows_seen += 1
            assert t == max(ceil(min(levels)), floor(max(levels)) + 1), (P, a, c)
    assert windows_seen > 3000
