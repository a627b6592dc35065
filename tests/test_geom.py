"""Exact predicates, canonical forms, hulls, clipping, and validation."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inthull import (
    HalfPlane,
    HullResult,
    IdenticalPoints,
    DegenerateSet,
    EmptySet,
    Instance,
    Point2,
    PolySet2,
    UnboundedSet,
    area,
    bounding_box,
    clip,
    contains,
    convex_hull,
    enumerate_integer_points,
    instance_to_polyset,
    line_through,
    polyset_from_halfplanes,
    polyset_from_vertices,
)
import inthull.geom as geom
import inthull.hull_new as hull_new
from inthull.generate import convex_chain_polygon
from inthull.geom import _hull_chain, _intersect_by_clipping, _intersect_halfplanes
from inthull.hull_new import replace_facets, residual_regions
from inthull.lattice import _Frame
from helpers import (
    empty_85_row_system,
    frac_cross,
    frame_line,
    octagon,
    on_segment,
    random_halfplane_system,
    random_polyset,
    rational_hull,
    reference_clip,
    shoelace_area,
)

fractions_st = st.fractions(min_value=-30, max_value=30, max_denominator=8)
points_st = st.tuples(fractions_st, fractions_st)
int_points_st = st.tuples(st.integers(-40, 40), st.integers(-40, 40))


# ---------------------------------------------------------------------------
# lines and halfplanes: canonical forms


def test_line_rejects_zero_or_rational_normal():
    with pytest.raises(ValueError):
        HalfPlane(0, 0, 1)
    with pytest.raises(TypeError):
        HalfPlane(Fraction(1, 2), 1, 0)


@given(points_st, points_st)
def test_line_through_is_symmetric(p, q):
    if p == q:
        with pytest.raises(IdenticalPoints):
            line_through(p, q)
    else:
        h = line_through(p, q)
        assert line_through(q, p) == HalfPlane(-h.a, -h.c, -h.b)
        assert h.a * p[0] + h.c * p[1] == h.b
        assert h.a * q[0] + h.c * q[1] == h.b


def test_halfplane_keeps_direction_under_reduction():
    h = HalfPlane(-2, -4, -6)
    assert (h.a, h.c, h.b) == (-1, -2, -3)
    x, y = 0, 0
    assert not h.a * x + h.c * y <= h.b
    g = HalfPlane(-1, 0, -1)
    assert not g.a * x + g.c * y <= g.b
    g = HalfPlane(1, 0, 1)
    assert g.a * x + g.c * y <= g.b


# ---------------------------------------------------------------------------
# convex_hull canonical output


def test_convex_hull_small_cases():
    assert list(convex_hull([])) == []
    assert [(p.x, p.y) for p in convex_hull([(2, 3), (2, 3)])] == [(2, 3)]
    assert [(p.x, p.y) for p in convex_hull([(5, 1), (2, 3)])] == [(2, 3), (5, 1)]
    assert [(p.x, p.y) for p in convex_hull([(0, 0), (2, 1), (4, 2)])] == [(0, 0), (4, 2)]
    # A coordinate that is not an integer is refused, never truncated.
    with pytest.raises(TypeError):
        convex_hull([(Fraction(1, 2), 0), (2, 0), (0, 2)])
    with pytest.raises(TypeError):
        convex_hull([(0.9, 0), (2, 0), (0, 2)])
    with pytest.raises(TypeError):
        HullResult(((Fraction(1, 2), 0),))


def test_convex_hull_drops_interior_and_collinear_points():
    pts = [(0, 0), (4, 0), (4, 4), (0, 4), (2, 2), (2, 0), (4, 2)]
    assert [(p.x, p.y) for p in convex_hull(pts)] == [(0, 0), (4, 0), (4, 4), (0, 4)]


@given(st.lists(int_points_st, max_size=40))
def test_convex_hull_permutation_invariant_and_idempotent(pts):
    rng = random.Random(17)
    shuffled = list(pts)
    rng.shuffle(shuffled)
    h1 = convex_hull(pts)
    assert convex_hull(shuffled) == h1
    assert convex_hull([(p.x, p.y) for p in h1]) == h1


@given(st.lists(int_points_st, min_size=3, max_size=30))
def test_convex_hull_is_ccw_from_lex_min_and_spans_input(pts):
    hull = convex_hull(pts)
    hp = [(p.x, p.y) for p in hull]
    if len(hp) >= 2:
        assert hp[0] == min(hp)
    if len(hp) >= 3:
        n = len(hp)
        for i in range(n):
            assert frac_cross(hp[i], hp[(i + 1) % n], hp[(i + 2) % n]) > 0
        P = polyset_from_vertices(hp)
        assert all(contains(P, p) for p in set(pts))


# ---------------------------------------------------------------------------
# polyset construction and validation


def test_polyset_from_vertices_drops_non_extreme_points():
    P = polyset_from_vertices([(0, 0), (4, 0), (4, 4), (2, 1)])  # (2,1) interior
    assert [(v.x, v.y) for v in P.vertices] == [(0, 0), (4, 0), (4, 4)]
    Q = polyset_from_vertices([(0, 0), (2, 0), (4, 0), (4, 4)])  # collinear triple
    assert [(v.x, v.y) for v in Q.vertices] == [(0, 0), (4, 0), (4, 4)]


def test_polyset_from_vertices_rejects_degenerate_input():
    with pytest.raises(DegenerateSet):
        polyset_from_vertices([(0, 0), (1, 1), (2, 2)])
    with pytest.raises(DegenerateSet):
        polyset_from_vertices([(0, 0), (0, 0)])


def test_polyset_canonical_start_and_orientation():
    P = polyset_from_vertices([(4, 4), (0, 4), (0, 0), (4, 0)])  # CW, odd start
    assert [(v.x, v.y) for v in P.vertices] == [(0, 0), (4, 0), (4, 4), (0, 4)]


def test_polyset_is_built_from_its_vertex_cycle():
    verts = (Point2(0, 0), Point2(Fraction(7, 2), 1), Point2(3, 4), Point2(1, Fraction(5, 3)))
    P = PolySet2(verts)
    assert P.vertices == verts
    assert P.halfplanes == polyset_from_vertices(verts).halfplanes
    assert all(contains(P, v) for v in verts)
    assert PolySet2(verts[:2]).halfplanes == PolySet2(verts[:1]).halfplanes == ()
    pentagon = [Point2(0, 0), Point2(2, -1), Point2(4, 0), Point2(3, 2), Point2(1, 2)]
    bad = {
        "empty": (),
        "clockwise": verts[:1] + verts[:0:-1],
        "not lex-min first": verts[1:] + verts[:1],
        "collinear middle vertex": (Point2(0, 0), Point2(1, 0), Point2(2, 0), Point2(1, 1)),
        "winds twice": tuple(pentagon[(2 * i) % 5] for i in range(5)),
        "reversed segment": (Point2(1, 0), Point2(0, 0)),
        "equal segment ends": (Point2(1, 0), Point2(1, 0)),
    }
    for name, cycle in bad.items():
        with pytest.raises(ValueError):
            PolySet2(cycle)
            pytest.fail(name)
    with pytest.raises(TypeError):
        PolySet2(P.halfplanes, verts)  # the vertices are the only input


def test_polyset_refuses_every_rotation_but_the_lex_smallest_start():
    # The unit square's lex-min vertex (0, 0) is entered by a vertical edge
    # from (0, 1), which has the same x; the other cycles are a rational
    # triangle, a lattice diamond, a rational pentagon and a chain 20-gon.
    cycles = [
        [(0, 0), (1, 0), (1, 1), (0, 1)],
        [(Fraction(-1, 3), 2), (5, Fraction(-7, 2)), (Fraction(9, 4), Fraction(11, 3))],
        [(0, 0), (1, -1), (2, 0), (1, 1)],
        [(0, 0), (2, -1), (4, 0), (3, 2), (Fraction(1, 7), Fraction(13, 7))],
        [tuple(v) for v in instance_to_polyset(convex_chain_polygon(20)).vertices],
    ]
    for cycle in cycles:
        cycle = [Point2(Fraction(x), Fraction(y)) for x, y in cycle]
        assert PolySet2(tuple(cycle)).vertices == tuple(cycle)
        for k in range(1, len(cycle)):
            with pytest.raises(ValueError, match="lexicographically smallest"):
                PolySet2(tuple(cycle[k:] + cycle[:k]))


def test_polyset_from_halfplanes_unit_square():
    P = polyset_from_halfplanes(
        [HalfPlane(-1, 0, 0), HalfPlane(1, 0, 1), HalfPlane(0, -1, 0), HalfPlane(0, 1, 1)]
    )
    assert [(v.x, v.y) for v in P.vertices] == [(0, 0), (1, 0), (1, 1), (0, 1)]
    assert bounding_box(P) == (0, 1, 0, 1)


def test_polyset_from_halfplanes_drops_redundant_rows():
    P = polyset_from_halfplanes(
        [
            HalfPlane(-1, 0, 0),
            HalfPlane(1, 0, 1),
            HalfPlane(0, -1, 0),
            HalfPlane(0, 1, 1),
            HalfPlane(1, 1, 99),  # slack everywhere
        ]
    )
    assert len(P.halfplanes) == 4


def test_polyset_from_halfplanes_rejects_unbounded():
    with pytest.raises(UnboundedSet):
        polyset_from_halfplanes([HalfPlane(1, 0, 1), HalfPlane(0, 1, 1)])
    # a pointed wedge with a redundant third row: y >= |x - 1|, y >= -5
    with pytest.raises(UnboundedSet):
        polyset_from_halfplanes(
            [HalfPlane(1, -1, 1), HalfPlane(-1, -1, -1), HalfPlane(0, -1, 5)]
        )


def test_polyset_from_halfplanes_rejects_empty():
    # normals that do not span the plane: x <= 0 and x >= 1
    with pytest.raises(EmptySet):
        polyset_from_halfplanes([HalfPlane(1, 0, 0), HalfPlane(-1, 0, -1)])
    # many spanning rows around a contradiction near (1, 0)
    with pytest.raises(EmptySet):
        polyset_from_halfplanes([HalfPlane(a, c, b) for a, c, b in empty_85_row_system()])


# ---------------------------------------------------------------------------
# half-plane intersection against the box-clipping reference


def _rule(rows):
    try:
        return _intersect_halfplanes(rows)
    except UnboundedSet:
        return "unbounded"


def _clipping_reference(rows):
    """Box clipping, repeated in a larger box: only a bounded intersection
    comes out the same from both."""
    small = _intersect_by_clipping(rows)
    if small is None:
        return None
    far = 4 * (max(abs(h.b) for h in rows) + 1) * max(max(abs(h.a), abs(h.c)) for h in rows)
    large = _intersect_by_clipping(list(rows) + [HalfPlane(1, 0, far)])
    return small if small == large else "unbounded"


def test_intersect_halfplanes_matches_box_clipping_on_random_systems():
    rng = random.Random(7)
    sizes = [rng.randint(3, 12) for _ in range(400)] + [rng.randint(40, 120) for _ in range(60)]
    for n_rows in sizes:
        rows = random_halfplane_system(rng, n_rows)
        assert _rule(rows) == _clipping_reference(rows), rows


def test_intersect_halfplanes_on_systems_built_from_polygons():
    rng = random.Random(11)
    for _ in range(120):
        P = random_polyset(rng, max_num=30, max_den=6)
        rows = list(P.halfplanes)
        rows += [HalfPlane(h.a, h.c, h.b + rng.randint(0, 5)) for h in rng.sample(rows, 2)]
        rng.shuffle(rows)
        assert _intersect_halfplanes(rows) == P
        shift = Fraction(rng.randint(1, 40), rng.randint(1, 4))
        pushed = [HalfPlane(h.a, h.c, h.b - shift) for h in rows]
        assert _rule(pushed) == _clipping_reference(pushed), pushed


# ---------------------------------------------------------------------------
# V-rep / H-rep round trip


@settings(max_examples=150)
@given(st.integers(0, 10**6))
def test_vrep_hrep_round_trip(seed):
    P = random_polyset(random.Random(seed), max_num=30, max_den=6)
    Q = polyset_from_halfplanes(list(P.halfplanes))
    assert Q.vertices == P.vertices
    assert Q.halfplanes == P.halfplanes


# ---------------------------------------------------------------------------
# area / clip / contains


def test_area_golden_values():
    sq = polyset_from_vertices([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert area(sq) == 1
    tri = polyset_from_vertices([(0, 0), (Fraction(1, 2), 0), (0, Fraction(1, 3))])
    assert area(tri) == Fraction(1, 12)


def _random_set(rng: random.Random, dim: int) -> PolySet2:
    """A random polygon (dim 2), or a point or segment of small rationals."""
    if dim == 2:
        return random_polyset(rng, max_num=20, max_den=4)
    ends = {(Fraction(rng.randint(-8, 8), rng.randint(1, 2)), Fraction(rng.randint(-8, 8), rng.randint(1, 2)))
            for _ in range(dim + 1)}
    return PolySet2(tuple(sorted(ends)))


def _lattice(S):
    return [] if S is None else [(p.x, p.y) for p in enumerate_integer_points(S)]


@settings(max_examples=150)
@given(st.integers(0, 10**6), st.integers(0, 2), st.integers(-5, 5), st.integers(-5, 5), st.integers(-20, 20))
def test_clip_shrinks_area_and_keeps_containment(seed, dim, a, c, b):
    if a == 0 and c == 0:
        return
    P = _random_set(random.Random(seed), dim)
    assert (area(P) > 0) == (dim == 2)
    h = HalfPlane(a, c, b)
    Q = clip(P, h)
    assert _lattice(Q) == [p for p in _lattice(P) if h.a * p[0] + h.c * p[1] <= h.b]
    if Q is None:
        return
    assert area(Q) <= area(P)
    for v in Q.vertices:
        assert contains(P, (v.x, v.y))
        assert a * v.x + c * v.y <= b


def test_clip_points_and_segments_golden():
    seg = PolySet2(((0, 0), (3, 3)))
    crossed = clip(seg, HalfPlane(1, 1, 3))  # x + y <= 3 crosses at (3/2, 3/2)
    assert crossed.vertices == (Point2(0, 0), Point2(Fraction(3, 2), Fraction(3, 2)))
    assert _lattice(crossed) == [(0, 0), (1, 1)]
    touched = clip(seg, HalfPlane(-1, 0, -3))  # x >= 3 touches the upper end
    assert touched.vertices == (Point2(3, 3),)
    assert _lattice(touched) == [(3, 3)]
    assert clip(seg, HalfPlane(-1, 0, -4)) is None
    dot = PolySet2(((Fraction(1, 2), 2),))
    assert clip(dot, HalfPlane(1, 0, 1)) == dot  # inside
    assert clip(dot, HalfPlane(1, 0, 0)) is None  # outside


def test_clip_degenerate_results_are_first_class():
    sq = polyset_from_vertices([(0, 0), (2, 0), (2, 2), (0, 2)])
    edge = clip(sq, HalfPlane(1, 0, 0))  # touches the left edge only
    assert edge is not None and edge.is_degenerate
    assert [(v.x, v.y) for v in edge.vertices] == [(0, 0), (0, 2)]
    corner = clip(sq, HalfPlane(1, 1, 0))  # keeps the origin only
    assert corner is not None and [(v.x, v.y) for v in corner.vertices] == [(0, 0)]
    assert clip(sq, HalfPlane(1, 0, -1)) is None


# clip against the vertex-scan reference (helpers.reference_clip)


def _clip_cases(P: PolySet2, rng: random.Random):
    """Half-planes through a vertex, along an edge from either side, at
    rational offsets, missing P and containing P."""
    cases = []
    for h in rng.sample(P.halfplanes, min(3, len(P.halfplanes))):
        cases += [h, HalfPlane(-h.a, -h.c, -h.b)]
    for _ in range(4):
        a, c = rng.randint(-7, 7), rng.randint(-7, 7)
        if a == c == 0:
            continue
        levels = [a * v.x + c * v.y for v in P.vertices]
        lo, hi = min(levels), max(levels)
        through = rng.choice(levels)
        cases += [HalfPlane(a, c, through), HalfPlane(-a, -c, -through), HalfPlane(a, c, lo)]
        cases.append(HalfPlane(a, c, lo + (hi - lo) * Fraction(rng.randint(1, 999), 1000)))
        cases += [HalfPlane(a, c, lo - Fraction(1, 7)), HalfPlane(a, c, hi), HalfPlane(a, c, hi + 3)]
    return cases


def _clip_sets():
    rng = random.Random(4242)
    for _ in range(60):
        yield random_polyset(rng, max_num=30, max_den=6)
    for dim in (0, 1):
        for _ in range(20):
            yield _random_set(rng, dim)
    for _ in range(6):
        yield octagon(rng)
    for n in (20, 64, 250, 1000):
        yield instance_to_polyset(convex_chain_polygon(n))


def test_clip_matches_the_vertex_scan_for_every_hint():
    rng = random.Random(99)
    kinds = set()
    for P in _clip_sets():
        n = len(P.vertices)
        hints = range(n) if n <= 12 else sorted({0, 1, n // 3, n // 2, n - 1, rng.randrange(n)})
        for h in _clip_cases(P, rng):
            expected = reference_clip(P, h)
            kinds.add("empty" if expected is None else "whole" if expected == P else len(expected.vertices))
            for hint in hints:
                assert clip(P, h, hint) == expected, (P, h, hint)
    assert {"empty", "whole", 1, 2, 3} <= kinds


def test_residual_regions_match_the_vertex_scan(monkeypatch):
    checked = []

    def checking_clip(P, h, hint=0):
        region = clip(P, h, hint)
        assert region == reference_clip(P, h), (P, h, hint)
        checked.append(region)
        return region

    monkeypatch.setattr(hull_new, "clip", checking_clip)
    rng = random.Random(31)
    polys = [random_polyset(rng, max_num=40, max_den=7) for _ in range(40)]
    polys.append(instance_to_polyset(convex_chain_polygon(1000)))
    regions = 0
    for P in polys:
        hull = convex_hull(replace_facets(P))
        if len(hull) < 2:
            continue
        checked.clear()
        for region in residual_regions(P, hull):
            assert any(region is c for c in checked)
            regions += 1
    assert regions > 200


def test_integer_forms_edge_lines_and_areas_match_plain_fractions():
    # Each set's integer vertex forms (X, Y, W) give back its vertices, each
    # sweep frame's edge_line is the line through the edge's two ends, and
    # area is the shoelace area: random polygons, chain 20- to 1000-gons,
    # octagons with ~10**10 denominators moved ~10**12, and clips of each.
    rng = random.Random(2026)
    sets = [random_polyset(rng, max_num=40, max_den=9) for _ in range(30)]
    sets += [instance_to_polyset(convex_chain_polygon(n)) for n in (20, 64, 250, 1000)]
    sets += [octagon(rng, reach=10**12) for _ in range(6)]
    for P in list(sets):
        sets += [Q for h in rng.sample(_clip_cases(P, rng), 4) if (Q := clip(P, h, rng.randrange(len(P.vertices))))]
    # Half-plane intersections of random systems and of systems built from
    # polygons.  The deque answers every polygon-built one, and its vertex
    # forms are the reduced line-pair solutions.
    hp_rng = random.Random(13)
    sets += [S for _ in range(120) if isinstance(S := _rule(random_halfplane_system(hp_rng, hp_rng.randint(3, 40))), PolySet2)]
    for _ in range(40):
        P = random_polyset(hp_rng, max_num=40, max_den=9)
        rows = list(P.halfplanes) + [HalfPlane(h.a, h.c, h.b + hp_rng.randint(1, 5)) for h in P.halfplanes[:2]]
        hp_rng.shuffle(rows)
        S = _intersect_halfplanes(rows)
        assert S == P and all(gcd(X, Y, W) == 1 for X, Y, W in S._forms)
        sets.append(S)
    lines = 0
    for S in sets:
        verts, n = S.vertices, len(S.vertices)
        assert len(S._forms) == n
        for (X, Y, W), v in zip(S._forms, verts):
            assert W > 0 and (Fraction(X, W), Fraction(Y, W)) == v
        assert area(S) == shoelace_area(verts)
        if n < 3:
            continue
        normals = [(1, 0), (0, 1)] + [(h.a, h.c) for h in rng.sample(S.halfplanes, min(3, n))]
        for a, c in normals + [(-a, -c) for a, c in normals]:
            frame = _Frame(S._forms, a, c)
            for j in range(n) if n <= 40 else rng.sample(range(n), 40):
                p, q = verts[j], verts[(j + 1) % n]
                if a * p.x + c * p.y == a * q.x + c * q.y:
                    continue
                lp, lq, lr = frame.edge_line(j, (j + 1) % n)
                assert lr > 0 and gcd(gcd(lp, lq), lr) == 1
                assert (Fraction(lp, lr), Fraction(lq, lr)) == frame_line(p, q, a, c, frame.u, frame.v)
                lines += 1
    assert len(sets) > 250 and lines > 5000


def test_every_construction_path_stores_reduced_forms(monkeypatch):
    # A PolySet2 stores only its vertices' integer forms (X, Y, W).  Every
    # way of building one must reduce them (W > 0, gcd(X, Y, W) = 1): then
    # equal points have equal forms, so a set rebuilt from its vertices is
    # equal to it and hashes alike.
    rng = random.Random(1414)
    F = Fraction
    built = {
        "constructor": [
            PolySet2((Point2(F(1, 2), F(1, 4)),)),
            PolySet2(((F(1, 6), F(1, 4)), (F(1, 6), F(5, 3)))),
            PolySet2(((0, 0), (F(3, 2), F(1, 6)), (F(2, 3), F(9, 4)))),
        ],
        "polyset_from_vertices": [random_polyset(rng, max_num=40, max_den=12) for _ in range(20)],
    }
    polygons = built["polyset_from_vertices"]
    built["deque"] = [polyset_from_halfplanes(list(P.halfplanes)) for P in polygons]

    def no_deque(hps):
        raise geom._NeedsFallback

    monkeypatch.setattr(geom, "_intersect_sorted_deque", no_deque)
    built["box clipping"] = [polyset_from_halfplanes(list(P.halfplanes)) for P in polygons]
    monkeypatch.undo()
    clips = [Q for P in polygons for h in _clip_cases(P, rng) if (Q := clip(P, h, rng.randrange(len(P._forms))))]
    for S in [Q for Q in clips if len(Q._forms) == 2]:
        (X, Y, W), (X2, Y2, W2) = S._forms
        mid = F(X * W2 + X2 * W, 2 * W * W2)
        clips += [clip(S, HalfPlane(1, 0, mid)), clip(S, HalfPlane(-1, 0, -mid))]
    for kind, size in (("polygon", 3), ("segment", 2), ("point", 1)):
        built[f"clip to a {kind}"] = [Q for Q in clips if Q is not None and min(len(Q._forms), 3) == size]
    scales = [F(1, 2), F(2, 3), F(5, 7)]
    built["vertex instance"] = [
        instance_to_polyset(Instance(None, vertices=tuple(pts)))
        for pts in ([tuple(v) for v in P.vertices] for P in polygons[:5])
    ] + [
        instance_to_polyset(Instance(None, vertices=((F(1, 6), F(1, 4)), (F(1, 6), F(5, 3)), (F(1, 6), F(1, 2))))),
        instance_to_polyset(Instance(None, vertices=((F(3, 4), F(1, 6)),))),
    ]
    built["inequality instance"] = [
        instance_to_polyset(Instance(None, inequalities=tuple((h.a * k, h.c * k, h.b * k) for h in P.halfplanes)))
        for P, k in zip(polygons, scales * 7)
    ]
    for path, sets in built.items():
        assert sets, path
        for S in sets:
            assert all(W > 0 and gcd(X, Y, W) == 1 for X, Y, W in S._forms), (path, S._forms)
            rebuilt = PolySet2(S.vertices)
            assert rebuilt == S and hash(rebuilt) == hash(S), (path, S)
    # A segment from its forms in either order, vertical or not, has its
    # ends in lex order.
    for _ in range(40):
        p = Point2(F(rng.randint(-50, 50), rng.randint(1, 9)), F(rng.randint(-50, 50), rng.randint(1, 9)))
        x = p.x if rng.random() < 0.5 else F(rng.randint(-50, 50), rng.randint(1, 9))
        q = Point2(x, F(rng.randint(-50, 50), rng.randint(1, 9)))
        if p == q:
            continue
        for ends in ([p, q], [q, p]):
            S = geom._degenerate_polyset([geom._form(v) for v in ends])
            assert S.vertices == tuple(sorted(ends)) and S == PolySet2(sorted(ends)), ends


def _far_rational(rng: random.Random, shift: int) -> Fraction:
    """shift plus a rational within +-100 whose denominator is ~10**10."""
    q = rng.randrange(10**10, 2 * 10**10)
    return shift + Fraction(rng.randint(-100 * q, 100 * q), q)


def test_hull_turns_and_segment_membership_match_plain_fractions_at_scale():
    # Points with ~10**10 denominators moved ~10**12: points on a segment,
    # on its line beyond either end, one ~10**-10 step off the line, and
    # scattered around it.  The hull chain's turns and segment membership
    # read integer forms; the references use plain Fraction cross products.
    rng = random.Random(1213)
    kinds = set()
    for _ in range(150):
        dx, dy = rng.randint(-10**12, 10**12), rng.randint(-10**12, 10**12)
        u, w = sorted({(_far_rational(rng, dx), _far_rational(rng, dy)) for _ in range(2)})
        step = Fraction(1, rng.randrange(10**10, 2 * 10**10))
        pts = [u, w]
        for _ in range(rng.randint(1, 10)):
            t = Fraction(rng.randint(-4, 14), 10)
            p = (u[0] + t * (w[0] - u[0]), u[1] + t * (w[1] - u[1]))
            pts += [p, (p[0], p[1] + rng.choice([step, -step])), (_far_rational(rng, dx), _far_rational(rng, dy))]
        rng.shuffle(pts)
        assert [tuple(p) for p in _hull_chain(pts)] == rational_hull(pts)
        line = [p for p in pts if frac_cross(u, w, p) == 0]
        assert [tuple(p) for p in _hull_chain(line)] == rational_hull(line)
        S = PolySet2((u, w))
        for p in pts:
            inside = on_segment(u, w, p)
            kinds.add((inside, frac_cross(u, w, p) == 0))
            assert contains(S, p) == inside, (u, w, p)
    assert kinds == {(True, True), (False, True), (False, False)}


def test_contains_boundary_and_interior():
    tri = polyset_from_vertices([(0, 0), (4, 0), (0, 4)])
    assert contains(tri, (1, 1))
    assert contains(tri, (2, 2))  # on the hypotenuse
    assert contains(tri, (0, 0))
    assert not contains(tri, (3, 2))
    assert not contains(tri, (Fraction(-1, 7), 0))


# ---------------------------------------------------------------------------
# independent cross-check of the hull against plain-Fraction reference code


@settings(max_examples=150)
@given(st.lists(int_points_st, min_size=1, max_size=25))
def test_convex_hull_matches_reference_hull(pts):
    ours = [(p.x, p.y) for p in convex_hull(pts)]
    ref = [(int(x), int(y)) for x, y in rational_hull([(Fraction(x), Fraction(y)) for x, y in pts])]
    assert ours == ref


def test_convex_hull_of_full_columns_matches_the_uncollapsed_chain():
    # Many points per column, whole columns, one vertical line and one
    # slanted line: only column ends reach the chain, which must not change
    # the hull.
    rng = random.Random(11)
    for i in range(400):
        kind = i % 4
        if kind == 0:
            pts = [(rng.randint(-6, 6), rng.randint(-40, 40)) for _ in range(rng.randint(1, 120))]
        elif kind == 1:
            pts = [(x, y) for x in range(rng.randint(-5, 0), rng.randint(0, 5)) for y in range(rng.randint(-9, 0), rng.randint(0, 9))]
        elif kind == 2:
            x = rng.randint(-50, 50)
            pts = [(x, rng.randint(-50, 50)) for _ in range(rng.randint(1, 30))]
        else:
            (x, y), (dx, dy) = (rng.randint(-50, 50), rng.randint(-50, 50)), (rng.randint(-3, 3), rng.randint(-3, 3))
            pts = [(x + k * dx, y + k * dy) for k in rng.sample(range(-20, 20), rng.randint(1, 12))]
        ref = [(int(x), int(y)) for x, y in rational_hull(pts)]
        assert [(p.x, p.y) for p in convex_hull(pts)] == ref
