"""The sweep-and-refine hull engine."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import inthull
from inthull import (
    BudgetExceeded,
    HalfPlane,
    Point2,
    PolySet2,
    RefineConfig,
    RunStats,
    clip,
    contains,
    convex_hull,
    enumerate_integer_points,
    instance_to_polyset,
    integer_hull_baseline,
    integer_hull_new,
    integer_hull_oracle,
    load_instance,
    normalize_facets,
    point,
    polyset_from_halfplanes,
    polyset_from_vertices,
    sweep_from_opposite,
)
from inthull.bench import ENGINES
from inthull.generate import convex_chain_polygon, edgecase_halfplanes, random_polygon
import inthull.hull_new as hull_new
from inthull.hull_new import replace_facets, residual_regions
from inthull.oracle import _hull_points, bbox_cell_count
from helpers import (
    CountedForms,
    brute_points_in,
    hull_tuples,
    lattice_facet_triangle,
    load_perfbench,
    octagon,
    opposite_sweep_points,
    random_polyset,
)

TRI_SHALLOW = polyset_from_vertices([(-2, Fraction(-1, 5)), (3, Fraction(-1, 5)), (Fraction(17, 10), Fraction(39, 10))])
HULL_SHALLOW = [(-1, 0), (2, 0), (2, 2), (1, 3), (0, 2)]

TRI_SLANTED = polyset_from_vertices(
    [(Fraction(-5, 2), Fraction(-1, 5)), (Fraction(11, 5), Fraction(-7, 10)), (Fraction(18, 5), Fraction(39, 10))]
)
HULL_SLANTED = [(-2, 0), (2, 0), (3, 2), (3, 3), (1, 2)]


def test_golden_shallow_triangle():
    assert hull_tuples(integer_hull_new(TRI_SHALLOW)) == HULL_SHALLOW


def test_golden_slanted_triangle():
    assert hull_tuples(integer_hull_new(TRI_SLANTED)) == HULL_SLANTED


def test_trivial_inputs():
    assert integer_hull_new(None) == convex_hull([])
    sq = polyset_from_vertices([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert hull_tuples(integer_hull_new(sq)) == [(0, 0), (1, 0), (1, 1), (0, 1)]


def test_lattice_free_polygon_yields_empty_hull():
    thin = polyset_from_vertices(
        [(Fraction(1, 4), Fraction(1, 4)), (Fraction(3, 4), Fraction(1, 4)), (Fraction(1, 2), Fraction(3, 4))]
    )
    assert list(integer_hull_new(thin)) == []


def test_degenerate_inputs():
    sq = polyset_from_vertices([(0, 0), (2, 0), (2, 2), (0, 2)])
    corner = clip(sq, HalfPlane(1, 1, 0))  # the single point (0,0)
    assert hull_tuples(integer_hull_new(corner)) == [(0, 0)]
    edge = clip(sq, HalfPlane(0, 1, 0))  # the segment y=0, 0<=x<=2
    assert hull_tuples(integer_hull_new(edge)) == [(0, 0), (2, 0)]


def test_thin_sliver_wedge_completes_quickly():
    # nearly antiparallel facet lines rich in lattice points: the regime in
    # which direct enumeration of the leftover corners is expensive
    P = polyset_from_halfplanes(
        [
            HalfPlane(35537, -10007, 1 + Fraction(1, 7)),
            HalfPlane(-35536, 10007, 1 + Fraction(1, 11)),
            HalfPlane(-10007, -35537, 45544 * 300 + Fraction(1, 5)),
        ]
    )
    stats = RunStats()
    hull = integer_hull_new(P, stats=stats)
    assert hull == integer_hull_oracle(P)
    assert stats.brute_cells < 10**5


def test_residual_clips_walk_only_the_kept_arcs(monkeypatch):
    # The descents from one clip's deepest vertex to the next walk P about
    # once, and each clip walks its kept arc: about 5,000 indexed reads of
    # P's vertex forms here, where a scan of the 1000-gon per clip reads
    # 108,000.
    P = instance_to_polyset(convex_chain_polygon(1000))
    hull = convex_hull(opposite_sweep_points(P))
    object.__setattr__(P, "_forms", CountedForms(P._forms))
    monkeypatch.setattr(CountedForms, "reads", 0)
    regions = residual_regions(P, hull)
    assert len(regions) == 108
    assert 0 < CountedForms.reads <= 3 * (len(P.vertices) + sum(len(r.vertices) for r in regions))


def test_no_lattice_point_extends_an_edge_of_the_hit_hull():
    # residual_regions cuts a two-point hull [u, w] one level off its line
    # and so relies on this: P has no lattice point on the line uw outside
    # the segment.  It holds for every pair of sweep hits, so for every
    # edge of their hull.
    segments = 0
    for seed in range(300):
        kw = dict(max_num=30, max_den=8) if seed % 2 else dict(max_num=6, max_den=3)
        P = random_polyset(random.Random(seed), **kw)
        lattice = brute_points_in(P)
        _, baseline_hits = normalize_facets(P)
        for hits in (list(replace_facets(P).values()), baseline_hits):
            hull = hull_tuples(convex_hull(p for hit in hits for p in (hit.lo, hit.hi)))
            if len(hull) < 2:
                continue
            segments += len(hull) == 2
            edges = [hull] if len(hull) == 2 else list(zip(hull, hull[1:] + hull[:1]))
            for (ux, uy), (wx, wy) in edges:
                dx, dy = wx - ux, wy - uy
                for qx, qy in lattice:
                    if dx * (qy - uy) - dy * (qx - ux) == 0:
                        along = dx * (qx - ux) + dy * (qy - uy)
                        assert 0 <= along <= dx * dx + dy * dy, (seed, (ux, uy), (wx, wy), (qx, qy))
    assert segments > 0


TWO_POINT_SEEDS = (2566, 2897, 3827, 4231, 17157)


def two_point_start(seed: int) -> PolySet2:
    rng = random.Random(seed)
    return random_polyset(rng, max_num=rng.choice([6, 12, 30]), max_den=rng.choice([3, 8]))


def test_a_two_point_partial_hull_is_swept_on_both_sides():
    # The opposite sweeps of these polygons hit only the two ends u, w of a
    # segment, and their integer hulls have vertices on both sides of it:
    # the edge loop must sweep u -> w and w -> u.
    for seed in TWO_POINT_SEEDS:
        P = two_point_start(seed)
        u, w = convex_hull(p for hit in replace_facets(P).values() for p in (hit.lo, hit.hi))
        hull = integer_hull_new(P, RefineConfig(1))
        assert hull == integer_hull_oracle(P)
        sides = {(w.x - u.x) * (p.y - u.y) - (w.y - u.y) * (p.x - u.x) for p in hull}
        assert min(sides) < 0 < max(sides), seed


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6))
def test_oracle_equivalence_on_random_polygons(seed):
    P = random_polyset(random.Random(seed), max_num=30, max_den=8)
    assert integer_hull_new(P) == integer_hull_oracle(P)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_soundness_and_idempotence(seed):
    P = random_polyset(random.Random(seed), max_num=25, max_den=6)
    hull = integer_hull_new(P)
    for p in hull:
        assert p.x == int(p.x) and p.y == int(p.y)
        assert contains(P, (p.x, p.y))
    if len(hull) >= 3:
        again = integer_hull_new(polyset_from_vertices(hull_tuples(hull)))
        assert again == hull


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.integers(-4, 4), st.integers(-4, 4), st.integers(-15, 15))
def test_monotone_under_clipping(seed, a, c, b):
    if a == 0 and c == 0:
        return
    P = random_polyset(random.Random(seed), max_num=20, max_den=5)
    Q = clip(P, HalfPlane(a, c, b))
    if Q is None:
        return
    hp = hull_tuples(integer_hull_new(P))
    hq = hull_tuples(integer_hull_new(Q))
    if not hp:
        assert not hq
        return
    if not hq:
        return
    outer = set((p.x, p.y) for p in enumerate_integer_points(P))
    assert set(hq) <= outer
    if len(hp) >= 3:
        H = polyset_from_vertices(hp)
        for p in hq:
            assert contains(H, p)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_refine_config_invariance(seed):
    P = random_polyset(random.Random(seed), max_num=25, max_den=6)
    results = {
        integer_hull_new(P, RefineConfig(brute_force_cell_threshold=1)),
        integer_hull_new(P, RefineConfig(brute_force_cell_threshold=256)),
        integer_hull_new(P, RefineConfig(brute_force_cell_threshold=10**6)),
    }
    assert len(results) == 1


def test_stats_are_populated():
    # `new` enumerates the 24-cell triangle outright and sweeps it under a
    # threshold below its size, counting no region either way; `baseline`
    # counts and enumerates its corner regions.
    stats = [RunStats(), RunStats(), RunStats()]
    integer_hull_new(TRI_SHALLOW, stats=stats[0])
    integer_hull_new(TRI_SHALLOW, RefineConfig(1), stats=stats[1])
    integer_hull_baseline(TRI_SHALLOW, stats=stats[2])
    assert [(s.brute_cells, s.regions, s.max_depth) for s in stats] == [(24, 0, 0), (0, 0, 0), (15, 3, 0)]


def test_sweep_counters_count_each_kind_of_sweep():
    # TRI_SHALLOW's 24 cells: `new` enumerates them by default; under a
    # threshold of 1 it sweeps its 3 facets from the opposite side and then
    # 3 of its 7 partial-hull edges, as its ends' certificates close the
    # other 4.  `baseline` sweeps the 3 facets inward.  A
    # lattice-free sliver of 110 cells stops both after the first sweep.
    thin = polyset_from_vertices([(0, Fraction(1, 2)), (10, Fraction(21, 2)), (10, Fraction(65, 6))])
    runs = [
        lambda P, s: integer_hull_new(P, stats=s),
        lambda P, s: integer_hull_new(P, RefineConfig(1), stats=s),
        lambda P, s: integer_hull_baseline(P, stats=s),
    ]
    got = []
    for P in (TRI_SHALLOW, thin):
        for run in runs:
            stats = RunStats()
            run(P, stats)
            got.append((stats.facet_sweeps, stats.edge_sweeps))
    assert got == [(0, 0), (3, 3), (3, 0), (0, 0), (1, 0), (1, 0)]


def test_a_small_root_is_enumerated_and_a_larger_one_swept(monkeypatch):
    # The input polygon is the first region: at most the threshold's cells
    # are enumerated without a sweep, one cell more and it is swept.
    cells = bbox_cell_count(TRI_SHALLOW)
    sweeps = []
    counted = lambda P: sweeps.append(P) or replace_facets(P)
    monkeypatch.setattr("inthull.hull_new.replace_facets", counted)
    stats = RunStats()
    hull = integer_hull_new(TRI_SHALLOW, RefineConfig(cells), stats=stats)
    assert (len(sweeps), stats.regions, stats.brute_cells) == (0, 0, cells)
    assert hull_tuples(hull) == HULL_SHALLOW
    assert hull_tuples(integer_hull_new(TRI_SHALLOW, RefineConfig(cells - 1))) == HULL_SHALLOW
    assert sweeps[0] is TRI_SHALLOW


# Over 20 triangles per S whose facet lines carry lattice points (the
# paper's edge case): the summed brute_cells of `baseline`, and the sweeps
# of default `new`, 3 facet sweeps per triangle and the rest edge sweeps of
# the edges that their ends' certificates leave open.
LATTICE_FACET_COSTS = {5: (418, 152), 10: (1645, 195), 20: (5120, 237), 40: (26315, 291), 80: (72693, 337)}


def test_lattice_facet_triangles_cost_baseline_cells_and_new_sweeps(monkeypatch):
    # Inward sweeps stop at once on a facet line that holds lattice points,
    # so `baseline` enumerates whole corners, which grow like S^2; `new`
    # sweeps from the opposite vertex, then once per open partial-hull edge,
    # and enumerates nothing.
    calls = []
    real = hull_new._run_sweep
    monkeypatch.setattr(hull_new, "_run_sweep", lambda *args, **kw: calls.append(args) or real(*args, **kw))
    got = {}
    for S in LATTICE_FACET_COSTS:
        rng = random.Random(S)
        base, new = RunStats(), RunStats()
        sweeps = 0
        for _ in range(20):
            P = lattice_facet_triangle(rng, S)
            hull = integer_hull_baseline(P, stats=base)
            calls.clear()
            assert integer_hull_new(P, stats=new) == hull
            sweeps += len(calls)
        assert (new.brute_cells, new.regions, new.max_depth) == (0, 0, 0)
        got[S] = (base.brute_cells, sweeps)
    assert got == LATTICE_FACET_COSTS


# The summed `brute_cells` of the paper's first proposed procedure on the
# same triangles: README's "opposite sweeps + brute force" column.
OPPOSITE_SWEEP_CELLS = {5: 14239, 10: 202245, 20: 3105092, 40: 4192764, 80: 23438385}


def test_opposite_sweeps_then_brute_force_cost_the_papers_cells():
    # Sweep every facet from the opposite side, then enumerate each region
    # of P outside the hull of the hits.  Run with -s to print the column.
    got = {}
    for S in OPPOSITE_SWEEP_CELLS:
        rng = random.Random(S)
        stats = RunStats()
        for _ in range(20):
            P = lattice_facet_triangle(rng, S)
            hits = [sweep_from_opposite(P, i) for i in range(len(P.halfplanes))]
            points = list({p for hit in hits for p in (hit.lo, hit.hi)})
            for region in residual_regions(P, convex_hull(points)):
                points += _hull_points(region, stats)
            assert convex_hull(points) == integer_hull_new(P)
        got[S] = stats.brute_cells
        print(f"S = {S}: opposite sweeps + brute force enumerate {stats.brute_cells:,} cells")
    assert got == OPPOSITE_SWEEP_CELLS


def test_edge_sweeps_past_the_root_are_at_most_twice_the_hull(monkeypatch):
    # Each edge sweep (top=True) closes an edge of the final hull or finds
    # a new hull vertex, so a hull H costs at most 2*|H| of them; the
    # root's facet sweeps (top=False) are at most one per facet.
    calls = []
    real = hull_new._run_sweep
    monkeypatch.setattr(hull_new, "_run_sweep", lambda *args, **kw: calls.append(args) or real(*args, **kw))
    polys = [random_polyset(random.Random(seed), max_num=30, max_den=8) for seed in range(300)]
    for S in (5, 10, 20, 40, 80):
        rng = random.Random(S)
        polys += [lattice_facet_triangle(rng, S) for _ in range(20)]
    swept = 0
    for P in polys:
        calls.clear()
        stats = RunStats()
        hull = integer_hull_new(P, RefineConfig(1), stats=stats)
        edge_sweeps = sum(1 for args in calls if args[3])
        facet_sweeps = len(calls) - edge_sweeps
        assert (stats.facet_sweeps, stats.edge_sweeps) == (facet_sweeps, edge_sweeps)
        assert 0 < facet_sweeps <= len(P._forms)
        if len(hull) < 2:
            continue
        assert 0 < edge_sweeps <= 2 * len(hull), (P, edge_sweeps, len(hull))
        swept += 1
    assert swept > 300


def acceptance_polygons():
    """The polygons of acceptance gates 1, 4 and 5, and the fixtures."""
    polys = [random_polyset(random.Random(seed), max_num=50, max_den=10, min_pts=3, max_pts=12) for seed in range(1000)]
    polys += [instance_to_polyset(edgecase_halfplanes(3, 150 + 5 * seed, seed)) for seed in range(50)]
    polys.append(instance_to_polyset(convex_chain_polygon(1000)))
    return polys + [instance_to_polyset(load_instance(str(path))) for path in sorted(FIXTURES.glob("*.json"))]


@pytest.mark.parametrize("corpus", ["acceptance", "small-random", "chain-1000", "bignum", "wedge"])
def test_sweep_counts_stay_within_their_bounds(corpus):
    # replace_facets sweeps facet 0 and then distinct midpoints, so at most
    # n facets.  Each edge sweep closes an edge of H or adds a vertex of H
    # to a cycle that starts as the hull of the facet hits, so at most
    # 2|H| - |start| of them.  Both bounds are loose: the largest measured
    # ratio to each is printed beside it.  Workloads are at seed 1.
    if corpus == "acceptance":
        polys = acceptance_polygons()
    else:
        polys = [instance_to_polyset(inst) for inst in load_perfbench("workloads").WORKLOADS[corpus](1)]
    swept = edge_sweeps = hull_vertices = 0
    facet_ratio = edge_ratio = Fraction(0)
    for P in polys:
        stats = RunStats()
        hull = integer_hull_new(P, stats=stats)
        if not stats.facet_sweeps:
            continue
        start = convex_hull({p for hit in replace_facets(P).values() for p in (hit.lo, hit.hi)})
        n, bound = len(P.halfplanes), 2 * len(hull) - len(start)
        assert stats.facet_sweeps <= n, (P, stats)
        assert stats.edge_sweeps <= bound, (P, stats, len(hull), len(start))
        facet_ratio = max(facet_ratio, Fraction(stats.facet_sweeps, n))
        edge_ratio = max(edge_ratio, Fraction(stats.edge_sweeps, bound or 1))
        swept, edge_sweeps, hull_vertices = swept + 1, edge_sweeps + stats.edge_sweeps, hull_vertices + len(hull)
    print(
        f"\n{corpus}: {swept} of {len(polys)} polygons swept; largest facet_sweeps/n {float(facet_ratio):.3f}, "
        f"largest edge_sweeps/(2|H| - |start|) {float(edge_ratio):.2f} (each bound 1); "
        f"{edge_sweeps / hull_vertices:.2f} edge sweeps per vertex of H"
    )
    assert swept > 0


def needle(below: int) -> PolySet2:
    """A convex chain near x = 0 with `below` vertices under y = 0 and
    twice as many above, closed by the apex (1000, 0).  The opposite sweeps
    of the chain's facets all stop at the apex, those of the two long
    facets at the chain's ends: the first bisection splits the facets into
    two ranges whose ends both stop at the apex, one of which turns by more
    than a half-turn across the long facets."""
    chain = [(Fraction(y * y, 100), y) for y in range(-below, 2 * below + 1)]
    return polyset_from_vertices(chain + [(1000, 0)])


def cover_test_polygons():
    """300 seeded random polygons, convex_chain_polygon(n) for every even n
    from 4 to 200 and n in {250, 500, 750, 1000}, 10 octagons with ~10**10
    denominators moved ~10**12, 50 lattice-facet triangles and 4 needles."""
    rng = random.Random(20)
    polys = [random_polyset(random.Random(seed), max_num=30, max_den=8) for seed in range(300)]
    polys += [instance_to_polyset(convex_chain_polygon(n)) for n in list(range(4, 201, 2)) + [250, 500, 750, 1000]]
    polys += [octagon(rng, 10**12) for _ in range(10)]
    polys += [lattice_facet_triangle(rng, S) for S in (5, 10, 20, 40, 80) for _ in range(10)]
    polys += [needle(below) for below in (2, 5, 10, 21)]
    return polys


# The oracle's cell budget in the cover test: larger polygons are certified.
COVER_ORACLE_CELLS = 10**4


def check_facet_cover(P, certify):
    """replace_facets(P) reports the hit of each facet it swept, from
    facets whose neighbouring normals turn by less than a half-turn all the
    way round; the hits' points are a subset of every facet's opposite-side
    hit points; and `new` under RefineConfig(1) passes check_hull."""
    facet_of = {(h.a, h.c): i for i, h in enumerate(P.halfplanes)}
    swept = []
    real = hull_new._run_sweep

    def recording(Q, a, c, top, hint):
        swept.append(facet_of[a, c])
        return real(Q, a, c, top, hint)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hull_new, "_run_sweep", recording)
        hits = hull_new.replace_facets(P)
    # Every swept facet reports its hit, or facet 0's sweep found nothing.
    assert sorted(hits) == sorted(swept) if hits else swept == [0], P
    every = opposite_sweep_points(P)
    assert {p for hit in hits.values() for p in (hit.lo, hit.hi)} <= every, P
    if every:
        normals = [(P.halfplanes[i].a, P.halfplanes[i].c) for i in sorted(swept)]
        for (a, c), (a2, c2) in zip(normals, normals[1:] + normals[:1]):
            assert a * c2 - c * a2 > 0, (P, sorted(swept))
    check_hull(P, integer_hull_new(P, RefineConfig(1)), certify)


def check_hull(P, hull, certify):
    """`hull` is the oracle's hull of P (the certificate's verdict where
    the oracle refuses by COVER_ORACLE_CELLS), as a cycle that convex_hull
    keeps as it is."""
    try:
        reference = convex_hull(enumerate_integer_points(P, budget=COVER_ORACLE_CELLS))
    except BudgetExceeded:
        assert certify(inthull, P, hull) is None, P
    else:
        assert hull == reference, P
    assert hull == convex_hull(hull), P


def test_the_facet_cover_turns_by_less_than_a_half_turn_and_keeps_the_hull():
    # replace_facets sweeps facets until each swept normal turns to the
    # next by less than a half-turn; the edge loop finds the rest of H.
    certify = load_perfbench("certify").certify
    for P in cover_test_polygons():
        check_facet_cover(P, certify)


def test_every_edge_closed_by_certificates_is_final(monkeypatch):
    # An edge that its ends' certificates close runs no sweep; the sweep it
    # skips would stop at the edge's own level b.
    certify = load_perfbench("certify").certify
    rng = random.Random(23)
    polys = [random_polyset(random.Random(seed), max_num=30, max_den=8) for seed in range(200)]
    polys += [lattice_facet_triangle(rng, S) for S in (5, 10, 20, 40, 80) for _ in range(10)]
    polys += [octagon(rng, 10**12) for _ in range(10)]
    polys += [needle(below) for below in (2, 5, 10, 21)]
    polys += [two_point_start(seed) for seed in TWO_POINT_SEEDS]
    closed = []
    real = hull_new._closed_by

    def recording(cert_u, cert_w, a, c, b):
        shut = real(cert_u, cert_w, a, c, b)
        if shut:
            closed.append((a, c, b))
        return shut

    monkeypatch.setattr(hull_new, "_closed_by", recording)
    total = 0
    for P in polys:
        closed.clear()
        check_hull(P, integer_hull_new(P, RefineConfig(1)), certify)
        for a, c, b in closed:
            assert hull_new._run_sweep(P, a, c, True, 0).offset == b, (P, a, c, b)
        total += len(closed)
    assert total > 1000, total


def test_a_chain_of_1000_facets_sweeps_fewer_than_half():
    # Four facet sweeps, a quarter-turn apart, cover convex_chain_polygon(1000)
    # and find 4 of its 108 integer hull vertices; each edge sweep then
    # closes an edge of H or finds new vertices, and the certificates of
    # their ends close 84 more edges with no sweep.
    P = instance_to_polyset(convex_chain_polygon(1000))
    stats = RunStats()
    hull = integer_hull_new(P, stats=stats)
    assert (stats.facet_sweeps, stats.edge_sweeps, len(hull)) == (4, 118, 108)


def test_a_chain_of_1000_facets_descends_a_few_vertices_per_sweep(monkeypatch):
    # Each edge sweep's descent starts midway between the top vertices its
    # ends' hits began at, which bracket its own: on convex_chain_polygon(1000)
    # the 122 descents walk 223 vertices in all, at most 11 each (2,420 and
    # 125 from the top vertex of the sweep that made the edge).
    P = instance_to_polyset(convex_chain_polygon(1000))
    n = len(P.vertices)
    moves = []
    real = hull_new._run_sweep

    def recording(Q, a, c, top, hint):
        hit = real(Q, a, c, top, hint)
        moves.append(min((hit.vertex - hint) % n, (hint - hit.vertex) % n))
        return hit

    monkeypatch.setattr(hull_new, "_run_sweep", recording)
    integer_hull_new(P)
    assert (len(moves), sum(moves), max(moves)) == (122, 223, 11)


FIXTURES = Path(__file__).parent / "fixtures"

# (brute_cells, regions, max_depth) per engine: `new` with the default
# config, which enumerates the triangles and the square outright (at most
# 256 cells each), `new` with RefineConfig(1), which sweeps every polygon,
# and `baseline`.  `new` counts no regions and no depth: past its root it
# only sweeps.
RUN_STATS = {
    "narrow_band.json": [(0, 0, 0), (0, 0, 0), (40, 2, 0)],
    "segment.json": [(0, 0, 0), (0, 0, 0), (0, 0, 0)],
    "triangle_shallow.json": [(24, 0, 0), (0, 0, 0), (15, 3, 0)],
    "triangle_slanted.json": [(24, 0, 0), (0, 0, 0), (23, 2, 0)],
    "unit_square.json": [(4, 0, 0), (0, 0, 0), (0, 0, 0)],
    "wedge 0": [(0, 0, 0), (0, 0, 0), (28867, 3, 0)],
    "wedge 1": [(0, 0, 0), (0, 0, 0), (35014, 3, 0)],
    "wedge 2": [(0, 0, 0), (0, 0, 0), (9124, 3, 0)],
}


def _run_stats_case(name):
    if name.startswith("wedge"):
        k = int(name.split()[1])
        return instance_to_polyset(edgecase_halfplanes(3, 150 + 5 * k, k))
    return instance_to_polyset(load_instance(FIXTURES / name))


@pytest.mark.parametrize("name", sorted(RUN_STATS))
def test_run_stats_per_engine(name):
    P = _run_stats_case(name)
    stats = [RunStats() for _ in range(3)]
    integer_hull_new(P, stats=stats[0])
    integer_hull_new(P, RefineConfig(1), stats=stats[1])
    integer_hull_baseline(P, stats=stats[2])
    assert [(s.brute_cells, s.regions, s.max_depth) for s in stats] == RUN_STATS[name]


def test_counts_must_be_integers():
    for bad in (1.5, 3.0):
        with pytest.raises(TypeError):
            RefineConfig(bad)


def test_engines_answer_sweepless_sets(monkeypatch):
    # None, a point and a segment run no sweep in either engine, nor
    # through bench.ENGINES.
    monkeypatch.setattr(hull_new, "_run_sweep", lambda *args: pytest.fail("a sweepless set was swept"))
    sweepless = [None, PolySet2((Point2(Fraction(1, 2), Fraction(1, 3)),)), PolySet2((point(0, 0), point(3, 1)))]
    for engine, name in ((integer_hull_new, "new"), (integer_hull_baseline, "baseline")):
        for P in sweepless:
            assert engine(P) == ENGINES[name](P) == integer_hull_oracle(P)


def big_polygons():
    """Seeded polygons beyond the oracle's reach: random polygons at scales
    10^6..10^12, polygons whose vertices have denominators up to 10^10, and
    thin slivers along rational slopes moved ~10^12 by integer vectors."""
    rng = random.Random(2025)
    for e in range(6, 13):
        inst = random_polygon(rng.randint(5, 14), 10**e, rng.randrange(2**32))
        dx, dy = rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)
        yield polyset_from_vertices([(x + dx, y + dy) for x, y in inst.vertices])
    for _ in range(4):  # near a circle of radius 10..1000
        R = 10 ** rng.randint(1, 3)
        X, Y = rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)
        pts = []
        for k in range(rng.randint(3, 8)):
            t = Fraction(rng.randint(-10**4, 10**4), 10**4)
            q = rng.randint(10**9, 10**10)
            x, y = R * (1 - t * t) / (1 + t * t), R * 2 * t / (1 + t * t)
            pts.append((X + Fraction(round(x * q), q) * (-1) ** k, Y + Fraction(round(y * q), q)))
        yield polyset_from_vertices(pts)
    for i in range(6):  # slivers
        q = rng.randint(2, 10**4)
        p = rng.randint(-q, q)
        L = rng.randint(10**3, 10**4) if i % 2 else rng.randint(10**4, 10**9)
        X, Y = rng.randint(-10**12, 10**12), rng.randint(-10**12, 10**12)
        y0 = Y + Fraction(rng.randint(0, 10**10), 10**10)
        y1 = y0 + Fraction(p * L, q)
        width = Fraction(rng.randint(1, 5), rng.randint(1, q))
        yield polyset_from_vertices([(X, y0), (X + L, y1), (X + L, y1 + width)])


def test_new_and_baseline_agree_at_scale():
    # Every `new` answer passes the oracle-free certificate (one clip and
    # one sweep per hull edge), including those `baseline` refuses by
    # budget; the certificate rejects each hull with a vertex dropped or
    # moved by one lattice step.
    certify = load_perfbench("certify").certify
    answered = tampered = 0
    for P in big_polygons():
        hull = integer_hull_new(P)
        assert certify(inthull, P, hull) is None
        try:
            assert integer_hull_baseline(P) == hull
            answered += 1
        except BudgetExceeded:
            pass
        if len(hull) < 3:
            continue
        pts = [(p.x, p.y) for p in hull]
        (x, y), rest = pts[0], pts[1:]
        for wrong in [rest] + [rest + [(x + dx, y + dy)] for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))]:
            assert certify(inthull, P, convex_hull(wrong)) is not None, (P, wrong)
        tampered += 1
    assert answered >= 5 and tampered >= 10
