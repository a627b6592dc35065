"""The sweep-and-refine hull engine."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inthull import (
    BudgetExceeded,
    HalfPlane,
    Point2,
    PolySet2,
    RefineConfig,
    RunStats,
    SweepLimitExceeded,
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
)
from inthull.bench import run_engine
from inthull.generate import convex_chain_polygon, edgecase_halfplanes, random_polygon
from inthull.geom import _level
from inthull.hull_new import replace_facets, residual_regions
from inthull.oracle import bbox_cell_count
from helpers import brute_points_in, hull_tuples, lattice_facet_triangle, random_polyset

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
    # once, and each clip walks its kept arc: about 3,000 level evaluations
    # here, where a scan of the 1000-gon per clip takes 108,000.  Each is
    # one call of _level on a vertex's integer form (X, Y, W).
    P = instance_to_polyset(convex_chain_polygon(1000))
    hull = convex_hull(replace_facets(P))
    calls = []
    counted = lambda h, form: calls.append(form) or _level(h, form)
    monkeypatch.setattr("inthull.geom._level", counted)
    regions = residual_regions(P, hull)
    assert len(regions) == 108
    assert 0 < len(calls) <= 3 * (len(P.vertices) + sum(len(r.vertices) for r in regions))
    assert set(calls) <= set(P._forms)


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
        for hits in (replace_facets(P), {p for hit in baseline_hits for p in (hit.lo, hit.hi)}):
            hull = hull_tuples(convex_hull(hits))
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
        integer_hull_new(P, RefineConfig(brute_force_cell_threshold=1, max_depth=1)),
        integer_hull_new(P, RefineConfig(brute_force_cell_threshold=256, max_depth=16)),
        integer_hull_new(P, RefineConfig(brute_force_cell_threshold=10**6, max_depth=1)),
    }
    assert len(results) == 1


def test_stats_are_populated():
    # The 24-cell triangle is swept only under a threshold below its size.
    stats = RunStats()
    integer_hull_new(TRI_SHALLOW, RefineConfig(1, 3), stats=stats)
    assert stats.regions >= 1


def test_a_small_root_is_enumerated_and_a_larger_one_swept(monkeypatch):
    # The input polygon is the first region: at most the threshold's cells
    # are enumerated without a sweep, one cell more and it is swept.
    cells = bbox_cell_count(TRI_SHALLOW)
    sweeps = []
    counted = lambda P, **kw: sweeps.append(P) or replace_facets(P, **kw)
    monkeypatch.setattr("inthull.hull_new.replace_facets", counted)
    stats = RunStats()
    hull = integer_hull_new(TRI_SHALLOW, RefineConfig(cells), stats=stats)
    assert (len(sweeps), stats.regions, stats.brute_cells) == (0, 0, cells)
    assert hull_tuples(hull) == HULL_SHALLOW
    assert hull_tuples(integer_hull_new(TRI_SHALLOW, RefineConfig(cells - 1))) == HULL_SHALLOW
    assert sweeps[0] is TRI_SHALLOW
    # A root that runs no sweep meets no sweep limit; a swept one does.
    assert integer_hull_new(TRI_SHALLOW, RefineConfig(cells), max_sweep=0) == integer_hull_oracle(TRI_SHALLOW)
    with pytest.raises(SweepLimitExceeded):
        integer_hull_new(TRI_SHALLOW, RefineConfig(cells - 1), max_sweep=0)


# Summed brute_cells of `baseline` and default `new` over 20 triangles per
# S whose facet lines carry lattice points (the paper's edge case).
LATTICE_FACET_CELLS = {5: (418, 2187), 10: (1645, 3355), 20: (5120, 5048), 40: (26315, 8408)}


def test_lattice_facet_triangles_favour_new_past_a_crossover():
    # Inward sweeps stop at once on a facet line that holds lattice points,
    # so `baseline` enumerates whole corners, which grow like S^2; `new`
    # sweeps from the opposite vertex and recurses, and wins for large S.
    got = {}
    for S in LATTICE_FACET_CELLS:
        rng = random.Random(S)
        base, new = RunStats(), RunStats()
        for _ in range(20):
            P = lattice_facet_triangle(rng, S)
            assert integer_hull_baseline(P, stats=base) == integer_hull_new(P, stats=new)
        got[S] = (base.brute_cells, new.brute_cells)
    assert got == LATTICE_FACET_CELLS
    ratios = [b / n for b, n in got.values()]
    assert ratios == sorted(ratios) and ratios[-1] > 1


FIXTURES = Path(__file__).parent / "fixtures"

# (brute_cells, regions, max_depth) per engine: `new` with the default
# config, which enumerates the triangles and the square outright (at most
# 256 cells each), `new` with RefineConfig(1, 3), which caps the depth, and
# `baseline`.
RUN_STATS = {
    "narrow_band.json": [(93, 4, 1), (0, 4, 1), (40, 2, 0)],
    "segment.json": [(0, 0, 0), (0, 0, 0), (0, 0, 0)],
    "triangle_shallow.json": [(24, 0, 0), (1, 9, 2), (15, 3, 0)],
    "triangle_slanted.json": [(24, 0, 0), (0, 9, 2), (23, 2, 0)],
    "unit_square.json": [(4, 0, 0), (0, 0, 0), (0, 0, 0)],
    "wedge 0": [(260, 19, 4), (2326, 20, 3), (28867, 3, 0)],
    "wedge 1": [(448, 24, 4), (12839, 27, 3), (35014, 3, 0)],
    "wedge 2": [(297, 18, 4), (5063, 21, 3), (9124, 3, 0)],
}


def _run_stats_case(name):
    if name.startswith("wedge"):
        k = int(name.split()[1])
        return instance_to_polyset(edgecase_halfplanes(3, 150 + 5 * k, k))
    return instance_to_polyset(load_instance(FIXTURES / name))


@pytest.mark.parametrize("name", sorted(RUN_STATS))
def test_run_stats_per_engine(name):
    P = _run_stats_case(name)
    got = []
    for engine, cfg in (("new", RefineConfig()), ("new", RefineConfig(1, 3)), ("baseline", RefineConfig())):
        stats = RunStats()
        run_engine(engine, P, cfg=cfg, stats=stats)
        got.append((stats.brute_cells, stats.regions, stats.max_depth))
    assert got == RUN_STATS[name]


def test_counts_must_be_integers():
    P = polyset_from_vertices([(0, 0), (7, 1), (3, 5)])
    for bad in ({"brute_force_cell_threshold": 1.5}, {"max_depth": 2.5}, {"max_depth": 3.0}):
        with pytest.raises(TypeError):
            RefineConfig(**bad)
    for engine in ("new", "baseline", "oracle"):
        with pytest.raises(TypeError):
            run_engine(engine, P, max_sweep=1.5)


def test_engines_check_max_sweep_on_entry():
    # None, a point and a segment sweep nothing, yet both engines refuse a
    # bad limit for them as bench.run_engine does, and still take 0.
    sweepless = [None, PolySet2((Point2(Fraction(1, 2), Fraction(1, 3)),)), PolySet2((point(0, 0), point(3, 1)))]
    for engine, name in ((integer_hull_new, "new"), (integer_hull_baseline, "baseline")):
        for P in sweepless + [TRI_SHALLOW]:
            for bad, error in ((-1, ValueError), (-2, ValueError), (1.5, TypeError), (2.0, TypeError)):
                with pytest.raises(error):
                    engine(P, max_sweep=bad)
                with pytest.raises(error):
                    run_engine(name, P, max_sweep=bad)
        for P in sweepless:
            assert engine(P, max_sweep=0) == integer_hull_oracle(P)


def test_max_sweep_guard_propagates():
    thin = polyset_from_vertices(
        [(0, Fraction(1, 3)), (1000, Fraction(999, 7)), (1000, Fraction(1000, 7))]
    )
    with pytest.raises(SweepLimitExceeded):
        integer_hull_new(thin, max_sweep=1)


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
    answered = 0
    for P in big_polygons():
        hull = integer_hull_new(P)
        for p in hull:
            assert contains(P, (p.x, p.y))
        try:
            assert integer_hull_baseline(P) == hull
            answered += 1
        except BudgetExceeded:
            pass
    assert answered >= 5
