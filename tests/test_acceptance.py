"""The seven acceptance gates, one printed verdict line each.

Run `pytest tests/test_acceptance.py -s -v` to see the verdict lines; each
test prints exactly one `ACCEPTANCE n: PASS/FAIL — detail` line and then
asserts, so a red test still reports its measured numbers.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from inthull import (
    RefineConfig,
    RunStats,
    area,
    contains,
    convex_hull,
    instance_to_polyset,
    integer_hull_baseline,
    integer_hull_new,
    integer_hull_oracle,
    normalize_facets,
    polyset_from_halfplanes,
    polyset_from_vertices,
    sweep_from_opposite,
    sweep_inward,
)
from inthull.generate import convex_chain_polygon, edgecase_halfplanes
from helpers import brute_points_in, cli_env, hull_tuples, random_polyset

FIXTURES = Path(__file__).parent / "fixtures"


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}", flush=True)
    assert ok, f"acceptance criterion {num} failed: {detail}"


# ---------------------------------------------------------------------------


def test_acceptance_1_engines_match_the_oracle_on_1000_random_polygons():
    t0 = time.perf_counter()
    checked = 0
    first_bad = None
    for seed in range(1000):
        P = random_polyset(random.Random(seed), max_num=50, max_den=10, min_pts=3, max_pts=12)
        h_oracle = integer_hull_oracle(P)
        if integer_hull_new(P) != h_oracle or integer_hull_baseline(P) != h_oracle:
            first_bad = seed
            break
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = first_bad is None and checked == 1000 and elapsed < 120
    verdict(
        1,
        ok,
        f"new/baseline/oracle hulls identical on {checked}/1000 random polygons "
        f"in {elapsed:.1f}s (limit 120s)"
        + (f"; first disagreement at seed {first_bad}" if first_bad is not None else ""),
    )


def test_acceptance_2_shallow_triangle_golden():
    P = polyset_from_vertices(
        [(-2, Fraction(-1, 5)), (3, Fraction(-1, 5)), (Fraction(17, 10), Fraction(39, 10))]
    )
    expected = [(-1, 0), (2, 0), (2, 2), (1, 3), (0, 2)]
    got = {
        "new": hull_tuples(integer_hull_new(P)),
        "baseline": hull_tuples(integer_hull_baseline(P)),
        "oracle": hull_tuples(integer_hull_oracle(P)),
    }
    ok = all(g == expected for g in got.values())
    verdict(2, ok, f"triangle with shallow base: all three engines returned {expected}" if ok else f"expected {expected}, got {got}")


def test_acceptance_3_slanted_triangle_golden():
    P = polyset_from_vertices(
        [
            (Fraction(-5, 2), Fraction(-1, 5)),
            (Fraction(11, 5), Fraction(-7, 10)),
            (Fraction(18, 5), Fraction(39, 10)),
        ]
    )
    expected = [(-2, 0), (2, 0), (3, 2), (3, 3), (1, 2)]
    got = {
        "new": hull_tuples(integer_hull_new(P)),
        "baseline": hull_tuples(integer_hull_baseline(P)),
        "oracle": hull_tuples(integer_hull_oracle(P)),
    }
    ok = all(g == expected for g in got.values())
    verdict(3, ok, f"slanted triangle: all three engines returned {expected}" if ok else f"expected {expected}, got {got}")


def test_acceptance_4_edge_case_suite_cost_mechanism():
    wins = 0
    agree = True
    times_new = []
    times_base = []
    for seed in range(50):
        P = instance_to_polyset(edgecase_halfplanes(3, 150 + 5 * seed, seed))
        stats_new = RunStats()
        stats_base = RunStats()
        t0 = time.perf_counter()
        h_new = integer_hull_new(P, stats=stats_new)
        times_new.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        h_base = integer_hull_baseline(P, stats=stats_base)
        times_base.append(time.perf_counter() - t0)
        agree = agree and tuple(h_new) == tuple(h_base)
        if stats_new.brute_cells < stats_base.brute_cells:
            wins += 1
    med_new = statistics.median(times_new)
    med_base = statistics.median(times_base)
    ok = agree and wins >= 45 and med_new <= med_base
    verdict(
        4,
        ok,
        f"50 thin-wedge instances whose facet lines carry no lattice point: brute_cells(new) < "
        f"brute_cells(baseline) on {wins}/50 (need >= 45), median wall time "
        f"{med_new * 1e3:.1f}ms (new) vs {med_base * 1e3:.1f}ms (baseline), engines agree: {agree}",
    )


def test_acceptance_5_thousand_vertex_polygon_under_ten_seconds():
    P = instance_to_polyset(convex_chain_polygon(1000))
    poly_area = area(P)
    t0 = time.perf_counter()
    h_new = integer_hull_new(P)
    t_new = time.perf_counter() - t0
    t0 = time.perf_counter()
    h_base = integer_hull_baseline(P)
    t_base = time.perf_counter() - t0
    ok = (
        len(P.vertices) == 1000
        and Fraction(65000) <= poly_area <= Fraction(75000)
        and t_new < 10
        and t_base < 10
        and tuple(h_new) == tuple(h_base)
    )
    verdict(
        5,
        ok,
        f"1000-vertex polygon, area {float(poly_area):.1f}: new {t_new:.2f}s, "
        f"baseline {t_base:.2f}s (limit 10s each), results agree: {tuple(h_new) == tuple(h_base)}",
    )


def test_acceptance_6_property_suites_over_ten_thousand_cases():
    cases = 0
    failures = []

    # convex_hull idempotence and permutation invariance
    rng = random.Random(601)
    for _ in range(2500):
        pts = [(rng.randint(-40, 40), rng.randint(-40, 40)) for _ in range(rng.randint(0, 14))]
        hull = convex_hull(pts)
        shuffled = list(pts)
        rng.shuffle(shuffled)
        if convex_hull(shuffled) != hull or convex_hull([(p.x, p.y) for p in hull]) != hull:
            failures.append(("convex_hull", pts))
        cases += 1

    # H-rep / V-rep round trip
    for seed in range(1500):
        P = random_polyset(random.Random(7000 + seed), max_num=25, max_den=6)
        Q = polyset_from_halfplanes(list(P.halfplanes))
        if Q.vertices != P.vertices or Q.halfplanes != P.halfplanes:
            failures.append(("roundtrip", seed))
        cases += 1

    # sweep stopping lines bracket every integer point of P
    for seed in range(700):
        P = random_polyset(random.Random(20000 + seed), max_num=20, max_den=5)
        pts = brute_points_in(P)
        for i, h in enumerate(P.halfplanes):
            inner = sweep_inward(P, i)
            outer = sweep_from_opposite(P, i)
            if pts:
                vals = [h.a * x + h.c * y for x, y in pts]
                if inner is None or outer is None or not (
                    outer.offset <= min(vals) and max(vals) <= inner.offset
                    and max(vals) == inner.offset and min(vals) == outer.offset
                ):
                    failures.append(("bracketing", seed, i))
            elif inner is not None or outer is not None:
                failures.append(("bracketing-empty", seed, i))
            cases += 1

    # tightening every facet to its stopping line preserves the lattice set
    for seed in range(500):
        P = random_polyset(random.Random(40000 + seed), max_num=20, max_den=5)
        Q, hits = normalize_facets(P)
        pts = brute_points_in(P)
        if Q is None:
            if pts:
                failures.append(("normalize-empty", seed))
        elif brute_points_in(Q) != pts:
            failures.append(("normalize", seed))
        cases += len(P.halfplanes)

    # RefineConfig never changes the answer
    configs = (
        RefineConfig(brute_force_cell_threshold=1),
        RefineConfig(brute_force_cell_threshold=256),
        RefineConfig(brute_force_cell_threshold=10**6),
    )
    for seed in range(600):
        P = random_polyset(random.Random(60000 + seed), max_num=20, max_den=5)
        hulls = {integer_hull_new(P, cfg) for cfg in configs}
        if len(hulls) != 1:
            failures.append(("config", seed))
        cases += len(configs)

    ok = not failures and cases >= 10**4
    verdict(
        6,
        ok,
        f"{cases} property cases across hull canonicalization, H/V round-trips, "
        f"sweep bracketing, lattice-preserving normalization, and config invariance; "
        f"failures: {failures[:3] if failures else 'none'}",
    )


def test_acceptance_7_cli_runs_are_byte_identical(tmp_path):
    def full_run(tag: str) -> dict:
        d = tmp_path / tag
        suite = d / "suite"
        suite.mkdir(parents=True)
        out: dict = {}
        for kind, n, seed in (("random", 6, 11), ("random", 9, 12), ("edgecase", 3, 13)):
            f = suite / f"{kind}-{seed}.json"
            r = subprocess.run(
                [sys.executable, "-m", "inthull", "gen", "--kind", kind, "--n", str(n),
                 "--scale", "20", "--seed", str(seed), "-o", str(f)],
                capture_output=True, env=cli_env(), timeout=120,
            )
            assert r.returncode == 0, r.stderr
            out[f.name] = f.read_bytes()
        csv = d / "bench.csv"
        r = subprocess.run(
            [sys.executable, "-m", "inthull", "bench", "--suite", str(suite), "--reps", "2",
             "--no-timing", "-o", str(csv)],
            capture_output=True, env=cli_env(), timeout=120,
        )
        assert r.returncode == 0, r.stderr
        out["bench.csv"] = csv.read_bytes()
        svg = d / "plot.svg"
        r = subprocess.run(
            [sys.executable, "-m", "inthull", "plot", str(suite / "random-11.json"), "-o", str(svg)],
            capture_output=True, env=cli_env(), timeout=120,
        )
        assert r.returncode == 0, r.stderr
        out["plot.svg"] = svg.read_bytes()
        hull = subprocess.run(
            [sys.executable, "-m", "inthull", "hull", str(suite / "edgecase-13.json")],
            capture_output=True, env=cli_env(), timeout=120,
        )
        assert hull.returncode == 0, hull.stderr
        out["hull.stdout"] = hull.stdout
        return out

    first = full_run("run1")
    second = full_run("run2")
    same = {k for k in first if first[k] == second[k]}
    ok = same == set(first)
    verdict(
        7,
        ok,
        f"two full CLI runs produced byte-identical outputs for {sorted(first)}"
        if ok
        else f"outputs differ for {sorted(set(first) - same)}",
    )
