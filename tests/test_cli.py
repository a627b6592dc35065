"""End-to-end command-line behavior: outputs, exit codes, determinism."""

from __future__ import annotations

import hashlib
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import inthull.bench as bench
import inthull.cli as cli
import inthull.hull_baseline as hull_baseline
import inthull.hull_new as hull_new
from inthull import enumerate_integer_points, instance_to_polyset, load_instance, save_instance
from inthull.generate import convex_chain_polygon
from helpers import cli_env, empty_85_row_system

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(*args, cwd=None, timeout=120):
    return subprocess.run(
        [sys.executable, "-m", "inthull", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=cli_env(),
        timeout=timeout,
    )


# ---------------------------------------------------------------------------
# hull


def test_hull_prints_canonical_vertex_list():
    for engine in ("new", "baseline", "oracle"):
        r = run_cli("hull", str(FIXTURES / "triangle_shallow.json"), "--engine", engine)
        assert r.returncode == 0, r.stderr
        assert r.stdout == "[[-1,0],[2,0],[2,2],[1,3],[0,2]]\n"


def test_hull_check_passes_on_agreement():
    r = run_cli("hull", str(FIXTURES / "triangle_slanted.json"), "--engine", "new", "--check")
    assert r.returncode == 0
    assert r.stdout == "[[-2,0],[2,0],[3,2],[3,3],[1,2]]\n"


def test_hull_handles_degenerate_instance():
    r = run_cli("hull", str(FIXTURES / "segment.json"))
    assert r.returncode == 0
    assert r.stdout == "[[0,0],[3,6]]\n"


def test_exit_code_1_on_bad_input():
    assert run_cli("hull", "/no/such/file.json").returncode == 1
    assert run_cli("hull", "--engine", "quantum", str(FIXTURES / "segment.json")).returncode == 1
    assert run_cli("gen", "--kind", "random", "--n", "2", "--scale", "5", "--seed", "0", "-o", "/dev/null").returncode == 1
    assert run_cli("nonsense").returncode == 1


def test_exit_code_1_on_an_over_long_numeral(tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"vertices": [["1" * 5000, 0], [1, 0], [0, 1]]}), encoding="utf-8")
    assert cli.main(["hull", str(path)]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error:") and "5000 digits" in out.err


def assert_usage_error_for_every_engine(capsys, fixture, flag):
    # `hull` takes no tuning flag, only --engine, --check and --stats:
    # sweeps have no limit and the engines run in their default configuration.
    for engine in ("new", "baseline", "oracle"):
        argv = ["hull", str(FIXTURES / fixture), "--engine", engine, *flag]
        assert cli.main(argv) == 1, (fixture, flag, engine)
        out = capsys.readouterr()
        assert out.out == "" and "unrecognized arguments" in out.err, (fixture, flag, engine)


def test_hull_engine_knobs_change_nothing_observable(capsys):
    # The engine is the only knob left: every engine prints the same hull,
    # and the removed tuning flags are usage errors.
    outs = set()
    for engine in ("new", "baseline", "oracle"):
        assert cli.main(["hull", str(FIXTURES / "narrow_band.json"), "--engine", engine]) == 0
        outs.add(capsys.readouterr().out)
    assert len(outs) == 1
    for flag in (["--brute-threshold", "1"], ["--max-depth", "1"]):
        assert_usage_error_for_every_engine(capsys, "narrow_band.json", flag)


def test_negative_max_sweep_is_a_bad_flag(capsys):
    # --max-sweep is gone, so any value exits 1 (not the resource refusal 3),
    # also where no sweep would run (a segment, the oracle).
    for fixture in ("narrow_band.json", "unit_square.json", "segment.json"):
        for flag in (["--max-sweep", "1"], ["--max-sweep", "-1"]):
            assert_usage_error_for_every_engine(capsys, fixture, flag)


def test_exit_code_3_on_resource_refusal(tmp_path):
    unbounded = tmp_path / "unbounded.json"
    unbounded.write_text(json.dumps({"inequalities": [[-1, 0, 0], [0, -1, 0]]}), encoding="utf-8")
    r = run_cli("hull", str(unbounded))
    assert (r.returncode, r.stdout) == (3, "")
    assert r.stderr.startswith("error:") and "recession direction" in r.stderr
    # 100,020,001 cells: over the oracle's budget, so --check cannot run.
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"vertices": [[0, 0], ["20001/2", 0], [0, "20001/2"]]}), encoding="utf-8")
    r = run_cli("hull", str(big), "--check")
    assert (r.returncode, r.stdout) == (3, "")
    assert r.stderr.startswith("error:")


def test_hull_check_prints_empty_hull_of_an_empty_wide_system(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"inequalities": empty_85_row_system()}), encoding="utf-8")
    for engine in ("new", "baseline", "oracle"):
        assert cli.main(["hull", str(path), "--engine", engine, "--check"]) == 0
        assert capsys.readouterr().out == "[]\n"


def test_check_catches_a_corrupted_engine(monkeypatch, capsys):
    real = bench.integer_hull_new

    def corrupted(P, *args, **kwargs):
        hull = real(P, *args, **kwargs)
        return hull[:-1]  # drop a vertex

    monkeypatch.setattr(bench, "integer_hull_new", corrupted)
    code = cli.main(["hull", str(FIXTURES / "triangle_shallow.json"), "--engine", "new", "--check"])
    assert code == 2
    assert "mismatch" in capsys.readouterr().err


# (facet_sweeps, edge_sweeps) per engine under `hull --stats`.  `new`
# enumerates polygons of at most 256 bounding-box cells without sweeping
# them; `baseline` sweeps every facet inward.  On narrow_band the
# certificates of `new`'s facet hits close every partial-hull edge.
STATS_SWEEPS = {
    "narrow_band": {"new": (4, 0), "baseline": (4, 0)},
    "segment": {"new": (0, 0), "baseline": (0, 0)},
    "triangle_shallow": {"new": (0, 0), "baseline": (3, 0)},
    "triangle_slanted": {"new": (0, 0), "baseline": (3, 0)},
    "unit_square": {"new": (0, 0), "baseline": (4, 0)},
}


@pytest.mark.parametrize("fixture", sorted(STATS_SWEEPS))
def test_hull_stats_print_run_stats_on_stderr_only(capsys, fixture):
    path = str(FIXTURES / f"{fixture}.json")
    for engine, sweeps in STATS_SWEEPS[fixture].items():
        assert cli.main(["hull", path, "--engine", engine]) == 0
        plain = capsys.readouterr()
        assert cli.main(["hull", path, "--engine", engine, "--stats"]) == 0
        out = capsys.readouterr()
        assert (out.out, plain.err) == (plain.out, "")
        lines = out.err.splitlines()
        assert len(lines) == 1, out.err
        stats = json.loads(lines[0])
        assert set(stats) == {"brute_cells", "regions", "max_depth", "facet_sweeps", "edge_sweeps"}
        assert (stats["facet_sweeps"], stats["edge_sweeps"]) == sweeps, (fixture, engine)


# A lattice-free sliver of 10,100 bounding-box cells.  The facet pass of
# `new` and of `baseline` stops at its first sweep, which finds nothing and
# counts as one; the oracle sweeps nothing and enumerates every cell.
SLIVER = {"name": "sliver", "vertices": [["0", "1/10"], ["100", "1001/10"], ["0", "9/10"]]}
SLIVER_STATS = {
    "new": {"brute_cells": 0, "regions": 0, "max_depth": 0, "facet_sweeps": 1, "edge_sweeps": 0},
    "baseline": {"brute_cells": 0, "regions": 0, "max_depth": 0, "facet_sweeps": 1, "edge_sweeps": 0},
    "oracle": {"brute_cells": 10100, "regions": 0, "max_depth": 0, "facet_sweeps": 0, "edge_sweeps": 0},
}


def check_lattice_free_sliver_stats(directory: Path) -> None:
    """`hull --stats` on SLIVER, written to `directory`, prints `[]` and
    SLIVER_STATS for every engine."""
    path = directory / "sliver.json"
    path.write_text(json.dumps(SLIVER), encoding="utf-8")
    for engine, expected in SLIVER_STATS.items():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["hull", str(path), "--engine", engine, "--stats"])
        assert (code, out.getvalue(), json.loads(err.getvalue())) == (0, "[]\n", expected), engine


def test_hull_stats_count_the_one_sweep_of_a_lattice_free_sliver(tmp_path):
    check_lattice_free_sliver_stats(tmp_path)


# ---------------------------------------------------------------------------
# gen


def test_gen_writes_deterministic_instances(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        r = run_cli("gen", "--kind", "edgecase", "--n", "4", "--scale", "31/2", "--seed", "5", "-o", str(out))
        assert r.returncode == 0, r.stderr
    assert a.read_bytes() == b.read_bytes()
    data = json.loads(a.read_text())
    assert set(data) == {"name", "inequalities"}
    # generated instances feed straight back into the hull command
    r = run_cli("hull", str(a), "--check")
    assert r.returncode == 0


def test_gen_random_round_trips_through_hull(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli("gen", "--kind", "random", "--n", "7", "--scale", "12", "--seed", "3", "-o", str(out)).returncode == 0
    r = run_cli("hull", str(out), "--engine", "baseline", "--check")
    assert r.returncode == 0
    assert r.stdout.startswith("[[")


def test_gen_edgecase_redraws_a_pair_with_no_coprime_twist(tmp_path):
    # Seed 15 at scale 30 first draws (a, b) = (22, 15), whose five twists
    # all share a factor; the generator draws a new pair instead of hanging.
    out = tmp_path / "e.json"
    r = run_cli("gen", "--kind", "edgecase", "--n", "3", "--scale", "30", "--seed", "15", "-o", str(out), timeout=30)
    assert r.returncode == 0, r.stderr
    assert json.loads(out.read_text())["name"] == "edgecase-n3-s30-seed15"


# ---------------------------------------------------------------------------
# bench


CSV_HEADER = "name,n_vertices,area,area_decimal,engine,wall_time_ns,hull_size,brute_cells,status"


def make_suite(tmp_path):
    suite = tmp_path / "suite"
    suite.mkdir()
    for kind, n, seed in (("random", 5, 1), ("random", 8, 2), ("edgecase", 3, 3)):
        run_cli("gen", "--kind", kind, "--n", str(n), "--scale", "15", "--seed", str(seed),
                "-o", str(suite / f"{kind}{seed}.json"))
    return suite


def test_bench_csv_schema_and_stability(tmp_path):
    suite = make_suite(tmp_path)
    out1, out2 = tmp_path / "o1.csv", tmp_path / "o2.csv"
    for out in (out1, out2):
        r = run_cli("bench", "--suite", str(suite), "--reps", "2", "--no-timing", "-o", str(out))
        assert r.returncode == 0, r.stderr
    text = out1.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 3 * 2  # three instances x two engines
    assert out1.read_bytes() == out2.read_bytes()
    for row in lines[1:]:
        cols = row.split(",")
        assert cols[4] in ("new", "baseline")
        assert cols[5] == "0"  # --no-timing zeroes the clock column
        assert cols[8] == "ok"


def test_bench_records_real_timings_without_the_flag(tmp_path):
    suite = make_suite(tmp_path)
    out = tmp_path / "t.csv"
    assert run_cli("bench", "--suite", str(suite), "--reps", "1", "-o", str(out)).returncode == 0
    rows = out.read_text().strip().split("\n")[1:]
    assert all(int(r.split(",")[5]) > 0 for r in rows)


def test_bench_engine_selection(tmp_path):
    suite = make_suite(tmp_path)
    out = tmp_path / "e.csv"
    assert run_cli("bench", "--suite", str(suite), "--engines", "oracle", "--no-timing", "-o", str(out)).returncode == 0
    rows = out.read_text().strip().split("\n")[1:]
    assert rows and all(r.split(",")[4] == "oracle" for r in rows)


def make_refusal_suite(tmp_path):
    suite = tmp_path / "refusals"
    suite.mkdir()
    # x >= 0, y >= 0: an unbounded quadrant, refused by every engine
    quadrant = {"name": "quadrant", "inequalities": [["-1", "0", "0"], ["0", "-1", "0"]]}
    # a lattice triangle whose bounding box holds 20001² > 10⁸ cells
    huge = {"name": "huge", "vertices": [["0", "0"], ["20000", "0"], ["0", "20000"]]}
    for inst in (quadrant, huge):
        (suite / f"{inst['name']}.json").write_text(json.dumps(inst), encoding="utf-8")
    return suite


def bench_all_engines(suite, out):
    return cli.main(["bench", "--suite", str(suite), "--engines", "new,baseline,oracle", "--reps", "1", "--no-timing", "-o", str(out)])


def test_bench_status_column_records_refusals(tmp_path):
    out = tmp_path / "s.csv"
    assert bench_all_engines(make_refusal_suite(tmp_path), out) == 0
    rows = [r.split(",") for r in out.read_text().strip().split("\n")[1:]]
    assert {(r[0], r[4]): r[8] for r in rows} == {
        ("huge", "new"): "ok",
        ("huge", "baseline"): "ok",
        ("huge", "oracle"): "skipped:budget",
        ("quadrant", "new"): "error:UnboundedSet",
        ("quadrant", "baseline"): "error:UnboundedSet",
        ("quadrant", "oracle"): "error:UnboundedSet",
    }


def test_bench_refuses_a_suite_that_is_not_a_directory(tmp_path, capsys):
    # A missing path and a file both exit 1 and write no CSV; an empty
    # directory is still a suite of no instances.
    instance = FIXTURES / "unit_square.json"
    for suite in (tmp_path / "nonexistent", instance):
        out = tmp_path / "b.csv"
        assert cli.main(["bench", "--suite", str(suite), "-o", str(out)]) == 1
        assert "not a directory" in capsys.readouterr().err
        assert not out.exists()
    empty = tmp_path / "empty"
    empty.mkdir()
    assert cli.main(["bench", "--suite", str(empty), "--no-timing", "-o", str(tmp_path / "e.csv")]) == 0
    assert (tmp_path / "e.csv").read_text().strip() == CSV_HEADER


# sha256 of `bench --engines new,baseline,oracle --no-timing` on each
# suite.  A change here means the CSV bytes changed: mend it only on
# purpose, and log it.
BENCH_SHA256 = {
    "generated": "09ceb8557a7652987a9a600e099d6ecd0abb987d79c55d255d4efee8e7214593",
    "refusals": "35d394135793698b4946f5227b1084a45027af9c4da2a3260e0fd0afa17c879c",
}
SUITES = {"generated": make_suite, "refusals": make_refusal_suite}


@pytest.mark.parametrize("suite", sorted(BENCH_SHA256))
def test_bench_bytes_are_pinned(tmp_path, suite):
    out = tmp_path / "b.csv"
    assert bench_all_engines(SUITES[suite](tmp_path), out) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BENCH_SHA256[suite]


@pytest.mark.parametrize("flag", [["--reps", "0"], ["--engines", ","], ["--engines", "new,foo"]])
def test_bench_refuses_a_bad_flag_and_writes_no_csv(tmp_path, capsys, flag):
    # An empty directory is a valid suite, so the flag alone is refused.
    suite = tmp_path / "empty"
    suite.mkdir()
    out = tmp_path / "b.csv"
    assert cli.main(["bench", "--suite", str(suite), *flag, "-o", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


# ---------------------------------------------------------------------------
# plot


def test_plot_svg_structure_and_stability(tmp_path):
    out1, out2 = tmp_path / "p1.svg", tmp_path / "p2.svg"
    for out in (out1, out2):
        r = run_cli("plot", str(FIXTURES / "unit_square.json"), "-o", str(out))
        assert r.returncode == 0, r.stderr
    svg = out1.read_text()
    assert svg.startswith("<svg ")
    assert svg.count('class="lp-in"') == 4  # the four lattice points of the square
    assert 'class="hull"' in svg
    assert 'class="poly"' in svg
    assert out1.read_bytes() == out2.read_bytes()


# sha256 of `plot FIXTURE --engine ENGINE` output.  A change here means the
# SVG bytes changed: mend it only on purpose, and log it.
PLOT_SHA256 = {
    ("narrow_band", "baseline"): "30764f9c1c43ff39174526f38f0a18bef1a217f00ad1be56fdd554e03c7dad8d",
    ("narrow_band", "new"): "aabcb8d1e3fcd7afccc6a1efdfce5b56b469656cf45a493b155b21a84600c38a",
    ("narrow_band", "oracle"): "f930e8c6e4e0c1ff65f90d3e646c534830b863860b60e477ffa871cb53d7216b",
    ("segment", "baseline"): "11d977d3f5c533afb5b101f6dfbfed5fdea786729712090a6ab17fec0f1d18a5",
    ("segment", "new"): "11d977d3f5c533afb5b101f6dfbfed5fdea786729712090a6ab17fec0f1d18a5",
    ("segment", "oracle"): "11d977d3f5c533afb5b101f6dfbfed5fdea786729712090a6ab17fec0f1d18a5",
    ("triangle_shallow", "baseline"): "4e2af782ebb7ade21948703df2bc3704e90c0b4e16e04323920524b1837ef332",
    ("triangle_shallow", "oracle"): "6044c692fdbfcde1ec9a3c445f4e4017318921c1f64d31520c805a992ecf61f9",
    ("triangle_slanted", "baseline"): "11af096395f03eda5d6aafdbd5c066d1aed2954006bdbba20db8bb1232bf014f",
    ("triangle_slanted", "oracle"): "c89b5f5ca9180e9c4fba6290e8b5eb8c6bb4a5eb497a8bf84e1a30d544430d06",
    ("unit_square", "baseline"): "5ed620e6044ce61397cc22954eed898385bfd96d8e6de7057e6be7c7bb28fded",
    ("unit_square", "oracle"): "fc4da648e3345b26e18a15f23c28262418f321b3b72e067859863eb078135ed9",
}
# `new` enumerates these polygons (at most 256 bounding-box cells) without
# sweeping them, so its plot overlays no chords and is the oracle's.
for _fixture in ("triangle_shallow", "triangle_slanted", "unit_square"):
    PLOT_SHA256[(_fixture, "new")] = PLOT_SHA256[(_fixture, "oracle")]


@pytest.mark.parametrize("fixture,engine", sorted(PLOT_SHA256))
def test_plot_bytes_are_pinned(tmp_path, fixture, engine):
    out = tmp_path / "p.svg"
    assert cli.main(["plot", str(FIXTURES / f"{fixture}.json"), "--engine", engine, "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PLOT_SHA256[(fixture, engine)]


# sha256 of `plot NAME.json --engine ENGINE` output, the same for every
# engine, on an empty set and a one-point set.  The file's stem is the SVG
# title, so the name is part of the pin.
EDGE_PLOT_SHA256 = {
    ("empty", '{"inequalities": [[1, 0, 0], [-1, 0, -1]]}'): "e1b17a1ac84a24e6f2221b703b331e85bd07d3124f0bbaee1cf640a4d83fe4ed",
    ("point", '{"vertices": [["1/3", "1/2"]]}'): "42a67594a4e12725d31a70b3f341739ffd269f11c75b606d9543be58e92ace75",
}


@pytest.mark.parametrize("engine", ["new", "baseline", "oracle"])
@pytest.mark.parametrize("name,text", sorted(EDGE_PLOT_SHA256))
def test_plot_bytes_of_an_empty_and_a_one_point_set_are_pinned(tmp_path, name, text, engine):
    path = tmp_path / f"{name}.json"
    path.write_text(text + "\n")
    out = tmp_path / "p.svg"
    assert cli.main(["plot", str(path), "--engine", engine, "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EDGE_PLOT_SHA256[(name, text)]


@pytest.mark.parametrize("fixture", ["triangle_slanted", "segment"])
def test_plot_marks_exactly_the_lattice_points(tmp_path, fixture):
    path = FIXTURES / f"{fixture}.json"
    out = tmp_path / "p.svg"
    assert cli.main(["plot", str(path), "-o", str(out)]) == 0
    P = instance_to_polyset(load_instance(str(path)))
    assert out.read_text().count('class="lp-in"') == len(enumerate_integer_points(P))


def test_plot_new_draws_the_chords_of_the_facets_it_swept(tmp_path, capsys):
    # `new` sweeps a half-turn cover of the 1000-gon's facets, not each one.
    path = tmp_path / "chain.json"
    save_instance(convex_chain_polygon(1000), str(path))
    assert cli.main(["hull", str(path), "--stats"]) == 0
    facet_sweeps = json.loads(capsys.readouterr().err)["facet_sweeps"]
    out = tmp_path / "chain.svg"
    assert cli.main(["plot", str(path), "--engine", "new", "-o", str(out)]) == 0
    assert out.read_text().count('class="chord"') == facet_sweeps == 4


def test_plot_runs_the_engines_facet_pass_once(tmp_path, monkeypatch):
    # plot draws the facet pass that the engine reports and runs no second
    # one: `new` makes 4 facet and 118 edge sweeps, `baseline` sweeps all
    # 1,000 facets inward and intersects the tightened rows once, and
    # `oracle` sweeps nothing.
    path = tmp_path / "chain.json"
    save_instance(convex_chain_polygon(1000), str(path))
    calls = []
    for module, name in ((hull_new, "_run_sweep"), (hull_baseline, "_run_sweep"), (hull_baseline, "_intersect_halfplanes")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, real=real, name=name, **kw: calls.append(name) or real(*args, **kw))
    got = {}
    for engine in ("new", "baseline", "oracle"):
        calls.clear()
        assert cli.main(["plot", str(path), "--engine", engine, "-o", str(tmp_path / "chain.svg")]) == 0
        got[engine] = (calls.count("_run_sweep"), calls.count("_intersect_halfplanes"))
    assert got == {"new": (122, 0), "baseline": (1000, 1), "oracle": (0, 0)}


def test_plot_degenerate_instance_renders_line(tmp_path):
    out = tmp_path / "seg.svg"
    assert run_cli("plot", str(FIXTURES / "segment.json"), "-o", str(out)).returncode == 0
    svg = out.read_text()
    assert '<line class="poly"' in svg


def test_help_exits_zero():
    assert run_cli("--help").returncode == 0
    assert run_cli("hull", "--help").returncode == 0
