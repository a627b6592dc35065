"""End-to-end command-line behavior: outputs, exit codes, determinism."""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import inthull.bench as bench
import inthull.cli as cli
from inthull import enumerate_integer_points, instance_to_polyset, load_instance
from helpers import cli_env, empty_85_row_system

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "inthull", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=cli_env(),
        timeout=120,
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


def test_hull_engine_knobs_change_nothing_observable():
    base = run_cli("hull", str(FIXTURES / "narrow_band.json"))
    tuned = run_cli(
        "hull", str(FIXTURES / "narrow_band.json"), "--brute-threshold", "1", "--max-depth", "1"
    )
    assert base.returncode == tuned.returncode == 0
    assert base.stdout == tuned.stdout


def test_exit_code_1_on_bad_input():
    assert run_cli("hull", "/no/such/file.json").returncode == 1
    assert run_cli("hull", "--engine", "quantum", str(FIXTURES / "segment.json")).returncode == 1
    assert run_cli("gen", "--kind", "random", "--n", "2", "--scale", "5", "--seed", "0", "-o", "/dev/null").returncode == 1
    assert run_cli("nonsense").returncode == 1


def test_exit_code_3_on_sweep_limit():
    r = run_cli("hull", str(FIXTURES / "narrow_band.json"), "--max-sweep", "1")
    assert r.returncode == 3
    assert "sweep" in r.stderr


def test_negative_max_sweep_is_a_bad_flag(capsys):
    # A bad flag exits 1, not with the sweep limit's resource refusal 3, and
    # also where no facet sweep would run (a segment, the oracle).
    for fixture, engine in [("unit_square.json", "new"), ("segment.json", "new"), ("unit_square.json", "oracle")]:
        argv = ["hull", str(FIXTURES / fixture), "--engine", engine, "--max-sweep", "-1"]
        assert cli.main(argv) == 1, (fixture, engine)
        assert "max_sweep" in capsys.readouterr().err


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


def test_bench_status_column_records_refusals(tmp_path):
    suite = tmp_path / "suite"
    suite.mkdir()
    # x >= 0, y >= 0: an unbounded quadrant, refused by every engine
    quadrant = {"name": "quadrant", "inequalities": [["-1", "0", "0"], ["0", "-1", "0"]]}
    # a lattice triangle whose bounding box holds 20001² > 10⁸ cells
    huge = {"name": "huge", "vertices": [["0", "0"], ["20000", "0"], ["0", "20000"]]}
    for inst in (quadrant, huge):
        (suite / f"{inst['name']}.json").write_text(json.dumps(inst), encoding="utf-8")
    out = tmp_path / "s.csv"
    args = ["bench", "--suite", str(suite), "--engines", "new,baseline,oracle", "--reps", "1", "--no-timing", "-o", str(out)]
    assert cli.main(args) == 0
    rows = [r.split(",") for r in out.read_text().strip().split("\n")[1:]]
    assert {(r[0], r[4]): r[8] for r in rows} == {
        ("huge", "new"): "ok",
        ("huge", "baseline"): "ok",
        ("huge", "oracle"): "skipped:budget",
        ("quadrant", "new"): "error:UnboundedSet",
        ("quadrant", "baseline"): "error:UnboundedSet",
        ("quadrant", "oracle"): "error:UnboundedSet",
    }


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


@pytest.mark.parametrize("fixture", ["triangle_slanted", "segment"])
def test_plot_marks_exactly_the_lattice_points(tmp_path, fixture):
    path = FIXTURES / f"{fixture}.json"
    out = tmp_path / "p.svg"
    assert cli.main(["plot", str(path), "-o", str(out)]) == 0
    P = instance_to_polyset(load_instance(str(path)))
    assert out.read_text().count('class="lp-in"') == len(enumerate_integer_points(P))


def test_plot_degenerate_instance_renders_line(tmp_path):
    out = tmp_path / "seg.svg"
    assert run_cli("plot", str(FIXTURES / "segment.json"), "-o", str(out)).returncode == 0
    svg = out.read_text()
    assert '<line class="poly"' in svg


def test_help_exits_zero():
    assert run_cli("--help").returncode == 0
    assert run_cli("hull", "--help").returncode == 0
