"""Invariants of the hull engines are explicit checks that `python -O` keeps."""

from __future__ import annotations

import ast
import inspect
from fractions import Fraction
from pathlib import Path

import pytest

import inthull
import inthull.generate as generate
import inthull.geom as geom
import inthull.hull_baseline as hull_baseline
import inthull.hull_new as hull_new
import inthull.lattice as lattice
from inthull import (
    GeometryError,
    HalfPlane,
    Instance,
    IntPoint2,
    Point2,
    PolySet2,
    RefineConfig,
    clip,
    contains,
    enumerate_integer_points,
    format_decimal,
    format_rational,
    instance_to_polyset,
    integer_hull_baseline,
    integer_hull_new,
    line_through,
    point,
    polyset_from_vertices,
    sweep_from_opposite,
    sweep_inward,
)
from inthull.generate import convex_chain_polygon, edgecase_halfplanes, random_polygon
from inthull.hull_new import residual_regions
from inthull.lattice import SweepHit, floor_sum

SRC = Path(hull_new.__file__).parent
TRI = polyset_from_vertices([(-2, Fraction(-1, 5)), (3, Fraction(-1, 5)), (Fraction(17, 10), Fraction(39, 10))])
PENTAGON = polyset_from_vertices([(0, 0), (2, 0), (3, 2), (1, 3), (0, 2)])  # facet index 3 is in range
SLIVER = polyset_from_vertices([(0, 0), (2, 0), (0, Fraction(1, 2))])  # its box holds 3 cells


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_assert_statements(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{module} has assert statements at lines {lines}"


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_every_imported_name_is_used(module):
    # __init__.py imports to re-export; a __future__ import is a flag.
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name.split(".")[0]: node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported.items() if name not in used}
    assert unused == {}, f"{module} imports names it never uses: {unused}"


def test_only_the_row_rule_reads_a_halfplanes_offset():
    # geom._row is the one rule that turns an exact rational inequality into
    # an integer row, and it has three callers: the two public entry points
    # that take a half-plane, which read its offset b only to hand it on,
    # and the inequality door of instance_to_polyset.  The only other lcm
    # is geom._form's, the point rule, so a second rule that scales a
    # rational inequality by its denominators shows as a new lcm user.  The
    # row is the package's one line type: a HalfPlane is built only by
    # geom, where the public API returns one, and by
    # hull_new.residual_regions, which clips through the public clip; no
    # other module imports it but the package namespace.
    offset_readers, row_users, lcm_users, builders, importers = set(), set(), set(), set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]

        def where(node):
            # ast.walk lists an enclosing function before a nested one.
            inside = [f.name for f in functions if f.lineno <= node.lineno <= f.end_lineno]
            return f"{path.stem}.{inside[-1] if inside else '<module>'}"

        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "b":
                offset_readers.add(where(node))
            elif (isinstance(node, ast.Name) and node.id == "_row") or (isinstance(node, ast.Attribute) and node.attr == "_row"):
                row_users.add(where(node))
            elif (isinstance(node, ast.Name) and node.id == "lcm") or (isinstance(node, ast.Attribute) and node.attr == "lcm"):
                lcm_users.add(where(node))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "HalfPlane":
                builders.add(where(node) if path.stem != "geom" else "geom")
            elif isinstance(node, ast.ImportFrom) and any(alias.name == "HalfPlane" for alias in node.names):
                importers.add(path.stem)
    assert offset_readers == {"geom.clip", "geom.polyset_from_halfplanes"}
    assert row_users == {"geom.clip", "geom.polyset_from_halfplanes", "instances.instance_to_polyset"}
    assert lcm_users == {"geom._form", "geom._row"}
    assert builders == {"geom", "hull_new.residual_regions"}
    assert importers == {"__init__", "hull_new"}


def test_each_frozen_value_is_stored_by_its_one_constructor():
    # A frozen value of the core is built by one constructor, which checks
    # its arguments and stores the final fields in one object.__setattr__
    # of __dict__: the __init__ of HalfPlane, PolySet2 and SweepHit, and
    # _polyset_from_forms, the one trusted PolySet2 door, which alone makes
    # an instance without its __init__.  A second door, or fields written
    # one by one, shows as another call.
    calls = []

    def scan(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                scan(child, scope + [child.name])
                continue
            func = getattr(child, "func", None)
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id == "object":
                written = getattr(child.args[1], "value", None) if func.attr == "__setattr__" else None
                calls.append((func.attr, ".".join(scope), written))
            scan(child, scope)

    for path in sorted(SRC.glob("*.py")):
        scan(ast.parse(path.read_text(encoding="utf-8")), [path.stem])
    assert sorted(calls) == [
        ("__new__", "geom._polyset_from_forms", None),
        ("__setattr__", "geom.HalfPlane.__init__", "__dict__"),
        ("__setattr__", "geom.PolySet2.__init__", "__dict__"),
        ("__setattr__", "geom._polyset_from_forms", "_forms"),
        ("__setattr__", "lattice.SweepHit.__init__", "__dict__"),
    ]


def test_stats_are_defaulted_only_at_the_engine_doors():
    # Every engine call counts into a RunStats it always holds: the three
    # doors that take `stats=None` replace it once, and nothing below them
    # checks for None.
    defaulted, guarded = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
            for node in ast.walk(function):
                if (
                    isinstance(node, ast.Compare)
                    and isinstance(node.left, ast.Name)
                    and node.left.id == "stats"
                    and isinstance(node.comparators[0], ast.Constant)
                    and node.comparators[0].value is None
                ):
                    found = defaulted if isinstance(node.ops[0], ast.Is) else guarded
                    found.append(f"{path.stem}.{function.name}")
    assert guarded == []
    assert sorted(defaulted) == [
        "hull_baseline.integer_hull_baseline",
        "hull_new.integer_hull_new",
        "oracle.enumerate_integer_points",
    ]


def test_baseline_takes_only_residual_regions_from_hull_new():
    # Both engines reach the brute-force rule through oracle._hull_points;
    # baseline imports from hull_new only residual_regions, which the
    # benchmark's tracer hooks in both modules.
    tree = ast.parse((SRC / "hull_baseline.py").read_text(encoding="utf-8"))
    taken = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("hull_new"):
            taken |= {alias.name for alias in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and any(a.name.endswith("hull_new") for a in node.names):
            taken.add("the whole module")
    assert taken == {"residual_regions"}


def check_residual_regions_must_shrink():
    """residual_regions checks each region's area against P's, so with
    every area read as 1 both a direct call and baseline's corner pass
    (3 regions of TRI) refuse."""
    calls = {
        "residual_regions": lambda: residual_regions(TRI, [IntPoint2(-1, 0), IntPoint2(2, 0), IntPoint2(1, 3)]),
        "integer_hull_baseline": lambda: integer_hull_baseline(TRI),
    }
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(hull_new, "area", lambda P: 1)
        for name, call in calls.items():
            try:
                call()
            except GeometryError as exc:
                assert "no smaller" in str(exc), (name, exc)
            else:
                raise AssertionError(f"{name} kept a region no smaller than its polygon")


def test_residual_regions_must_shrink():
    check_residual_regions_must_shrink()


def _faked_edge_sweeps(monkeypatch, fake):
    # `new` sweeps its root's facets from the opposite side (top=False) and
    # each partial-hull edge for the lattice max (top=True): only the
    # latter are faked.
    real = hull_new._run_sweep

    def sweep(P, a, c, top, hint, **kw):
        hit = real(P, a, c, top, hint, **kw)
        return fake(hit) if top else hit

    monkeypatch.setattr(hull_new, "_run_sweep", sweep)


@pytest.mark.parametrize("fake", [lambda hit: None, lambda hit: SweepHit(hit.offset - 1, hit.lo, hit.hi, hit.line)])
def test_an_edge_sweep_must_reach_the_edge(monkeypatch, fake):
    _faked_edge_sweeps(monkeypatch, fake)
    with pytest.raises(GeometryError, match="less than the edge's own level"):
        integer_hull_new(TRI, RefineConfig(1))  # TRI's 24 cells are swept


def test_an_edge_sweep_beyond_the_edge_must_find_new_points(monkeypatch):
    # A final edge's chord is the edge itself: reported one level further
    # out, its ends would be pushed again and the loop would never end.
    _faked_edge_sweeps(monkeypatch, lambda hit: SweepHit(hit.offset + 1, hit.lo, hit.hi, hit.line))
    with pytest.raises(GeometryError, match="again"):
        integer_hull_new(TRI, RefineConfig(1))


def test_a_sweep_must_stop_at_a_chord_with_a_lattice_point(monkeypatch):
    # Every level of this triangle's x range is the column x = 0, whose
    # chord runs from y = 1/4 to y = 3/4; a first-hit solve that stops
    # there anyway is refused, not reported as a hit.
    lattice_free = polyset_from_vertices([(Fraction(-1, 2), Fraction(1, 4)), (Fraction(1, 2), Fraction(1, 4)), (0, Fraction(3, 4))])
    assert lattice._run_sweep(lattice_free, 1, 0, False, 0) is None
    monkeypatch.setattr(lattice, "_first_hit", lambda *args: 0)
    for top in (False, True):
        with pytest.raises(GeometryError, match="sweep stopped at level 0, whose chord holds no lattice point"):
            lattice._run_sweep(lattice_free, 1, 0, top, 0)


def test_every_facet_sweep_must_find_a_point_once_facet_0s_has(monkeypatch):
    # A polygon has a lattice point iff any sweep finds one, so replace_facets
    # reads facet 0's sweep alone for emptiness and checks every later one.
    real = hull_new._run_sweep
    facets = []

    def sweep(P, a, c, top, hint, **kw):
        facets.append(top)
        return None if len(facets) == 2 else real(P, a, c, top, hint, **kw)

    monkeypatch.setattr(hull_new, "_run_sweep", sweep)
    with pytest.raises(GeometryError, match="but facet 0's did"):
        integer_hull_new(TRI, RefineConfig(1))
    assert facets == [False, False]


def test_residual_regions_refuse_collinear_hull_vertices():
    collinear = [IntPoint2(0, 0), IntPoint2(1, 0), IntPoint2(2, 0)]
    clockwise = [IntPoint2(0, 0), IntPoint2(0, 2), IntPoint2(1, 1)]
    for hull in (collinear, clockwise):
        with pytest.raises(GeometryError, match="collinear"):
            residual_regions(TRI, hull)


def test_normalized_facets_must_keep_the_hits(monkeypatch):
    monkeypatch.setattr(hull_baseline, "_intersect_halfplanes", lambda hps: None)
    with pytest.raises(GeometryError, match="stopping-chord"):
        integer_hull_baseline(TRI)


def test_clip_output_is_checked_by_the_polyset_constructor(monkeypatch):
    # Each crossing moved off its edge, to q reflected through p, makes
    # the cut of TRI at y <= 2 turn clockwise at (3, -1/5).  _crossing
    # reads and returns integer forms (X, Y, W).
    def reflected(p, lp, q, lq):
        (px, py, pw), (qx, qy, qw) = p, q
        return geom._reduced(2 * px * qw - qx * pw, 2 * py * qw - qy * pw, pw * qw)

    monkeypatch.setattr(geom, "_crossing", reflected)
    with pytest.raises(ValueError, match="strictly convex"):
        clip(TRI, HalfPlane(0, 1, 2))


def test_polyset_refuses_a_pentagram_without_building_halfplanes(monkeypatch):
    def no_halfplanes(p, q):
        raise AssertionError("half-planes are built on first use only")

    monkeypatch.setattr(geom, "_edge_halfplane", no_halfplanes)
    pentagon = [Point2(0, 0), Point2(2, -1), Point2(4, 0), Point2(3, 2), Point2(1, 2)]
    PolySet2(tuple(pentagon))
    with pytest.raises(ValueError, match="strictly convex"):
        PolySet2(tuple(pentagon[(2 * i) % 5] for i in range(5)))


# Every number the library takes follows one rule (geom._integer): an
# integer is an int that is not a bool, and a rational is an integer or a
# Fraction.  Each row is (entry point, the parameter or field that takes
# the number, whether it takes rationals or integers only, a call that
# passes the number v there).
RATIONAL, INTEGER = "rational", "integer"
EXACT_INPUTS = [
    (point, "x", RATIONAL, lambda v: point(v, 0)),
    (point, "y", RATIONAL, lambda v: point(0, v)),
    (HalfPlane, "a", INTEGER, lambda v: HalfPlane(v, 1, 0)),
    (HalfPlane, "c", INTEGER, lambda v: HalfPlane(1, v, 0)),
    (HalfPlane, "b", RATIONAL, lambda v: HalfPlane(1, 0, v)),
    (PolySet2, "vertices", RATIONAL, lambda v: PolySet2([(v, 0)])),
    (polyset_from_vertices, "vertices", RATIONAL, lambda v: polyset_from_vertices([(0, 0), (v, 0), (0, 1)])),
    (line_through, "p", RATIONAL, lambda v: line_through((v, 0), (0, 1))),
    (line_through, "q", RATIONAL, lambda v: line_through((0, 1), (v, 0))),
    (contains, "p", RATIONAL, lambda v: contains(TRI, (v, 0))),
    (format_rational, "value", RATIONAL, format_rational),
    (format_decimal, "value", RATIONAL, format_decimal),
    (format_decimal, "places", INTEGER, lambda v: format_decimal(Fraction(1, 8), v)),
    (random_polygon, "scale", RATIONAL, lambda v: random_polygon(5, v, 1)),
    (edgecase_halfplanes, "scale", RATIONAL, lambda v: edgecase_halfplanes(3, v, 1)),
    (convex_chain_polygon, "target_area", RATIONAL, lambda v: convex_chain_polygon(8, v)),
    (RefineConfig, "brute_force_cell_threshold", INTEGER, RefineConfig),
    (enumerate_integer_points, "budget", INTEGER, lambda v: enumerate_integer_points(SLIVER, budget=v)),
    (sweep_inward, "facet_index", INTEGER, lambda v: sweep_inward(PENTAGON, v)),
    (sweep_from_opposite, "facet_index", INTEGER, lambda v: sweep_from_opposite(PENTAGON, v)),
    (instance_to_polyset, "vertices", RATIONAL, lambda v: instance_to_polyset(Instance(None, vertices=((v, 0), (4, 0), (0, 3))))),
    (
        instance_to_polyset,
        "inequalities",
        RATIONAL,
        lambda v: instance_to_polyset(Instance(None, inequalities=((v, 1, 5), (-1, 0, 0), (0, -1, 0)))),
    ),
]
# Strings enter only through parse_rational; a bool is an int subclass.
NOT_EXACT = ("1", "1/2", "1e3", True, 0.5)


def check_exact_numbers():
    """Each entry point of EXACT_INPUTS takes an int and, where a rational
    is allowed, a Fraction, and refuses every other number with TypeError."""
    for entry, where, kind, call in EXACT_INPUTS:
        accepted, refused = (3, Fraction(7, 2)), NOT_EXACT
        if kind == INTEGER:
            accepted, refused = accepted[:1], refused + accepted[1:]
        for v in accepted:
            call(v)
        for v in refused:
            try:
                call(v)
            except TypeError:
                continue
            raise AssertionError(f"{entry.__name__} took {v!r} as its {where}")


def test_every_entry_point_takes_only_exact_numbers():
    check_exact_numbers()


POINT, SEGMENT = PolySet2([(1, 2)]), PolySet2([(0, 0), (2, 1)])
REFUSALS = [
    (lambda: random_polygon(5, 0, 1), "scale must be positive"),
    (lambda: random_polygon(5, -1, 1), "scale must be positive"),
    (lambda: edgecase_halfplanes(3, 0, 1), "scale must be positive"),
    (lambda: edgecase_halfplanes(3, Fraction(-1, 2), 1), "scale must be positive"),
    (lambda: edgecase_halfplanes(2, 1, 1), "a polygon needs at least 3 facets"),
    (lambda: convex_chain_polygon(8, 0), "target_area must be positive"),
    (lambda: convex_chain_polygon(8, Fraction(-1, 3)), "target_area must be positive"),
    (lambda: sweep_inward(POINT, 0), "facet sweeps require a polygon with at least 3 vertices"),
    (lambda: sweep_from_opposite(POINT, 0), "facet sweeps require a polygon with at least 3 vertices"),
    (lambda: sweep_inward(SEGMENT, 0), "facet sweeps require a polygon with at least 3 vertices"),
    (lambda: sweep_from_opposite(SEGMENT, 0), "facet sweeps require a polygon with at least 3 vertices"),
    # Swept along its own normal, a segment's constant-level edge would be
    # stepped over forever: the one sweep loop refuses it first.
    (lambda: lattice._run_sweep(SEGMENT, 1, -2, False, 0), "^sweeps require a polygon with at least 3 vertices"),
    (lambda: residual_regions(TRI, [IntPoint2(0, 0)]), "residual regions need a hull of at least 2 points"),
    (lambda: floor_sum(-1, 3, 1, 0), "n must be nonnegative"),
]


@pytest.mark.parametrize("call, message", REFUSALS)
def test_out_of_range_arguments_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("sweep", [sweep_inward, sweep_from_opposite])
def test_facet_indices_outside_the_facets_are_refused(sweep):
    # An index names one of P's n facets, in [0, n): no index counts from
    # the end, and one past the last is refused before any sweep.
    for index in (-1, -5, 5, 6):
        with pytest.raises(IndexError, match=f"facet index {index} is out of range for a polygon of 5 facets"):
            sweep(PENTAGON, index)
    assert [sweep(PENTAGON, index) is not None for index in range(5)] == [True] * 5


def test_every_rational_parameter_is_in_the_exactness_table():
    # A new entry point that takes a Rational cannot skip the rule: the
    # table must name each such parameter of the package's public callables
    # and of its generators.
    callables = [getattr(inthull, name) for name in inthull.__all__]
    callables += [value for name, value in vars(generate).items() if not name.startswith("_")]
    annotated = set()
    for entry in callables:
        if not (inspect.isfunction(entry) or inspect.isclass(entry)):
            continue
        try:
            parameters = inspect.signature(entry).parameters.values()
        except ValueError:  # a class without a Python signature
            continue
        annotated |= {(entry, p.name) for p in parameters if "Rational" in str(p.annotation)}
    assert (point, "x") in annotated and (convex_chain_polygon, "target_area") in annotated
    assert annotated - {(entry, where) for entry, where, _, _ in EXACT_INPUTS} == set()
