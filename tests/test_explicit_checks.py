"""Invariants of the hull engines are explicit checks that `python -O` keeps."""

from __future__ import annotations

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import inthull.geom as geom
import inthull.hull_baseline as hull_baseline
import inthull.hull_new as hull_new
from inthull import (
    GeometryError,
    HalfPlane,
    IntPoint2,
    Point2,
    PolySet2,
    RefineConfig,
    clip,
    integer_hull_baseline,
    integer_hull_new,
    polyset_from_vertices,
)
from inthull.hull_new import residual_regions

SRC = Path(hull_new.__file__).parent
TRI = polyset_from_vertices([(-2, Fraction(-1, 5)), (3, Fraction(-1, 5)), (Fraction(17, 10), Fraction(39, 10))])


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_assert_statements(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{module} has assert statements at lines {lines}"


def test_residual_regions_must_shrink(monkeypatch):
    monkeypatch.setattr(hull_new, "area", lambda P: 1)
    with pytest.raises(GeometryError, match="no smaller"):
        integer_hull_new(TRI, RefineConfig(1, 3))  # TRI's 24 cells are swept


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
