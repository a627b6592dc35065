"""Invariants of the hull engines are explicit checks that `python -O` keeps."""

from __future__ import annotations

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import inthull.hull_baseline as hull_baseline
import inthull.hull_new as hull_new
from inthull import (
    GeometryError,
    IntPoint2,
    integer_hull_baseline,
    integer_hull_new,
    polyset_from_vertices,
    residual_regions,
)

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
        integer_hull_new(TRI)


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
