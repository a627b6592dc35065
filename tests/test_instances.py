"""Instance JSON schema: exact rationals in, canonical bytes out."""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from inthull import (
    Instance,
    InvalidInstance,
    UnboundedSet,
    dump_instance,
    format_decimal,
    format_rational,
    instance_to_polyset,
    load_instance,
    parse_instance,
    parse_rational,
    save_instance,
)

from helpers import empty_85_row_system

FIXTURES = sorted((Path(__file__).parent / "fixtures").glob("*.json"))


def test_fixture_files_exist():
    assert [f.name for f in FIXTURES] == [
        "narrow_band.json",
        "segment.json",
        "triangle_shallow.json",
        "triangle_slanted.json",
        "unit_square.json",
    ]


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_parse_emit_round_trip_is_canonical(path):
    text = path.read_text(encoding="utf-8")
    inst = parse_instance(text)
    assert dump_instance(inst) == text
    assert dump_instance(parse_instance(dump_instance(inst))) == text


def test_emit_normalizes_messy_input():
    messy = '{"vertices": [["0", "0"], ["2/4", "0"], ["1/2", "6/2"]], "name": "m"}'
    inst = parse_instance(messy)
    assert inst.vertices == ((Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(0)), (Fraction(1, 2), Fraction(3)))
    out = dump_instance(inst)
    assert json.loads(out)["vertices"] == [["0", "0"], ["1/2", "0"], ["1/2", "3"]]
    assert list(json.loads(out)) == ["name", "vertices"]  # stable key order


def test_rational_parsing_and_formatting():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-1/5") == Fraction(-1, 5)
    assert parse_rational(7) == 7
    assert format_rational(Fraction(10, 4)) == "5/2"
    assert format_rational(Fraction(-8, 2)) == "-4"
    for bad in ("0.5", "1e3", "3/0", "/2", "1/", "3\n", "1/2\n", "\u0663", "1/\u0663", True, None, [1]):
        with pytest.raises(InvalidInstance):
            parse_rational(bad)


def test_floats_are_rejected_everywhere():
    with pytest.raises(InvalidInstance):
        parse_instance('{"vertices": [[0.5, 0], [1, 0], [1, 1]]}')
    with pytest.raises(InvalidInstance):
        parse_instance('{"inequalities": [[1, 0, 1e2]]}')
    with pytest.raises(InvalidInstance):
        parse_instance('{"vertices": [[NaN, 0], [1, 0], [1, 1]]}')


def test_schema_validation():
    with pytest.raises(InvalidInstance):
        parse_instance("[1, 2]")
    with pytest.raises(InvalidInstance):
        parse_instance('{"vertices": [], "inequalities": []}')
    with pytest.raises(InvalidInstance):
        parse_instance('{"name": "x"}')
    with pytest.raises(InvalidInstance):
        parse_instance('{"vertices": [[1, 2]], "color": "red"}')
    with pytest.raises(InvalidInstance):
        parse_instance('{"vertices": [[1, 2, 3]]}')
    with pytest.raises(InvalidInstance):
        parse_instance('{"inequalities": [[1, 2]]}')
    with pytest.raises(InvalidInstance):
        parse_instance('{"name": 5, "vertices": [[1, 2]]}')
    with pytest.raises(InvalidInstance):
        parse_instance("{bad json")


def test_vertex_and_inequality_forms_describe_the_same_square():
    v = parse_instance('{"vertices": [["0","0"],["1","0"],["1","1"],["0","1"]]}')
    i = parse_instance(
        '{"inequalities": [["-1","0","0"],["1","0","1"],["0","-1","0"],["0","1","1"]]}'
    )
    assert instance_to_polyset(v) == instance_to_polyset(i)


def test_inequalities_special_rows():
    # trivially true row is dropped, trivially false row empties the set
    ok = parse_instance('{"inequalities": [["0","0","5"],["-1","0","0"],["1","0","1"],["0","-1","0"],["0","1","1"]]}')
    P = instance_to_polyset(ok)
    assert P is not None and len(P.halfplanes) == 4
    empty = parse_instance('{"inequalities": [["0","0","-1"],["1","0","1"]]}')
    assert instance_to_polyset(empty) is None
    wide_empty = Instance(
        None,
        inequalities=tuple(
            (Fraction(a), Fraction(c), Fraction(b)) for a, c, b in empty_85_row_system()
        ),
    )
    assert instance_to_polyset(wide_empty) is None
    open_set = parse_instance('{"inequalities": [["1","0","1"],["0","1","1"]]}')
    with pytest.raises(UnboundedSet):
        instance_to_polyset(open_set)


def test_rational_inequality_rows_are_scaled_exactly():
    inst = parse_instance('{"inequalities": [["1/2","0","1/2"],["-1","0","0"],["0","1/3","1/3"],["0","-1","0"]]}')
    P = instance_to_polyset(inst)
    assert P is not None
    assert {(h.a, h.c, h.b) for h in P.halfplanes} == {(1, 0, 1), (-1, 0, 0), (0, 1, 1), (0, -1, 0)}


def test_save_and_load(tmp_path):
    inst = Instance(name="w", vertices=None, inequalities=((Fraction(1), Fraction(0), Fraction(1, 2)),))
    p = tmp_path / "w.json"
    save_instance(inst, str(p))
    assert load_instance(str(p)) == inst
    assert p.read_text(encoding="utf-8").endswith("\n") is (dump_instance(inst).endswith("\n"))


def test_format_decimal_exact_rounding():
    assert format_decimal(Fraction(1, 3), 4) == "0.3333"
    assert format_decimal(Fraction(2, 3), 4) == "0.6667"
    assert format_decimal(Fraction(-1, 2), 0) == "-1"  # half away from zero
    assert format_decimal(Fraction(5, 2), 0) == "3"
    assert format_decimal(7, 2) == "7.00"
    with pytest.raises(ValueError):
        format_decimal(Fraction(1), -1)
