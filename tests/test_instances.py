"""Instance JSON schema: exact rationals in, canonical bytes out."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from inthull import (
    DegenerateSet,
    EmptySet,
    HalfPlane,
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
    polyset_from_halfplanes,
    save_instance,
)

from helpers import empty_85_row_system, random_halfplane_system, random_polyset

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


def check_rationals_read_as_fraction_reads_them():
    """parse_rational reads every "p" and "p/q" string as Fraction does,
    on a fixed list and on seeded strings, signs and padding zeros."""
    rng = random.Random(0)
    texts = ["3/4", "-1/5", "+6/4", "10/1", "7", "-0", "+0/9", "007/12"]
    for _ in range(200):
        sign = rng.choice(["", "+", "-"])
        num = str(rng.randrange(10 ** rng.randint(1, 30))).zfill(rng.randint(1, 3))
        den = str(rng.randrange(1, 10 ** rng.randint(1, 30)))
        texts += [sign + num, f"{sign}{num}/{den}"]
    for text in texts:
        assert parse_rational(text) == Fraction(text), text


def test_rationals_read_as_fraction_reads_them():
    check_rationals_read_as_fraction_reads_them()


def test_an_over_long_numeral_is_an_invalid_instance():
    # int() refuses a numeral over its digit limit (4300 by default) with a
    # bare ValueError; the library's refusal is typed and names the count.
    for text in ("1" * 5000, "-" + "7" * 5000, "1/" + "3" * 5000):
        with pytest.raises(InvalidInstance, match="5000 digits"):
            parse_rational(text)
    for number in (f'"{"9" * 5000}"', "9" * 5000):  # a string and a JSON integer
        with pytest.raises(InvalidInstance, match="5000 digits"):
            parse_instance(f'{{"vertices": [[{number}, 0]]}}')


def test_deeply_nested_json_is_an_invalid_instance():
    # The JSON decoder recurses per nesting level (Python 3.13 decodes 5,000
    # levels but not 20,000); too deep a file is refused as invalid JSON,
    # not with a bare RecursionError.
    with pytest.raises(InvalidInstance, match="^not valid JSON: "):
        parse_instance('{"vertices": ' + "[" * 100_000 + "]" * 100_000 + "}")


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


def check_the_payload_rule():
    """A file with both payloads, and one with neither, is refused by the
    one payload rule, Instance's."""
    for text in ('{"vertices": [[0, 0], [1, 0]], "inequalities": [[1, 0, 1]]}', '{"name": "x"}'):
        with pytest.raises(InvalidInstance, match="exactly one of"):
            parse_instance(text)


def test_an_instance_has_exactly_one_payload():
    check_the_payload_rule()


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


def test_inequality_rows_scaled_by_positive_rationals_give_the_same_set():
    # Each row is scaled to integers by the lcm of its own denominators, and
    # the intersection takes rows that are not primitive: a row times a
    # positive rational is the same half-plane.
    rng = random.Random(38)
    for _ in range(60):
        P = random_polyset(rng, max_num=30, max_den=6)
        rows = [(Fraction(h.a), Fraction(h.c), h.b) for h in P.halfplanes]
        factors = [Fraction(rng.randint(1, 99), rng.randint(1, 99)) for _ in rows]
        scaled = tuple(tuple(k * v for v in row) for row, k in zip(rows, factors))
        assert instance_to_polyset(Instance(None, inequalities=tuple(rows))) == P
        assert instance_to_polyset(Instance(None, inequalities=scaled)) == P


def _near_1e10(rng: random.Random) -> Fraction:
    """A positive rational with a denominator near 10**10."""
    return Fraction(rng.randint(1, 10**10), rng.randint(9 * 10**9, 10**10))


def _loaded(rows) -> object:
    """What instance_to_polyset makes of the inequality rows, named as
    polyset_from_halfplanes would name it: a polygon, or the kind of set
    it refuses."""
    try:
        P = instance_to_polyset(Instance(None, inequalities=tuple(rows)))
    except UnboundedSet as exc:
        return "unbounded", str(exc)
    return "empty" if P is None else "degenerate" if P.is_degenerate else P


def _intersected(hps) -> object:
    """polyset_from_halfplanes(hps), or the kind of set it refuses."""
    try:
        return polyset_from_halfplanes(hps)
    except EmptySet:
        return "empty"
    except DegenerateSet:
        return "degenerate"
    except UnboundedSet as exc:
        return "unbounded", str(exc)


def check_instance_rows_match_their_halfplanes() -> None:
    """On 120 seeded half-plane systems, half of them with offsets moved
    by rationals with denominators near 10**10, instance_to_polyset on each
    row (a, c, b) times a positive rational with a denominator near 10**10
    gives what polyset_from_halfplanes gives on the half-planes; a true
    zero-normal row (0, 0, b), b >= 0, changes nothing, and a false one, b
    < 0, empties the set, even among rows that are otherwise unbounded."""
    rng = random.Random(43)
    for _ in range(120):
        hps = random_halfplane_system(rng, rng.randint(3, 12))
        if rng.random() < 0.5:
            hps = [HalfPlane(h.a, h.c, h.b + rng.choice((-1, 1)) * _near_1e10(rng)) for h in hps]
        rows = [tuple(k * v for v in (h.a, h.c, h.b)) for h in hps for k in [_near_1e10(rng)]]
        want = _intersected(hps)
        assert _loaded(rows) == want, hps
        for zero in ((0, 0, 0), (0, 0, _near_1e10(rng))):
            k = rng.randint(0, len(rows))
            assert _loaded(rows[:k] + [zero] + rows[k:]) == want, (hps, zero)
        false = (0, 0, -_near_1e10(rng))
        k = rng.randint(0, len(rows))
        assert _loaded(rows[:k] + [false] + rows[k:]) == "empty", hps
        # The rows with a > 0 leave x unbounded below.
        open_rows = [row for row in rows if row[0] > 0]
        if open_rows:
            recession = ("unbounded", "the intersection has a recession direction")
            assert _loaded(open_rows) == _intersected([h for h in hps if h.a > 0]) == recession
            assert _loaded(open_rows + [false]) == "empty", hps
    no_constraints = ("unbounded", "no constraints: the whole plane is unbounded")
    assert _loaded([(0, 0, 0), (0, 0, Fraction(1, 10**10 + 1)), (0, 0, 7)]) == no_constraints


def test_instance_rows_match_their_halfplanes():
    check_instance_rows_match_their_halfplanes()


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
