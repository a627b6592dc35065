"""Deterministic instance generators."""

from __future__ import annotations

import hashlib
from fractions import Fraction
from math import gcd

import pytest

from inthull import (
    area,
    dump_instance,
    instance_to_polyset,
    integer_hull_baseline,
    integer_hull_new,
    integer_hull_oracle,
    parse_instance,
    sweep_inward,
)
from inthull.generate import convex_chain_polygon, edgecase_halfplanes, random_polygon
from inthull.geom import _form, _polyset_from_forms, point


def test_generators_are_deterministic():
    assert random_polygon(8, 20, 3) == random_polygon(8, 20, 3)
    assert edgecase_halfplanes(5, 40, 9) == edgecase_halfplanes(5, 40, 9)
    assert random_polygon(8, 20, 3) != random_polygon(8, 20, 4)
    assert edgecase_halfplanes(5, 40, 9) != edgecase_halfplanes(5, 40, 10)


def test_random_polygon_shape():
    for seed in range(8):
        inst = random_polygon(10, 25, seed)
        assert inst.vertices is not None and 3 <= len(inst.vertices) <= 10
        P = instance_to_polyset(inst)
        assert P is not None and not P.is_degenerate
        bound = Fraction(9, 8) * 25 + Fraction(1, 48)  # radial jitter + snap slack
        for v in P.vertices:
            assert abs(v.x) <= bound and abs(v.y) <= bound
        assert integer_hull_new(P) == integer_hull_oracle(P)


def test_random_polygon_respects_rational_scale():
    inst = random_polygon(6, Fraction(7, 2), 1)
    P = instance_to_polyset(inst)
    bound = Fraction(9, 8) * Fraction(7, 2) + Fraction(1, 48)
    for v in P.vertices:
        assert abs(v.x) <= bound and abs(v.y) <= bound


def test_edgecase_facet_lines_carry_lattice_points():
    # n=3, scale=5, seed=7: every tightened facet line holds >= 2 lattice
    # points of the set, the configuration that makes direct corner
    # enumeration expensive
    inst = edgecase_halfplanes(3, 5, 7)
    P = instance_to_polyset(inst)
    assert P is not None and len(P.halfplanes) == 3
    for i in range(len(P.halfplanes)):
        hit = sweep_inward(P, i)
        assert hit is not None
        assert hit.lo != hit.hi  # at least two lattice points on the stop line
    for a, c, b in inst.inequalities:
        assert a.denominator == 1 and c.denominator == 1
        assert gcd(int(a), int(c)) == 1
        assert b.denominator > 1  # integer offset nudged by a non-integer rational


# sha256 of dump_instance(edgecase_halfplanes(n, scale, seed)).
EDGECASE_SHA256 = {
    (3, 10, 1): "ee1d8bda7d6c2a034d14fcb9d889961982a886a5d96b3069828ff74f64ea9709",
    (4, 3, 0): "62702e8251ff4501fd6ea88af0adeb1bae204e801bf106997e1136472dd23b21",
    (5, 150, 7): "47deec6747617e9b9a8826ad15c5a361d49755d3d4130a64c0509e7933f8149d",
    (8, 10**6, 39): "eb81d8be54dbc1cce7e0115306ab81569d02e25aedc1bbd48cc1d6bb48f52d01",
    (3, Fraction(31, 2), 2): "13597743459793192baf338d9457b8f2596f85a70546a58b62614f997d65f938",
}


def test_edgecase_bytes_are_pinned():
    for args, digest in EDGECASE_SHA256.items():
        assert hashlib.sha256(dump_instance(edgecase_halfplanes(*args)).encode()).hexdigest() == digest, args


# sha256 of dump_instance(random_polygon(n, scale, seed)), which hulls its
# snapped points through the hull chain.  At scale 10**-12 every snap grid
# collapses the sample, so the raw unsnapped points are hulled.
RANDOM_SHA256 = {
    (3, 10, 0): "cd418f1e18b95215e7072ecd6eb9e02e3e9d32cbbf8dade6c7c38537f32d041c",
    (8, 20, 3): "d3ce37c2112ee37c785d7f35d011db74392988ad14105dd71284134b6df58f80",
    (12, 100, 5): "c4f7a6d355d0b0954db6a7a0559b770ff69a53511b87330f18939f575894af27",
    (6, Fraction(7, 2), 1): "c85be990671d7a881ea1bfa0b8380dfdf0f09e9b4418e3531f5a6850616e4117",
    (20, Fraction(7, 2), 4): "66dcded188d9cbdeb94a7fef6194551d79c2c102fb6d28cd274d99b187e4ee93",
    (50, 10**12, 1): "153dca771f306ced8b0a0ace711fc71cc50d108c1f02084643be1291ed2c6edc",
    (40, 10**30, 2): "f87f8cbd10df12d9993ef0d1a2ee5dd4b6f7088bca036d7c4faad3646fb8b1c8",
    (5, Fraction(1, 10**12), 0): "9e76a346ecf401d1d72798baa83e756fc4a99dce380c99953682ff4ac4bd7d71",
}


def test_random_polygon_bytes_are_pinned():
    for args, digest in RANDOM_SHA256.items():
        assert hashlib.sha256(dump_instance(random_polygon(*args)).encode()).hexdigest() == digest, args


def test_edgecase_redraws_a_pair_with_no_coprime_twist():
    # At scale 30, seeds 15 and 21 both draw (a, b) = (22, 15) first, and
    # none of its five twists is coprime; the generator draws a new pair.
    for seed in (15, 21):
        for n in (3, 4, 5, 8):
            inst = edgecase_halfplanes(n, 30, seed)
            (a, b, _), (a2, b2, _) = inst.inequalities[:2]
            assert gcd(int(a), int(b)) == gcd(int(a2), int(b2)) == 1, (n, seed)
            assert (a, b) != (22, -15), (n, seed)
            P = instance_to_polyset(inst)
            assert P is not None and not P.is_degenerate, (n, seed)
            assert integer_hull_new(P) == integer_hull_baseline(P), (n, seed)


def test_edgecase_supports_more_facets():
    for n, seed in ((4, 0), (6, 5), (8, 11)):
        inst = edgecase_halfplanes(n, 30, seed)
        assert len(inst.inequalities) == n
        P = instance_to_polyset(inst)
        assert P is not None and not P.is_degenerate
        assert integer_hull_new(P) == integer_hull_baseline(P)


def test_edgecase_engines_agree_on_sample():
    for seed in (0, 1, 2):
        P = instance_to_polyset(edgecase_halfplanes(3, 60 + seed, seed))
        h = integer_hull_new(P)
        assert h == integer_hull_baseline(P)
        assert h == integer_hull_oracle(P)


def test_convex_chain_polygon_hits_vertex_count():
    inst = convex_chain_polygon(120)
    P = instance_to_polyset(inst)
    assert P is not None and len(P.vertices) == 120
    assert area(P) > 0


def test_convex_chain_polygon_area_targeting_at_scale():
    # the rational rescaling can land near the target once the raw chain is
    # much larger than it; 1000 vertices is the size the benchmarks use
    P = instance_to_polyset(convex_chain_polygon(1000))
    assert len(P.vertices) == 1000
    assert Fraction(65000) <= area(P) <= Fraction(75000)


def test_convex_chain_polygon_rejects_tiny_counts():
    with pytest.raises(ValueError):
        convex_chain_polygon(2)


def test_generated_vertex_lists_load_as_listed():
    # A vertex list that is already a strictly convex CCW cycle is its own
    # hull, and loading it hulls nothing: the benchmark's setup_s counts on
    # the generators writing such lists, so one that stops doing so fails
    # here rather than only costing time.
    insts = [
        random_polygon(n, scale, seed)
        for n, scale in ((3, 5), (7, Fraction(29, 2)), (12, 20), (12, 10**9), (50, 10**12))
        for seed in range(6)
    ]
    insts += [convex_chain_polygon(n) for n in (4, 20, 250)]
    for inst in insts:
        loaded = parse_instance(dump_instance(inst))
        try:
            listed = _polyset_from_forms([_form(point(x, y)) for x, y in loaded.vertices])
        except ValueError:
            pytest.fail(f"{inst.name} is not a strictly convex CCW cycle")
        assert listed == instance_to_polyset(loaded), inst.name
