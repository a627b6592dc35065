"""Faults the tests must catch, injected in-process.

Each mutant rebuilds one function of the package from its own source with
one edit, binds it in the function's own module with monkeypatch, and runs
the check its entry names, on a seeded subset of that check's inputs that
catches it: the check passes before and must fail after, with the error
named.  A mutant whose edit no longer applies fails here, so a change that
rewrites the targeted code must retarget the mutant or say why it is gone.
"""

from __future__ import annotations

import __future__
import inspect
import random
import sys
import types

import pytest

import inthull.geom as geom
import inthull.hull_new as hull_new
import inthull.oracle as oracle
from inthull import GeometryError
from helpers import load_perfbench, random_polyset
from test_geom import check_construction_paths, check_full_column_hulls, check_rows_through_a_vertex
from test_oracle import check_enumerate_matches_full_box_scan
from test_hull_new import TWO_POINT_SEEDS, check_facet_cover, needle, two_point_start


def mutant(function, old: str, new: str):
    """`function` rebuilt from its source with the one occurrence of `old`
    replaced by `new`, reading its module's live globals."""
    module = sys.modules[function.__module__]
    source = inspect.getsource(function)
    assert source.count(old) == 1, (function.__name__, old)
    scratch = dict(vars(module))
    code = compile(source.replace(old, new), module.__file__, "exec", __future__.annotations.compiler_flag, True)
    exec(code, scratch)
    built = scratch[function.__name__]
    rebuilt = types.FunctionType(built.__code__, vars(module), built.__name__, built.__defaults__, built.__closure__)
    rebuilt.__kwdefaults__ = built.__kwdefaults__
    return rebuilt


def needles():
    return [needle(below) for below in (2, 5, 10, 21)]


def small_random():
    return [random_polyset(random.Random(seed), max_num=30, max_den=8) for seed in range(10)]


def two_point_starts():
    return [two_point_start(seed) for seed in TWO_POINT_SEEDS]


def facet_cover(inputs):
    """The check that test_hull_new's facet-cover check passes on every
    polygon `inputs` builds."""
    def check():
        certify = load_perfbench("certify").certify
        for P in inputs():
            check_facet_cover(P, certify)

    return check


ON_NEEDLES, ON_SMALL_RANDOM, ON_TWO_POINT_STARTS = map(facet_cover, (needles, small_random, two_point_starts))
FACET_COVER = (ON_NEEDLES, ON_SMALL_RANDOM, ON_TWO_POINT_STARTS)


def full_column_hulls():
    """test_geom's full-column hull check on its first 40 point sets."""
    check_full_column_hulls(40)


def box_scans():
    """test_oracle's box-scan check on ten seeded polygons of its inputs."""
    for seed in range(10):
        check_enumerate_matches_full_box_scan(random_polyset(random.Random(seed), max_num=25, max_den=6))


# name: (function, edit, check, error).
MUTANTS = {
    # A range [0, n] turns by nothing, so only facet 0 is swept.
    "the half-turn test as >= 0": (hull_new.replace_facets, ("ak > 0:", "ak >= 0:"), ON_NEEDLES, AssertionError),
    "the half-turn test dropped": (hull_new.replace_facets, ("if ai * ck - ci * ak > 0:", "if True:"), ON_NEEDLES, AssertionError),
    # The skip test that kept only k - i < n: facets 0 and n // 2 alone,
    # which on a needle both stop at the apex.
    "every range but the whole one settled": (hull_new.replace_facets, ("ai * ck - ci * ak > 0", "k - i < n"), ON_NEEDLES, AssertionError),
    # The split edges then point back across the chord, and their sweeps
    # find known points.
    "p and q not ordered along w - u": (hull_new._edge_points, ("p, q = q, p", "pass"), ON_SMALL_RANDOM, GeometryError),
    # Edges one level short of final are closed, and the vertices on the
    # chord one level beyond them are lost.
    "an edge closed at m <= b + 1": (
        hull_new._edge_points,
        ("if hit.offset == b:", "if hit.offset <= b + 1:"),
        ON_SMALL_RANDOM,
        AssertionError,
    ),
    # Hull vertices lie on both sides of the two hits' segment.
    "a two-point start hull swept one way only": (
        hull_new._edge_points,
        ("for u, w in cycle.items()]", "for u, w in cycle.items() if len(cycle) > 2 or u < w]"),
        ON_TWO_POINT_STARTS,
        AssertionError,
    ),
    # An edge whose functional is no nonnegative combination of its ends'
    # certificate lines is closed, though the lines bound nothing past it.
    "the certificate sign test dropped": (
        hull_new._closed_by,
        ("lam >= 0 and mu >= 0 and ", ""),
        ON_TWO_POINT_STARTS,
        AssertionError,
    ),
    # A facet hit's line then bounds the min side of P, not the max side.
    "a facet hit's certificate left un-negated": (
        hull_new._edge_points,
        ("(-a, -c, -hit.offset)", "(a, c, hit.offset)"),
        ON_TWO_POINT_STARTS,
        AssertionError,
    ),
    # The certificate test as `<=` is no mutant: a bound of b + 1 also
    # leaves the edge final (see hull_new._closed_by).
    # p has no successor, so the walk round the cycle stops at it.
    "a split without the p -> q link": (
        hull_new._edge_points,
        ("cycle[u], cycle[p], cycle[q] = p, q, w", "cycle[u], cycle[q] = p, w"),
        ON_SMALL_RANDOM,
        KeyError,
    ),
    # The canonical form, at the one constructor every set comes from.
    "a segment's ends left in the order given": (
        geom._polyset_from_forms,
        ("if _direction(forms[0], forms[-1]) < (0, 0):", "if False:"),
        check_construction_paths,
        AssertionError,
    ),
    "a cycle not rotated to its lex-min vertex": (
        geom._polyset_from_forms,
        ("forms = tuple(forms[k:]) + tuple(forms[:k])", "forms = tuple(forms)"),
        check_construction_paths,
        AssertionError,
    ),
    # A crossing whose form has W < 0 turns the directions into and out of
    # it around, and the cycle check refuses the clip.
    "_reduced without its sign fix of W": (geom._reduced, ("if W < 0:", "if False:"), check_construction_paths, ValueError),
    "_reduced without its gcd": (geom._reduced, ("g = gcd(X, Y, W)", "g = 1"), check_construction_paths, AssertionError),
    # A vertex met by more than two rows repeats in the deque's cycle; its
    # zero turn with itself then sends the system to box clipping.
    "deque repeats tested for a zero turn": (
        geom._intersect_sorted_deque,
        ("forms = [p for i, p in enumerate(points) if p != points[i - 1]]", "forms = points"),
        check_rows_through_a_vertex,
        AssertionError,
    ),
    # The hull chain's column cut and turn test, and the oracle's columns.
    "the column cut never lowers a column's low end": (geom._hull_chain, ("ends[0] = y", "pass"), full_column_hulls, AssertionError),
    "a hull chain that keeps collinear points": (
        geom._hull_chain,
        ("_turn(chain[-2], chain[-1], f) <= 0", "_turn(chain[-2], chain[-1], f) < 0"),
        full_column_hulls,
        AssertionError,
    ),
    "a column's range cut one short": (oracle.enumerate_integer_points, ("y_hi + 1", "y_hi"), box_scans, AssertionError),
}


def assert_caught(monkeypatch, name):
    function, (old, new), check, error = MUTANTS[name]
    check()
    monkeypatch.setattr(sys.modules[function.__module__], function.__name__, mutant(function, old, new))
    with pytest.raises(error):
        check()


@pytest.mark.parametrize("name", sorted(name for name, entry in MUTANTS.items() if entry[2] in FACET_COVER))
def test_the_facet_cover_check_catches(monkeypatch, name):
    assert_caught(monkeypatch, name)


@pytest.mark.parametrize("name", sorted(name for name, entry in MUTANTS.items() if entry[2] not in FACET_COVER))
def test_the_named_check_catches(monkeypatch, name):
    assert_caught(monkeypatch, name)
