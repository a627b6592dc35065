"""Faults the tests must catch, injected in-process.

Each mutant rebuilds one function of the package from its own source with
one edit, binds it in the function's module with monkeypatch, and runs the
check that should catch it on a seeded subset of that check's inputs that
does: the check must fail, with the error named.  A mutant whose edit no
longer applies fails here, so a change that rewrites the targeted code must
retarget the mutant or say why it is gone.
"""

from __future__ import annotations

import __future__
import inspect
import random
import sys
import types

import pytest

import inthull.hull_new as hull_new
from inthull import GeometryError
from helpers import load_perfbench, random_polyset
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
    return types.FunctionType(built.__code__, vars(module), built.__name__, built.__defaults__, built.__closure__)


def needles():
    return [needle(below) for below in (2, 5, 10, 21)]


def small_random():
    return [random_polyset(random.Random(seed), max_num=30, max_den=8) for seed in range(10)]


def two_point_starts():
    return [two_point_start(seed) for seed in TWO_POINT_SEEDS]


# name: (function, edit, inputs of test_hull_new's cover check, error).
MUTANTS = {
    # A range [0, n] turns by nothing, so only facet 0 is swept.
    "the half-turn test as >= 0": (hull_new.replace_facets, ("ak > 0:", "ak >= 0:"), needles, AssertionError),
    "the half-turn test dropped": (hull_new.replace_facets, ("if ai * ck - ci * ak > 0:", "if True:"), needles, AssertionError),
    # The skip test that kept only k - i < n: facets 0 and n // 2 alone,
    # which on a needle both stop at the apex.
    "every range but the whole one settled": (hull_new.replace_facets, ("ai * ck - ci * ak > 0", "k - i < n"), needles, AssertionError),
    # The split edges then point back across the chord, and their sweeps
    # find known points.
    "p and q not ordered along w - u": (hull_new._edge_points, ("p, q = q, p", "pass"), small_random, GeometryError),
    # Edges one level short of final are closed, and the vertices on the
    # chord one level beyond them are lost.
    "an edge closed at m <= b + 1": (
        hull_new._edge_points,
        ("if hit.offset == b:", "if hit.offset <= b + 1:"),
        small_random,
        AssertionError,
    ),
    # Hull vertices lie on both sides of the two hits' segment.
    "a two-point start hull swept one way only": (
        hull_new._edge_points,
        ("for u, w in cycle.items()]", "for u, w in cycle.items() if len(cycle) > 2 or u < w]"),
        two_point_starts,
        AssertionError,
    ),
    # An edge whose functional is no nonnegative combination of its ends'
    # certificate lines is closed, though the lines bound nothing past it.
    "the certificate sign test dropped": (
        hull_new._closed_by,
        ("lam >= 0 and mu >= 0 and ", ""),
        two_point_starts,
        AssertionError,
    ),
    # A facet hit's line then bounds the min side of P, not the max side.
    "a facet hit's certificate left un-negated": (
        hull_new._edge_points,
        ("(-a, -c, -hit.offset)", "(a, c, hit.offset)"),
        two_point_starts,
        AssertionError,
    ),
    # The certificate test as `<=` is no mutant: a bound of b + 1 also
    # leaves the edge final (see hull_new._closed_by).
    # p has no successor, so the walk round the cycle stops at it.
    "a split without the p -> q link": (
        hull_new._edge_points,
        ("cycle[u], cycle[p], cycle[q] = p, q, w", "cycle[u], cycle[q] = p, w"),
        small_random,
        KeyError,
    ),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_the_facet_cover_check_catches(monkeypatch, name):
    function, (old, new), inputs, error = MUTANTS[name]
    certify = load_perfbench("certify").certify
    polys = inputs()
    for P in polys:
        check_facet_cover(P, certify)
    monkeypatch.setattr(hull_new, function.__name__, mutant(function, old, new))
    with pytest.raises(error):
        for P in polys:
            check_facet_cover(P, certify)
