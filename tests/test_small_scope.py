"""Bounded-exhaustive small-scope checks: `new` (always sweeping), `baseline`
and `oracle` agree on every set of two small families.

Most faults show on some small input (D. Jackson, *Software Abstractions*,
MIT Press 2006), and checking every input up to a bound leaves none of
them to chance (Boyapati, Khurshid and Marinov, "Korat: automated testing
based on Java predicates", ISSTA 2002).  Each family's case count and its
split are pinned, so a change cannot shrink a family unseen.

`new` runs under ``RefineConfig(1)``: every set here has at most 256
bounding-box cells, so at the default threshold it would enumerate them
all and run no sweep.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd

from inthull import (
    Instance,
    RefineConfig,
    UnboundedSet,
    instance_to_polyset,
    integer_hull_baseline,
    integer_hull_new,
    integer_hull_oracle,
    polyset_from_vertices,
)

SWEEP_ALWAYS = RefineConfig(1)


def agreed_hull(P):
    """The one hull the three engines give for P."""
    hull = integer_hull_oracle(P)
    assert integer_hull_new(P, SWEEP_ALWAYS) == hull == integer_hull_baseline(P), P
    return hull


def kind(hull) -> str:
    return ("lattice-free", "point", "segment")[len(hull)] if len(hull) < 3 else "polygon"


def test_every_triangle_on_a_third_grid():
    # Vertices on (1/3)Z^2 in [0, 2]^2: 49 grid points, 18,424 triples, of
    # which 824 are collinear.
    grid = {(x, y): (Fraction(x, 3), Fraction(y, 3)) for x in range(7) for y in range(7)}
    hulls = Counter()
    for p, q, r in combinations(grid, 3):
        if (q[0] - p[0]) * (r[1] - p[1]) != (q[1] - p[1]) * (r[0] - p[0]):
            hulls[kind(agreed_hull(polyset_from_vertices([grid[p], grid[q], grid[r]])))] += 1
    assert sum(hulls.values()) == 17600
    assert hulls == {"lattice-free": 5740, "point": 7904, "segment": 3352, "polygon": 604}


def test_every_three_row_system_of_small_rows():
    # The 16 primitive normals (a, c) with |a|, |c| <= 2 and offsets b in
    # {-1, 0, 1}: 48 rows a*x + c*y <= b, C(48, 3) = 17,296 systems.
    normals = [(a, c) for a in range(-2, 3) for c in range(-2, 3) if gcd(a, c) == 1]
    rows = [(a, c, b) for a, c in normals for b in (-1, 0, 1)]
    assert len(normals) == 16
    sets, hulls = Counter(), Counter()
    for system in combinations(rows, 3):
        try:
            P = instance_to_polyset(Instance(None, inequalities=system))
        except UnboundedSet:
            sets["unbounded"] += 1
            continue
        sets["empty" if P is None else "degenerate" if P.is_degenerate else "polygon"] += 1
        hulls[kind(agreed_hull(P))] += 1
    assert sum(sets.values()) == 17296
    assert sets == {"empty": 2400, "degenerate": 400, "polygon": 1312, "unbounded": 13184}
    assert hulls == {"lattice-free": 2464, "point": 608, "segment": 388, "polygon": 652}
