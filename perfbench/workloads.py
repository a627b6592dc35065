"""Seeded instance lists for the four benchmark workloads.

Each builder takes the benchmark seed and returns the list of instances one
pass of the workload runs.  The same seed always gives the same list.

``small-random`` draws every polygon from the seed.  The other three are
fixed shapes moved by a seeded integer translation: a translation by an
integer vector keeps the lattice, so it keeps the work and the hull shape,
while the coordinates (and the hull digest) change with the seed.  Their
costs are dominated by a handful of large calls, and those calls vary too
much between generator seeds (``random_polygon(50, 10**12, s)`` takes from
3.7 s to 8.8 s for ``new`` over s = 2..7) for one run to average out.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from typing import Callable, Dict, List

from inthull.generate import (
    convex_chain_polygon,
    edgecase_halfplanes,
    random_polygon,
)
from inthull.geom import polyset_from_vertices
from inthull.instances import Instance

SMALL_RANDOM_COUNT = 700
OCTAGON_COUNT = 8
WEDGE_COUNT = 50
SHIFT = 10**4  # translations are drawn from [-SHIFT, SHIFT]^2
BIG_SHIFT = 10**6


def translate(inst: Instance, dx: int, dy: int) -> Instance:
    """The instance moved by the integer vector (dx, dy)."""
    name = f"{inst.name}+({dx},{dy})"
    if inst.vertices is not None:
        return replace(inst, name=name, vertices=tuple((x + dx, y + dy) for x, y in inst.vertices))
    rows = tuple((a, c, b + a * dx + c * dy) for a, c, b in inst.inequalities)
    return replace(inst, name=name, inequalities=rows)


def _shifted(rng: random.Random, inst: Instance, reach: int) -> Instance:
    return translate(inst, rng.randint(-reach, reach), rng.randint(-reach, reach))


def octagon(seed: int) -> Instance:
    """Eight rational vertices within +-100, each with a denominator in
    [10**10, 2*10**10): points of a circle of radius 100 (exact rational
    parametrization), one per eighth of the turn, snapped to the denominator.
    """
    rng = random.Random(seed)
    while True:
        pts = []
        for k in range(8):
            u = Fraction(2 * (k * 1000 + rng.randrange(100, 900)), 8000)
            mirror = 1
            if u >= 1:
                u -= 1
                mirror = -1
            t = 2 * u - 1
            x = 100 * mirror * (1 - t * t) / (1 + t * t)
            y = 100 * 2 * t / (1 + t * t)
            q = rng.randrange(10**10, 2 * 10**10)
            pts.append((Fraction(round(x * q), q), Fraction(round(y * q), q)))
        if len(polyset_from_vertices(pts).vertices) == 8:
            return Instance(name=f"octagon-seed{seed}", vertices=tuple(pts))


def small_random(seed: int) -> List[Instance]:
    rng = random.Random(seed)
    return [
        random_polygon(rng.randint(3, 12), rng.randint(5, 20), rng.randrange(2**32))
        for _ in range(SMALL_RANDOM_COUNT)
    ]


def chain_1000(seed: int) -> List[Instance]:
    return [_shifted(random.Random(seed), convex_chain_polygon(1000), SHIFT)]


def bignum(seed: int) -> List[Instance]:
    rng = random.Random(seed)
    shapes = [random_polygon(12, 10**9, 1), random_polygon(50, 10**12, 1)]
    shapes += [octagon(k) for k in range(OCTAGON_COUNT)]
    return [_shifted(rng, inst, BIG_SHIFT) for inst in shapes]


def wedge(seed: int) -> List[Instance]:
    rng = random.Random(seed)
    return [
        _shifted(rng, edgecase_halfplanes(3, 150 + 5 * k, k), SHIFT) for k in range(WEDGE_COUNT)
    ]


WORKLOADS: Dict[str, Callable[[int], List[Instance]]] = {
    "small-random": small_random,
    "chain-1000": chain_1000,
    "bignum": bignum,
    "wedge": wedge,
}
