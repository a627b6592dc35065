"""Unimodular maps: checks at any scale, with no oracle.

A map x -> U x + t with an integer matrix U of determinant +-1 and an
integer vector t maps the lattice onto itself and keeps convexity, so the
integer hull of the image of P is the image of P's integer hull:
H(U P + t) = U H(P) + t.  The image is also built twice, from its mapped
vertices and from its mapped half-planes, and a clip of the image is the
image of a clip.  So the half-plane cut, `clip` and `new` are checked at
scales and shears no enumeration reaches; `baseline` and `oracle` are
checked where their enumerations stay small.
"""

from __future__ import annotations

import random

from inthull import (
    BudgetExceeded,
    HalfPlane,
    clip,
    convex_hull,
    instance_to_polyset,
    integer_hull_baseline,
    integer_hull_new,
    integer_hull_oracle,
    polyset_from_halfplanes,
    polyset_from_vertices,
)
from inthull.generate import random_polygon
from inthull.oracle import bbox_cell_count

# A rotation, a reflection, the identity and [[2, 1], [1, 1]], each then
# composed with a row shear [[1, k], [0, 1]].
BASES = (((0, -1), (1, 0)), ((1, 0), (0, -1)), ((1, 0), (0, 1)), ((2, 1), (1, 1)))

# The oracle lists every lattice point of an image, so it runs only on
# images of at most this many bounding-box cells.
ORACLE_CELLS = 10**5


def unimodular_maps(rng: random.Random, shears, shift: int):
    """One map x -> U x + t per basis, as (U, t): U the basis times a row
    shear by a k drawn from `shears`, and |t| at most `shift` per axis."""
    for (p, q), (r, s) in BASES:
        k = rng.choice(shears)
        t = (rng.randint(-shift, shift), rng.randint(-shift, shift))
        yield ((p, p * k + q), (r, r * k + s)), t


def image(U, t, pt):
    (p, q), (r, s) = U
    x, y = pt
    return p * x + q * y + t[0], r * x + s * y + t[1]


def image_row(U, t, h: HalfPlane) -> HalfPlane:
    """The image of the half-plane h: (a, c) . x <= b holds at x exactly
    when (a, c) U^-1 . y <= b + (a, c) U^-1 . t holds at y = U x + t."""
    (p, q), (r, s) = U
    det = p * s - q * r
    a, c = det * (h.a * s - h.c * r), det * (h.c * p - h.a * q)
    return HalfPlane(a, c, h.b + a * t[0] + c * t[1])


def image_hull(U, t, hull):
    return convex_hull(image(U, t, pt) for pt in hull)


def random_cut(rng: random.Random, P) -> HalfPlane:
    """A half-plane whose line runs through the interior of P."""
    while True:
        a, c = rng.randint(-9, 9), rng.randint(-9, 9)
        levels = sorted(a * v.x + c * v.y for v in P.vertices)
        if levels[0] < levels[-1]:
            return HalfPlane(a, c, (levels[0] + levels[-1]) / 2)


def checked_images(rng: random.Random, scale: int, count: int, shears, shift: int):
    """`count` random polygons at `scale`, and four unimodular images of
    each, as (P, U, t, Q).  Q is built from its mapped vertices and is
    checked equal to the set of its mapped half-planes, and a clip of Q to
    the image of the same clip of P."""
    for _ in range(count):
        P = instance_to_polyset(random_polygon(rng.randint(3, 30), scale, rng.randrange(10**6)))
        h = random_cut(rng, P)
        for U, t in unimodular_maps(rng, shears, shift):
            Q = polyset_from_vertices([image(U, t, v) for v in P.vertices])
            assert polyset_from_halfplanes([image_row(U, t, g) for g in P.halfplanes]) == Q, (P, U, t)
            cut = polyset_from_vertices([image(U, t, v) for v in clip(P, h).vertices])
            assert clip(Q, image_row(U, t, h)) == cut, (P, h, U, t)
            yield P, U, t, Q


def check_new_commutes_with_unimodular_maps(count: int) -> int:
    """H(U P + t) = U H(P) + t for `new` on `count` polygons at each of the
    scales 10^6, 10^12 and 10^30, with shears up to 10^15 and shifts up to
    10^20; returns the number of maps checked."""
    rng = random.Random(2025)
    maps = 0
    for scale in (10**6, 10**12, 10**30):
        hulls = {}
        for P, U, t, Q in checked_images(rng, scale, count, (1, 7, 10**6, 10**15), 10**20):
            if P not in hulls:
                hulls[P] = integer_hull_new(P)
            assert integer_hull_new(Q) == image_hull(U, t, hulls[P]), (P, U, t)
            maps += 1
    return maps


def test_new_commutes_with_unimodular_maps_at_any_scale():
    assert check_new_commutes_with_unimodular_maps(8) == 96


def test_baseline_and_oracle_commute_with_unimodular_maps():
    rng = random.Random(2026)
    answered = oracle_runs = 0
    for scale in (10, 100, 1000):
        hulls = {}
        for P, U, t, Q in checked_images(rng, scale, 4, (0, 1, 7, 100), 10**20):
            if P not in hulls:
                hulls[P] = integer_hull_new(P)
            expected = image_hull(U, t, hulls[P])
            try:
                assert integer_hull_baseline(Q) == expected, (P, U, t)
                answered += 1
            except BudgetExceeded:
                pass
            if bbox_cell_count(Q) <= ORACLE_CELLS:
                assert integer_hull_oracle(Q) == expected, (P, U, t)
                oracle_runs += 1
    assert answered >= 40 and oracle_runs >= 15, (answered, oracle_runs)
