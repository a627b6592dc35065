"""Deterministic instance generators.

Three families, all exact-rational and fully determined by their arguments:

* :func:`random_polygon` — jittered points on an ellipse, convex-hulled; the
  general-purpose corpus family.
* :func:`edgecase_halfplanes` — a long thin wedge between two nearly
  antiparallel facet lines with coprime integer normals and integer offsets,
  each offset then perturbed by a small non-integer rational.  The integer
  lines parallel to each facet are dense in lattice points, but inside the
  wedge the lattice thins out near the sharp ends, which is the
  configuration that makes enumeration-heavy hull strategies pay for large
  residual search regions.
* :func:`convex_chain_polygon` — an exactly-n-vertex convex polygon built by
  chaining all small primitive integer vectors in angle order (n even); used
  for vertex-count-controlled scale tests.

Randomness comes only from ``random.Random(seed)`` driving integer draws;
every coordinate is assembled from integers, so outputs are reproducible
byte for byte.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, isqrt
from typing import List, Tuple

from .errors import UnboundedSet
from .geom import HalfPlane, Rational, _by_angle, _frac, _hull_chain, polyset_from_halfplanes
from .instances import Instance, format_rational


def _primitive_vectors(max_norm: int) -> List[Tuple[int, int]]:
    """All primitive integer vectors with norm <= max_norm, sorted CCW."""
    vecs = []
    for a in range(-max_norm, max_norm + 1):
        for c in range(-max_norm, max_norm + 1):
            if (a, c) == (0, 0) or a * a + c * c > max_norm * max_norm:
                continue
            if gcd(abs(a), abs(c)) == 1:
                vecs.append((a, c))
    return sorted(vecs, key=_by_angle)


def _snap(value: Fraction, grid: int) -> Fraction:
    """Round to the nearest multiple of 1/grid (half away from zero)."""
    num, den = value.numerator, value.denominator
    sign = -1 if num < 0 else 1
    num = abs(num)
    return sign * Fraction((2 * num * grid + den) // (2 * den), grid)


def random_polygon(n: int, scale: Rational, seed: int) -> Instance:
    """n jittered rational points on an ellipse, stored as their convex hull.

    The hull has between 3 and n vertices.  Coordinates are snapped to a
    coarse grid to keep denominators (and therefore downstream facet
    normals) small; if snapping ever collapses the sample below a proper
    polygon, the snap grid is refined deterministically.
    """
    if n < 3:
        raise ValueError("a polygon needs at least 3 vertices")
    scale = _frac(scale)
    if scale <= 0:
        raise ValueError("scale must be positive")
    rng = random.Random(seed)
    raw: List[Tuple[Fraction, Fraction]] = []
    for k in range(n):
        # Parameter in [0, 2), jittered within the k-th of n equal slots.
        u = Fraction(2 * (k * 1000 + rng.randrange(1000)), n * 1000)
        mirror = 1
        if u >= 1:
            u -= 1
            mirror = -1
        t = 2 * u - 1  # tangent-half-angle parameter sweeping a semicircle
        den = 1 + t * t
        cx = mirror * (1 - t * t) / den
        cy = 2 * t / den
        radial = 1 + Fraction(rng.randrange(-64, 65), 512)
        raw.append((scale * cx * radial, scale * Fraction(9, 10) * cy * radial))
    grid = 24
    for _ in range(6):
        pts = [(_snap(x, grid), _snap(y, grid)) for x, y in raw]
        if len(_hull_chain(pts)) >= 3:
            break
        grid *= 24
    else:
        pts = raw
    hull = _hull_chain(pts)
    return Instance(
        name=f"random-n{n}-s{format_rational(scale).replace('/', 'over')}-seed{seed}",
        vertices=tuple((Fraction(x), Fraction(y)) for x, y in hull),
    )


def edgecase_halfplanes(n: int, scale: Rational, seed: int) -> Instance:
    """A long thin wedge whose facet lines are perturbed integer-offset lines.

    Two facets with nearly antiparallel coprime integer normals (a, -b) and
    (-a', b') — the primed pair one small twist away from the first — enclose
    a wedge that opens extremely slowly; a cap facet closes it far from the
    apex, and with n > 3 additional facets shave one or two units off the cap
    corners.  Every offset is an integer plus a small positive non-integer
    rational, so each facet line itself carries no lattice points while the
    integer-offset lines parallel to it are dense in them.  Near the apex the
    wedge stays thinner than the lattice spacing of those lines for a long
    stretch, so hull strategies that enumerate the residual corners left
    after facet tightening scan regions whose size grows with the wedge
    length, while chord sweeps resolve them with logarithmically few queries.

    The normal magnitude grows with `scale` (roughly scale/2 .. scale) and
    the cap sits at distance ~96*scale, so larger scales produce sparser
    facet lines and longer wedges.  The result can have fewer than n facets
    when a shaving facet turns out to be redundant, never more.
    """
    if n < 3:
        raise ValueError("a polygon needs at least 3 facets")
    scale = _frac(scale)
    if scale <= 0:
        raise ValueError("scale must be positive")
    rng = random.Random(seed)
    scale_i = max(3, int(scale))
    low = max(2, scale_i // 2)
    while True:
        a = rng.randrange(low, 2 * low + 1)
        b = rng.randrange(low, 2 * low + 1)
        if gcd(a, b) == 1:
            break
    while True:
        da = rng.choice([0, 1, 1, 2])
        db = rng.choice([0, 1])
        if (da, db) == (0, 0):
            continue
        a2, b2 = a - da, b - db
        if a2 >= 1 and b2 >= 1 and gcd(a2, b2) == 1:
            break

    def eps() -> Fraction:
        return Fraction(1, rng.randrange(3, 60))

    cap_reach = scale_i * 96
    rows: List[Tuple[int, int, Fraction]] = [
        (a, -b, 1 + eps()),
        (-a2, b2, 1 + eps()),
    ]
    # The wedge's one recession direction is perpendicular to (a, -b); the
    # cap's normal must have positive inner product with it to bound the set.
    sigma = -1 if da * b - db * a > 0 else 1
    cap_eps = eps()
    for cap in ((sigma * b, sigma * a), (-sigma * b, -sigma * a)):
        try:
            P = polyset_from_halfplanes(
                [HalfPlane(r[0], r[1], r[2]) for r in rows]
                + [HalfPlane(cap[0], cap[1], (a + b) * cap_reach + cap_eps)]
            )
            break
        except UnboundedSet:
            continue
    else:
        raise AssertionError("one of the two cap orientations must bound the wedge")
    rows.append((cap[0], cap[1], (a + b) * cap_reach + cap_eps))
    for j in range(n - 3):
        sgn = 1 if j % 2 == 0 else -1
        ux = (j + 2) * cap[0] - sgn * cap[1]
        uy = (j + 2) * cap[1] + sgn * cap[0]
        g = gcd(abs(ux), abs(uy))
        ux, uy = ux // g, uy // g
        support = max(ux * v.x + uy * v.y for v in P.vertices)
        shave = rng.randrange(1, 3)
        num, den = support.numerator, support.denominator
        rows.append((ux, uy, num // den - shave + eps()))
    return Instance(
        name=f"edgecase-n{n}-s{format_rational(scale).replace('/', 'over')}-seed{seed}",
        inequalities=tuple((Fraction(r[0]), Fraction(r[1]), r[2]) for r in rows),
    )


def convex_chain_polygon(n: int, target_area: Rational = Fraction(70000)) -> Instance:
    """An exactly-n-vertex convex polygon with small facet normals (n even).

    Takes n primitive integer vectors closed under negation (so the chain
    closes), sorts them by angle, and walks them as edges; the result is
    strictly convex with exactly n vertices.  The polygon is then scaled by
    a rational factor so its area lands near `target_area`, keeping all
    coordinates rationals with one small common denominator.
    """
    if n < 4 or n % 2:
        raise ValueError("the chain construction needs an even n >= 4")
    target_area = _frac(target_area)
    if target_area <= 0:
        raise ValueError("target_area must be positive")
    max_norm = 2
    pool = _primitive_vectors(max_norm)
    while len(pool) < n:
        max_norm += 1
        pool = _primitive_vectors(max_norm)
    upper = [v for v in pool if v[1] > 0 or (v[1] == 0 and v[0] > 0)]
    # Pick n/2 directions evenly from the upper half; negation closes the set.
    # The pool is closed under negation, so k >= n/2 and the picks are distinct.
    k = len(upper)
    chosen = [upper[(i * k) // (n // 2)] for i in range(n // 2)]
    edges = chosen + [(-a, -c) for a, c in chosen]
    edges = sorted(edges, key=_by_angle)
    # The edges come in opposite pairs, so the walk closes: the last edge
    # leads back to the origin.
    verts: List[Tuple[Fraction, Fraction]] = [(Fraction(0), Fraction(0))]
    for dx, dy in edges[:-1]:
        x, y = verts[-1]
        verts.append((x + dx, y + dy))
    # n distinct directions in angle order: a strictly convex CCW polygon,
    # so its area is positive.
    twice_area = 0
    for i in range(n):
        px, py = verts[i]
        qx, qy = verts[(i + 1) % n]
        twice_area += px * qy - qx * py
    area0 = Fraction(twice_area, 2)
    ratio = area0 / target_area
    q0 = max(1, isqrt(ratio.numerator // ratio.denominator))
    # Choose the divisor whose squared scaling lands closest to the target.
    best = min((q0, q0 + 1), key=lambda q: abs(area0 / (q * q) - target_area))
    scaled = [(vx / best, vy / best) for vx, vy in verts]
    return Instance(name=f"chain-n{n}", vertices=tuple(scaled))
