"""Shared builders and independent reference implementations for the tests.

Everything here that checks a result is deliberately written from first
principles (plain Fraction arithmetic, no calls into the hull engines), so
the tests compare the package against straight-line reference code rather
than against itself.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from inthull import HalfPlane, PolySet2, polyset_from_halfplanes, polyset_from_vertices

RatPoint = Tuple[Fraction, Fraction]

SRC = Path(__file__).resolve().parent.parent / "src"


def cli_env() -> Dict[str, str]:
    """The environment for a `python -m inthull` child process: this one's,
    with the package source first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def frac_cross(o: Sequence[Fraction], a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    """Plain-Fraction cross product (a - o) x (b - o)."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def on_segment(u: Sequence[Fraction], w: Sequence[Fraction], p: Sequence[Fraction]) -> bool:
    """Whether p lies on the closed segment uw: a zero plain-Fraction cross
    product and p between the ends in lexicographic order."""
    u, w, p = (tuple(map(Fraction, q)) for q in (u, w, p))
    return frac_cross(u, w, p) == 0 and min(u, w) <= p <= max(u, w)


def rational_hull(points: Sequence[RatPoint]) -> List[RatPoint]:
    """Monotone-chain convex hull over rational points, strict turns only.

    Returns the hull CCW starting from the lexicographically smallest point;
    collinear and duplicate points are dropped.  Independent of the package.
    """
    pts = sorted(set((Fraction(x), Fraction(y)) for x, y in points))
    if len(pts) <= 2:
        return pts
    lower: List[RatPoint] = []
    for p in pts:
        while len(lower) >= 2 and frac_cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: List[RatPoint] = []
    for p in reversed(pts):
        while len(upper) >= 2 and frac_cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:  # all input points collinear
        return [pts[0], pts[-1]]
    return hull


def reference_clip(P: PolySet2, h: HalfPlane) -> Optional[PolySet2]:
    """P intersected with the half-plane h by a scan of every vertex.

    Each vertex on the kept side is kept, each edge that crosses the
    boundary adds its crossing, and duplicate points and collinear middle
    vertices are dropped from the cycle.  Plain Fraction arithmetic; a point
    or segment P is the 1- or 2-cycle of its vertices.
    """
    verts = [(Fraction(v[0]), Fraction(v[1])) for v in P.vertices]
    n = len(verts)
    levels = [h.a * x + h.c * y - h.b for x, y in verts]
    out: List[RatPoint] = []
    for i in range(n):
        j = (i + 1) % n
        if levels[i] <= 0:
            out.append(verts[i])
        if levels[i] * levels[j] < 0:
            t = levels[i] / (levels[i] - levels[j])
            (x0, y0), (x1, y1) = verts[i], verts[j]
            out.append((x0 + t * (x1 - x0), y0 + t * (y1 - y0)))
    cycle: List[RatPoint] = []
    for p in out:
        if not cycle or cycle[-1] != p:
            cycle.append(p)
    while len(cycle) > 1 and cycle[0] == cycle[-1]:
        cycle.pop()
    changed = True
    while changed and len(cycle) >= 3:
        changed = False
        for i in range(len(cycle)):
            if frac_cross(cycle[i - 1], cycle[i], cycle[(i + 1) % len(cycle)]) == 0:
                del cycle[i]
                changed = True
                break
    if not cycle:
        return None
    if len(cycle) < 3:
        return PolySet2(tuple(sorted(set(cycle))))
    k = cycle.index(min(cycle))
    return PolySet2(tuple(cycle[k:] + cycle[:k]))


def shoelace_area(vertices: Sequence[Sequence[Fraction]]) -> Fraction:
    """Signed area of a vertex cycle (positive when counter-clockwise) by the
    shoelace formula in plain Fractions; 0 for a point or segment."""
    pts = [(Fraction(x), Fraction(y)) for x, y in vertices]
    return sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1])) / 2


def frame_line(p: Sequence[Fraction], q: Sequence[Fraction], A: int, C: int, u: int, v: int) -> Tuple[Fraction, Fraction]:
    """(slope, intercept) of the line through p and q in the coordinates
    t = A*x + C*y, s = -v*x + u*y, as s = slope*t + intercept, in plain
    Fractions; t must differ at p and q."""
    (tp, sp), (tq, sq) = [(A * x + C * y, -v * x + u * y) for x, y in (p, q)]
    slope = (sq - sp) / (tq - tp)
    return slope, sp - slope * tp


def random_polyset(rng: random.Random, *, max_num: int = 50, max_den: int = 10,
                   min_pts: int = 3, max_pts: int = 12) -> PolySet2:
    """A random bounded polygon: hull of 3..12 random rational points.

    Coordinates have |numerator| <= max_num and denominator <= max_den.
    Resamples until the points span a proper (2-dimensional) polygon.
    """
    while True:
        k = rng.randint(min_pts, max_pts)
        pts = [
            (
                Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den)),
                Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den)),
            )
            for _ in range(k)
        ]
        hull = rational_hull(pts)
        if len(hull) >= 3:
            return polyset_from_vertices(hull)


def octagon(rng: random.Random, reach: int = 10**6) -> PolySet2:
    """Eight points near a circle of radius 100, one per eighth of the turn,
    with denominators in [10**10, 2*10**10), moved up to `reach` by an
    integer vector."""
    dx, dy = rng.randint(-reach, reach), rng.randint(-reach, reach)
    pts = []
    for k in range(8):
        u = Fraction(k * 1000 + rng.randrange(100, 900), 4000)
        mirror = -1 if u >= 1 else 1
        t = 2 * (u - (u >= 1)) - 1
        q = rng.randrange(10**10, 2 * 10**10)
        x, y = 100 * mirror * (1 - t * t) / (1 + t * t), 200 * t / (1 + t * t)
        pts.append((dx + Fraction(round(x * q), q), dy + Fraction(round(y * q), q)))
    return polyset_from_vertices(pts)


def lattice_facet_triangle(rng: random.Random, S: int) -> PolySet2:
    """A random triangle whose facet lines carry lattice points.

    The three facet normals are primitive integer vectors in [-S, S]^2 that
    positively span the plane, and the offsets are integers in
    [S^2/2, S^2], so each line a*x + c*y = b holds lattice points spaced
    |(a, c)| apart.  This is the paper's edge case for inward sweeps.
    """
    while True:
        normals = []
        while len(normals) < 3:
            a, c = rng.randint(-S, S), rng.randint(-S, S)
            if gcd(a, c) == 1:
                normals.append((a, c))
        (a1, c1), (a2, c2), (a3, c3) = normals
        # d1*n1 + d2*n2 + d3*n3 = 0, so one strict sign means a positive span.
        d = (a2 * c3 - c2 * a3, a3 * c1 - c3 * a1, a1 * c2 - c1 * a2)
        if all(x > 0 for x in d) or all(x < 0 for x in d):
            return polyset_from_halfplanes([HalfPlane(a, c, rng.randint(S * S // 2, S * S)) for a, c in normals])


def small_corpus(count: int, base_seed: int = 0, **kw) -> List[PolySet2]:
    """Deterministic list of `count` random polygons."""
    return [random_polyset(random.Random(base_seed + i), **kw) for i in range(count)]


def brute_points_in(P: PolySet2) -> List[Tuple[int, int]]:
    """Integer points of P by testing every cell of the bounding box.

    Written against the raw halfplane data with Fraction arithmetic only;
    used as the trusted reference for the oracle and the sweep tests.
    """
    from math import ceil, floor

    xs = [v.x for v in P.vertices]
    ys = [v.y for v in P.vertices]
    out: List[Tuple[int, int]] = []
    for x in range(ceil(min(xs)), floor(max(xs)) + 1):
        for y in range(ceil(min(ys)), floor(max(ys)) + 1):
            if all(h.a * x + h.c * y <= h.b for h in P.halfplanes):
                out.append((x, y))
    return out


def reference_stop(P: PolySet2, facet_index: int, side: str) -> Optional[Tuple[int, Tuple[int, int], Tuple[int, int]]]:
    """Expected sweep result computed by full enumeration.

    For the facet line a·x + c·y = b the inward sweep must stop at the
    largest value of a·p over integer points p of P, and the sweep from the
    opposite side at the smallest; lo/hi are the lexicographic extremes of
    the points attaining it.  Returns None when P has no integer points.
    """
    h = P.halfplanes[facet_index]
    pts = brute_points_in(P)
    if not pts:
        return None
    vals = [(h.a * x + h.c * y, (x, y)) for x, y in pts]
    target = max(v for v, _ in vals) if side == "inward" else min(v for v, _ in vals)
    on_line = sorted(p for v, p in vals if v == target)
    return int(target), on_line[0], on_line[-1]


def hull_tuples(hull) -> List[Tuple[int, int]]:
    """HullResult as plain (x, y) tuples for comparisons in asserts."""
    return [(p.x, p.y) for p in hull]


def empty_85_row_system() -> List[Tuple[int, int, int]]:
    """An empty system of 85 rows (a, c, b), each meaning a*x + c*y <= b.

    x + 2y <= 0 and -x - 2y <= -1 contradict each other.  Four rows around
    them meet near (1, 0), and a slack row a*x + c*y <= 1000 for every
    primitive (a, c) with |a|, |c| <= 5 makes the system large.
    """
    rows = [(2, 1, 2), (-1, 2, -2), (1, -2, 1), (1, 2, 0), (-1, -2, -1)]
    rows += [
        (a, c, 1000)
        for a in range(-5, 6)
        for c in range(-5, 6)
        if gcd(a, c) == 1
    ]
    return rows


def random_halfplane_system(rng: random.Random, n_rows: int) -> List[HalfPlane]:
    """A random system of `n_rows` or more half-planes around a random center.

    Offsets put each boundary line a random rational slack from the center.
    Slack is nonnegative in half of the systems (a nonempty set) and may be
    negative in the others (sets pushed toward a point or empty).  Some
    systems add antiparallel partners at zero, negative or positive width,
    which squash the set onto a segment, empty it, or cut a slab.
    """
    cx = Fraction(rng.randint(-40, 40), rng.randint(1, 6))
    cy = Fraction(rng.randint(-40, 40), rng.randint(1, 6))
    low = 0 if rng.random() < 0.5 else -3
    rows: List[HalfPlane] = []
    while len(rows) < n_rows:
        a, c = rng.randint(-6, 6), rng.randint(-6, 6)
        if gcd(a, c) != 1:
            continue
        slack = Fraction(rng.randint(low, 30), rng.randint(1, 4))
        rows.append(HalfPlane(a, c, a * cx + c * cy + slack))
    if rng.random() < 0.5:
        for h in rng.sample(rows, rng.randint(1, min(3, len(rows)))):
            width = rng.choice([Fraction(-1), Fraction(0), Fraction(0), Fraction(1, 2), Fraction(3)])
            rows.append(HalfPlane(-h.a, -h.c, -h.b + width))
    rng.shuffle(rows)
    return rows
