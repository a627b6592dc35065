"""Exact rational planar geometry.

Points, half-planes, orientation and intersection predicates, convex hulls
of integer points, the bounded 2D polyhedral-set type (a vertex cycle whose
edge half-planes are derived from it), and cutting such a set with a
half-plane or with a line.

All coordinates are exact rationals (`fractions.Fraction`, with plain `int`
accepted anywhere a rational is expected) and every predicate is computed
exactly.  No floating point is used anywhere in this package's core.

Conventions used throughout:

* A half-plane is ``a*x + c*y <= b`` with coprime integers ``(a, c)``.  Its
  sign is *not* canonicalized: orientation is meaning, ``(a, c)`` points out
  of the feasible side.
* A line is a half-plane's boundary ``a*x + c*y = b``; its offset ``b`` stays
  rational, and the line contains integer points iff ``b`` is an integer
  (given ``gcd(a, c) == 1``).
* A :class:`PolySet2` with three or more vertices is a strictly convex
  counter-clockwise vertex cycle starting at the lexicographically smallest
  vertex; its ``halfplanes[i]``, derived on first use and cached, is the
  supporting half-plane of the edge ``vertices[i] -> vertices[i+1]``.  Sets
  with one or two vertices are degenerate (a point or a segment) and have no
  half-planes.
* A :class:`PolySet2` stores only the reduced integer form ``(X, Y, W)``,
  ``W > 0`` and ``gcd(X, Y, W) = 1``, of each vertex ``(X/W, Y/W)``
  (:func:`_form`).  Reduced forms are equal exactly when the points are, so
  equality and hashing read them; the ``Point2`` vertices are built from
  them on first read.  Edge directions, turns (:func:`_turn`), levels
  ``a*x + c*y - b`` as integer (num, den) pairs (:func:`_level`),
  half-planes, areas, clip crossings, the half-plane intersection and the
  sweep frames of :mod:`inthull.lattice` read the forms as a few integer
  products; ``Point2`` stays the public vertex type.
* The empty set is represented by ``None`` wherever an operation can produce
  it (e.g. :func:`clip`); public constructors raise :class:`EmptySet` instead
  of returning ``None``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import index
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import DegenerateSet, EmptySet, IdenticalPoints, UnboundedSet

Rational = Union[int, Fraction]
Form = Tuple[int, int, int]  # the integer form (X, Y, W), W > 0, of the point (X/W, Y/W)


def _frac(value: Rational) -> Fraction:
    """Coerce to Fraction, rejecting floats (exactness is mandatory)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class Point2(NamedTuple):
    """A point with exact rational coordinates (lexicographically ordered)."""

    x: Fraction
    y: Fraction


class IntPoint2(NamedTuple):
    """A point with integer coordinates (lexicographically ordered)."""

    x: int
    y: int


def point(x: Rational, y: Rational) -> Point2:
    """Build a :class:`Point2`, coercing both coordinates to Fraction."""
    return Point2(_frac(x), _frac(y))


def as_point(p: Sequence[Rational]) -> Point2:
    """Coerce any (x, y) pair — including an IntPoint2 — to a Point2."""
    return Point2(_frac(p[0]), _frac(p[1]))


def _form(p: Point2) -> Form:
    """The reduced integer form (X, Y, W) of a point, p = (X/W, Y/W), with
    W the lcm of the two denominators (so W > 0 and gcd(X, Y, W) = 1)."""
    x, y = p
    xd, yd = x.denominator, y.denominator
    if xd == yd:
        return x.numerator, y.numerator, xd
    W = lcm(xd, yd)
    return x.numerator * (W // xd), y.numerator * (W // yd), W


def _reduced(X: int, Y: int, W: int) -> Form:
    """The reduced form of the point (X/W, Y/W), W != 0."""
    if W < 0:
        X, Y, W = -X, -Y, -W
    g = gcd(X, Y, W)
    return X // g, Y // g, W // g


def _level(h: HalfPlane, p: Form) -> Tuple[int, int]:
    """h.a*x + h.c*y - h.b at the integer form p, as (num, den), den > 0."""
    X, Y, W = p
    b = h.b
    bd = b.denominator
    return (h.a * X + h.c * Y) * bd - b.numerator * W, W * bd


@dataclass(frozen=True)
class HalfPlane:
    """The closed half-plane a*x + c*y <= b.

    (a, c) are reduced to coprime integers but the sign is preserved: the
    normal (a, c) points away from the feasible side.  b is rational.
    """

    a: int
    c: int
    b: Fraction

    def __post_init__(self) -> None:
        a, c = self.a, self.c
        if not isinstance(a, int) or not isinstance(c, int):
            raise TypeError("half-plane coefficients must be integers")
        if a == 0 and c == 0:
            raise ValueError("half-plane normal must be nonzero")
        b = _frac(self.b)
        g = gcd(a, c)
        object.__setattr__(self, "a", a // g)
        object.__setattr__(self, "c", c // g)
        object.__setattr__(self, "b", b if g == 1 else b / g)


@dataclass(frozen=True)
class HullResult:
    """Canonical list of integer hull vertices.

    Forms: empty; one point; two points in lexicographic order; or three or
    more points in strictly convex counter-clockwise order starting at the
    lexicographically smallest point.
    """

    points: Tuple[IntPoint2, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(IntPoint2(index(p[0]), index(p[1])) for p in self.points))

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i):
        return self.points[i]


@dataclass(frozen=True, init=False, repr=False)
class PolySet2:
    """A bounded convex subset of the plane, given by its vertices.

    With >= 3 vertices: ``vertices`` is a strictly convex CCW cycle starting
    at the lex-smallest vertex, and ``halfplanes[i]`` supports the edge
    ``vertices[i] -> vertices[(i+1) % n]``.  With 1 or 2 vertices the set is
    degenerate (a point or a segment, vertices in lex order) and has no
    half-planes.  The stored state is the reduced integer form of each
    vertex (see :func:`_form`), and equality and hashing use those forms.
    ``vertices`` and ``halfplanes`` are built from the forms on first read
    and cached: the sets between an input polygon and its integer hull are
    clipped, swept and enumerated from their forms and never build them.
    """

    _forms: Tuple[Form, ...]

    def __init__(self, vertices: Iterable[Sequence[Rational]]) -> None:
        verts = tuple(Point2(_frac(p[0]), _frac(p[1])) for p in vertices)
        forms = tuple(map(_form, verts))
        n = len(verts)
        if n == 0:
            raise ValueError("a PolySet2 must have at least one vertex; use None for the empty set")
        if n == 2 and not verts[0] < verts[1]:
            raise ValueError("degenerate segment vertices must be distinct and in lex order")
        if n >= 3 and _cycle_start(forms) != 0:
            raise ValueError("vertex cycle must start at the lexicographically smallest vertex")
        object.__setattr__(self, "_forms", forms)
        object.__setattr__(self, "vertices", verts)

    def __repr__(self) -> str:
        return f"PolySet2(vertices={self.vertices!r})"

    @functools.cached_property
    def vertices(self) -> Tuple[Point2, ...]:
        """The vertices, in cycle order (lex order for a segment)."""
        return tuple(Point2(Fraction(X, W), Fraction(Y, W)) for X, Y, W in self._forms)

    @functools.cached_property
    def halfplanes(self) -> Tuple[HalfPlane, ...]:
        """The supporting half-plane of every edge, in cycle order."""
        forms = self._forms
        n = len(forms)
        if n < 3:
            return ()
        return tuple(_edge_halfplane(forms[i], forms[(i + 1) % n]) for i in range(n))

    @functools.cached_property
    def _cells(self) -> int:
        """Integer grid cells in the bounding box (0 if none); -ceil(x) = floor(-x)."""
        forms = self._forms
        ncols = max(X // W for X, _, W in forms) + max(-X // W for X, _, W in forms) + 1
        nrows = max(Y // W for _, Y, W in forms) + max(-Y // W for _, Y, W in forms) + 1
        return ncols * nrows if ncols > 0 and nrows > 0 else 0

    @property
    def is_degenerate(self) -> bool:
        """True for a point or segment (fewer than 3 vertices)."""
        return len(self._forms) < 3


def _direction(p: Form, q: Form) -> Tuple[int, int]:
    """A positive integer multiple of q - p, from their integer forms."""
    return q[0] * p[2] - p[0] * q[2], q[1] * p[2] - p[1] * q[2]


def _turn(o: Form, a: Form, b: Form) -> int:
    """The cross product of _direction(o, a) and _direction(o, b): positive
    when o -> a -> b turns left, 0 when the three points are collinear."""
    ux, uy = _direction(o, a)
    vx, vy = _direction(o, b)
    return ux * vy - uy * vx


def _cycle_start(forms: Sequence[Form]) -> int:
    """The index of the lex-smallest vertex of a strictly convex, once-winding
    CCW cycle of integer forms (>= 3 vertices); ValueError for any other cycle.

    Consecutive edges must turn left strictly.  Left turns alone also admit
    a cycle that winds around more than once (a pentagram); a convex one
    turns its edge directions around once, by less than a half turn at a
    time, so they enter the lex-up half (X > 0, or X = 0 < Y) exactly once:
    at the lex-smallest vertex, whose incoming edge points lex-down.
    """
    into = [_direction(forms[i - 1], forms[i]) for i in range(len(forms))]
    up = [x > 0 or x == 0 < y for x, y in into]
    starts = [i - 1 for i in range(len(into)) if up[i] and not up[i - 1]]
    if len(starts) != 1 or any(px * y <= py * x for (px, py), (x, y) in zip(into[-1:] + into, into)):
        raise ValueError("vertices must form a strictly convex counter-clockwise cycle")
    return starts[0] % len(forms)


def line_through(p: Sequence[Rational], q: Sequence[Rational]) -> HalfPlane:
    """The half-plane to the left of p -> q, whose boundary is the line
    through the two distinct points."""
    p = as_point(p)
    q = as_point(q)
    if p == q:
        raise IdenticalPoints(f"cannot build a line through the single point {tuple(p)}")
    return _edge_halfplane(_form(p), _form(q))


def _hull_chain(points: Iterable[Sequence]) -> list:
    """Monotone-chain convex hull over exact rational (x, y) pairs.

    Returns the hull in strict CCW order starting at the lexicographically
    smallest point.  Fewer than three distinct points (or an all-collinear
    set) collapse to the sorted distinct points / the two extreme points.
    Only the lowest and highest point of a column x = X can be a vertex, so
    each run of equal x is cut to its two ends before the chain runs.  Turns
    are read from the points' integer forms (:func:`_turn`).
    """
    pts: list = []
    for p in sorted(set(tuple(p) for p in points)):
        if len(pts) >= 2 and pts[-2][0] == pts[-1][0] == p[0]:
            pts[-1] = p
        else:
            pts.append(p)
    if len(pts) <= 2:
        return pts
    forms = [_form(p) for p in pts]
    hull: list = []
    for run in (forms, forms[::-1]):  # the lower chain, then the upper
        chain: list = []
        for f in run:
            while len(chain) >= 2 and _turn(chain[-2], chain[-1], f) <= 0:
                chain.pop()
            chain.append(f)
        hull += chain[:-1]
    if len(hull) < 3:
        # All points collinear: keep the two extremes.
        return [pts[0], pts[-1]]
    point_of = dict(zip(forms, pts))
    return [point_of[f] for f in hull]


def convex_hull(points: Iterable[Sequence[int]]) -> HullResult:
    """Canonical convex hull of a finite set of integer points.

    Coordinates must be integers: a ``Fraction`` or ``float`` raises
    ``TypeError`` rather than being truncated to another lattice point.
    """
    pts = [IntPoint2(index(p[0]), index(p[1])) for p in points]
    return HullResult(tuple(IntPoint2(*p) for p in _hull_chain(pts)))


def _edge_halfplane(p: Form, q: Form) -> HalfPlane:
    """Supporting half-plane of the directed edge p -> q of a CCW polygon,
    from the integer forms of its ends.

    The outward normal of a CCW edge with direction d is (d.y, -d.x).
    """
    dx, dy = _direction(p, q)
    g = gcd(dx, dy)
    return HalfPlane(dy // g, -dx // g, Fraction(dy * p[0] - dx * p[1], p[2] * g))


def _polyset_of(forms: Tuple[Form, ...]) -> PolySet2:
    """A PolySet2 holding reduced forms already in canonical order, unchecked."""
    P = object.__new__(PolySet2)
    object.__setattr__(P, "_forms", forms)
    return P


def _polyset_from_cycle(forms: Sequence[Form]) -> PolySet2:
    """Build a PolySet2 from a strictly convex CCW cycle (>= 3 vertices) of
    reduced integer forms.

    The constructor's cycle check (:func:`_cycle_start`) runs once and finds
    the lex-smallest vertex, where the built set starts.
    """
    k = _cycle_start(forms)
    return _polyset_of(tuple(forms[k:]) + tuple(forms[:k]))


def _degenerate_polyset(forms: Iterable[Form]) -> Optional[PolySet2]:
    """A point or segment PolySet2 from reduced forms of <= 2 distinct
    points (None if there are none); a segment's ends go in lex order."""
    ends = list(dict.fromkeys(forms))
    if not ends:
        return None
    if len(ends) > 2:
        raise ValueError("degenerate sets have at most two distinct vertices")
    if _direction(ends[0], ends[-1]) < (0, 0):
        ends.reverse()
    return _polyset_of(tuple(ends))


def polyset_from_vertices(vertices: Sequence[Sequence[Rational]]) -> PolySet2:
    """The convex polygon spanned by the given points.

    Points strictly inside the hull of the others are dropped.  Raises
    :class:`DegenerateSet` when fewer than three distinct points remain or all
    points are collinear.
    """
    pts = [as_point(p) for p in vertices]
    hull = _hull_chain(pts)
    if len(hull) < 3:
        raise DegenerateSet("need at least three distinct, not all collinear points")
    return _polyset_from_cycle([_form(p) for p in hull])


def contains(P: PolySet2, p: Sequence[Rational]) -> bool:
    """Boundary-inclusive membership test."""
    p = as_point(p)
    form, forms = _form(p), P._forms
    if len(forms) == 1:
        return form == forms[0]
    if len(forms) == 2:
        u, w = P.vertices
        return _turn(*forms, form) == 0 and u <= p <= w
    return all(_level(h, form)[0] <= 0 for h in P.halfplanes)


def area(P: PolySet2) -> Fraction:
    """Exact area (0 for degenerate sets).

    The shoelace terms (X_q*Y_p - X_p*Y_q) / (W_q*W_p) are summed over one
    running integer (num, den) pair, with one ``Fraction`` at the end.
    """
    num, den = 0, 1
    qx, qy, qw = P._forms[-1]
    for px, py, pw in P._forms:
        term_den = qw * pw
        g = gcd(den, term_den)
        num = num * (term_den // g) + (qx * py - px * qy) * (den // g)
        den = den // g * term_den
        qx, qy, qw = px, py, pw
    return Fraction(num, 2 * den)


def bounding_box(P: PolySet2) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
    """(xmin, xmax, ymin, ymax) over the vertices."""
    xs, ys = zip(*P.vertices)
    return min(xs), max(xs), min(ys), max(ys)


def _clean_cycle(forms: Sequence[Form]) -> list:
    """Drop consecutive duplicates and collinear middle vertices of a cycle
    of reduced integer forms (equal points have equal forms)."""
    # Consecutive duplicates (cyclically).
    dedup: list = []
    for f in forms:
        if not dedup or dedup[-1] != f:
            dedup.append(f)
    while len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    # Collinear middles (cyclically); the loop re-scans until stable.
    changed = True
    while changed and len(dedup) >= 3:
        changed = False
        n = len(dedup)
        for i in range(n):
            if _turn(dedup[i - 1], dedup[i], dedup[(i + 1) % n]) == 0:
                del dedup[i]
                changed = True
                break
    return dedup


def _vertex_levels(forms: Sequence[Form], h: HalfPlane) -> Callable[[int], Tuple[int, int]]:
    """j -> the level of h at vertex j mod n, once per vertex, from its form."""
    n = len(forms)
    memo: dict = {}

    def level(j: int) -> Tuple[int, int]:
        j %= n
        value = memo.get(j)
        if value is None:
            value = memo[j] = _level(h, forms[j])
        return value

    return level


def _deepest(level: Callable[[int], Tuple[int, int]], hint: int) -> Tuple[int, Tuple[int, int]]:
    """A vertex where `level` is least, and that level, by local descent
    from `hint`.

    The level of a half-plane is unimodal on a strictly convex cycle, so a
    vertex that neither neighbor undercuts is a minimum; the hint only
    changes how far the descent walks.  The index is not reduced mod n.
    """
    j, fj = hint, level(hint)
    for step in (1, -1):
        while True:
            fk = level(j + step)
            if fk[0] * fj[1] >= fj[0] * fk[1]:
                break
            j, fj = j + step, fk
    return j, fj


def _deepest_vertex(P: PolySet2, h: HalfPlane, hint: int = 0) -> int:
    """The index of a vertex of P where the level of h is least.

    Walks from vertex `hint`; the answer does not depend on it, but a hint
    near the answer makes the walk short.
    """
    return _deepest(_vertex_levels(P._forms, h), hint)[0] % len(P._forms)


def _crossing(p: Form, lp: Tuple[int, int], q: Form, lq: Tuple[int, int]) -> Form:
    """The reduced form of the point of segment pq at level 0, given the
    integer forms of p and q and the levels (num, den) there, of strictly
    opposite signs."""
    # The levels at q and p over one denominator: the crossing is (wp*p - wq*q) / (wp - wq).
    wp, wq = lq[0] * lp[1], lp[0] * lq[1]
    px, py, pw = p
    qx, qy, qw = q
    den = (wp - wq) * pw * qw
    wp, wq = wp * qw, wq * pw
    return _reduced(wp * px - wq * qx, wp * py - wq * qy, den)


def clip(P: PolySet2, h: HalfPlane, hint: int = 0) -> Optional[PolySet2]:
    """P intersected with a half-plane; None when the intersection is empty.

    The vertices of P on the kept side of h form one contiguous arc of the
    cycle, around h's deepest vertex.  That vertex is found by a local
    descent from vertex `hint`, which changes only the speed, never the
    result; the walk then runs forward and backward while vertices are
    kept, and adds at most two crossings where it stops.  Levels and
    crossings come from the vertices' integer forms, which kept vertices
    keep, so a clip costs the descent plus the kept arc, not a pass over P.
    A clip of a strictly convex cycle is strictly convex; the constructor's
    cycle check (:func:`_cycle_start`) checks it.

    Degenerate results (a segment or point) are returned as degenerate
    PolySet2 values, not errors.  A point or segment P is clipped as the
    1- or 2-cycle of its vertices: a segment's crossing is found once from
    each end, at the same point, and the duplicate is dropped.
    """
    forms = P._forms
    n = len(forms)
    level = _vertex_levels(forms, h)
    j, f_j = _deepest(level, hint)
    if f_j[0] > 0:
        return None
    end, f_end = j, f_j
    while end - j < n - 1:
        f_out = level(end + 1)
        if f_out[0] > 0:
            break
        end, f_end = end + 1, f_out
    else:
        return P  # every vertex is kept
    start, f_start = j, f_j
    while True:
        f_in = level(start - 1)
        if f_in[0] > 0:
            break
        start, f_start = start - 1, f_in
    cycle = [forms[k % n] for k in range(start, end + 1)]
    if f_end[0] < 0:
        cycle.append(_crossing(forms[end % n], f_end, forms[(end + 1) % n], f_out))
    if f_start[0] < 0:
        cycle.append(_crossing(forms[(start - 1) % n], f_in, forms[start % n], f_start))
    if n < 3 or len(cycle) < 3:
        return _degenerate_polyset(cycle)
    return _polyset_from_cycle(cycle)


def chord(P: PolySet2, h: HalfPlane) -> Optional[PolySet2]:
    """P cut by the boundary line of h: a segment or a single point (as a
    degenerate PolySet2), or None when the line misses P."""
    if P.is_degenerate:
        raise ValueError("chords require a polygon with at least 3 vertices")
    below = clip(P, h)
    return None if below is None else clip(below, HalfPlane(-h.a, -h.c, -h.b))


# ---------------------------------------------------------------------------
# Intersection of half-planes
# ---------------------------------------------------------------------------


def _dedupe_halfplanes(hps: Sequence[HalfPlane]) -> list:
    """Keep the tightest offset per normal direction."""
    best = {}
    for h in hps:
        key = (h.a, h.c)
        if key not in best or h.b < best[key].b:
            best[key] = h
    return list(best.values())


def _angle_cmp(u: Sequence[int], w: Sequence[int]) -> int:
    """Compare integer vectors by angle, exactly (no trigonometry).

    Vectors in the upper half plane (including the +x axis) come first, each
    half ordered by cross product.
    """
    hu = 0 if (u[1] > 0 or (u[1] == 0 and u[0] > 0)) else 1
    hw = 0 if (w[1] > 0 or (w[1] == 0 and w[0] > 0)) else 1
    if hu != hw:
        return -1 if hu < hw else 1
    cr = u[0] * w[1] - u[1] * w[0]
    return -1 if cr > 0 else (1 if cr < 0 else 0)


_by_angle = functools.cmp_to_key(_angle_cmp)


def _sort_by_angle(hps: Sequence[HalfPlane]) -> list:
    """Sort half-planes by the angle of their normal (see :func:`_angle_cmp`)."""
    return sorted(hps, key=lambda h: _by_angle((h.a, h.c)))


def _positively_spanning(sorted_hps: Sequence[HalfPlane]) -> bool:
    """True iff every cyclic gap between consecutive normals is < pi."""
    n = len(sorted_hps)
    if n < 3:
        return False
    for i in range(n):
        h1 = sorted_hps[i]
        h2 = sorted_hps[(i + 1) % n]
        if h1.a * h2.c - h1.c * h2.a <= 0:
            return False
    return True


class _NeedsFallback(Exception):
    """Internal: the fast half-plane intersection hit an ambiguous case."""


def _hp_intersection_point(h1: HalfPlane, h2: HalfPlane) -> Form:
    """The reduced integer form (X, Y, W), W > 0 and gcd(X, Y, W) = 1, of
    the point where the boundary lines of h1 and h2 meet."""
    det = h1.a * h2.c - h2.a * h1.c
    if det == 0:
        raise _NeedsFallback
    n1, d1 = h1.b.numerator, h1.b.denominator
    n2, d2 = h2.b.numerator, h2.b.denominator
    # Cramer's rule over the common denominator d1 * d2 of the offsets.
    X = n1 * d2 * h2.c - n2 * d1 * h1.c
    Y = h1.a * n2 * d1 - h2.a * n1 * d2
    return _reduced(X, Y, det * d1 * d2)


def _intersect_by_clipping(hps: Sequence[HalfPlane]) -> Optional[PolySet2]:
    """Intersect half-planes by clipping a large box; None when empty.

    A nonempty intersection always has a point strictly inside the box.  If
    it has a vertex, that vertex solves two input rows, so its coordinates
    are bounded by 2 * max|b| * max|coef| (the 2x2 determinant of integer
    rows is a nonzero integer).  If it has none, every row is parallel to
    one line and the point nearest the origin lies within max|b| of it.  For
    a bounded intersection box edges therefore never survive into the
    result; for an unbounded one only emptiness is meaningful.
    """
    max_b = max(abs(h.b) for h in hps)
    max_ac = max(max(abs(h.a), abs(h.c)) for h in hps)
    m = 1 + 2 * (max_b.numerator // max_b.denominator + 1) * max_ac
    square = _polyset_from_cycle([(-m, -m, 1), (m, -m, 1), (m, m, 1), (-m, m, 1)])
    region: Optional[PolySet2] = square
    for h in hps:
        region = clip(region, h)
        if region is None:
            return None
    return region


def _intersect_sorted_deque(sorted_hps: Sequence[HalfPlane]) -> Optional[PolySet2]:
    """Half-plane intersection for angle-sorted, positively spanning input.

    Classic deque construction: a half-plane is popped when it becomes
    redundant against the intersection point of its neighbors.  Intersection
    points are reduced integer forms (:func:`_hp_intersection_point`), sides
    are the signs of their levels and collinear vertices are dropped by
    :func:`_turn`, so no ``Fraction`` is built until the vertices of the
    result.  Returns a polygon with at least three vertices, or None for an
    empty slab between antiparallel neighbors (input normals are distinct,
    so neighbors with parallel normals are antiparallel).  Raises
    :class:`_NeedsFallback` on ambiguous degenerate configurations and
    whenever fewer than three vertices remain, since the deque can report
    an empty set as a point or segment.
    """
    def outside(h: HalfPlane, p: Form) -> bool:
        return _level(h, p)[0] > 0

    dq: list = []
    for h in sorted_hps:
        while len(dq) >= 2 and outside(h, _hp_intersection_point(dq[-2], dq[-1])):
            dq.pop()
        while len(dq) >= 2 and outside(h, _hp_intersection_point(dq[0], dq[1])):
            dq.pop(0)
        if dq:
            back = dq[-1]
            if back.a * h.c - h.a * back.c == 0:
                # Antiparallel neighbors: an empty slab means an empty set,
                # anything else is ambiguous here.
                if back.b + h.b < 0:
                    return None
                raise _NeedsFallback
        dq.append(h)
    while len(dq) >= 3 and outside(dq[0], _hp_intersection_point(dq[-2], dq[-1])):
        dq.pop()
    while len(dq) >= 3 and outside(dq[-1], _hp_intersection_point(dq[0], dq[1])):
        dq.pop(0)
    if len(dq) < 3:
        raise _NeedsFallback
    n = len(dq)
    forms = _clean_cycle([_hp_intersection_point(dq[i], dq[(i + 1) % n]) for i in range(n)])
    if len(forms) < 3:
        raise _NeedsFallback
    return _polyset_from_cycle(forms)


def _intersect_halfplanes(hps: Sequence[HalfPlane]) -> Optional[PolySet2]:
    """Permissive intersection: PolySet2 (possibly degenerate) or None.

    Raises :class:`UnboundedSet` when the (nonempty) intersection is
    unbounded.  Callers that must reject degenerate output wrap this.

    Bounded-shaped input (normals that positively span the plane) goes to
    the deque first; box clipping answers whenever the deque gives up or
    finds fewer than three vertices.  Input whose normals leave a gap of at
    least pi has a recession direction, so it is unbounded unless empty, and
    box clipping decides which: a nonempty intersection always meets the box
    (see :func:`_intersect_by_clipping`).
    """
    deduped = _dedupe_halfplanes(hps)
    if not deduped:
        raise UnboundedSet("no constraints: the whole plane is unbounded")
    sorted_hps = _sort_by_angle(deduped)
    if not _positively_spanning(sorted_hps):
        if _intersect_by_clipping(sorted_hps) is not None:
            raise UnboundedSet("the intersection has a recession direction")
        return None
    try:
        return _intersect_sorted_deque(sorted_hps)
    except _NeedsFallback:
        return _intersect_by_clipping(sorted_hps)


def polyset_from_halfplanes(hps: Sequence[HalfPlane]) -> PolySet2:
    """The bounded 2D set defined by the half-planes.

    Raises :class:`EmptySet` for an empty intersection, :class:`UnboundedSet`
    for an unbounded one, and :class:`DegenerateSet` when the intersection is
    a point or segment.  Redundant half-planes are dropped.
    """
    result = _intersect_halfplanes(hps)
    if result is None:
        raise EmptySet("the half-plane intersection is empty")
    if result.is_degenerate:
        raise DegenerateSet("the half-plane intersection has no interior (a point or segment)")
    return result
