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
  with one or two vertices are degenerate (a point, or a segment with its
  ends in lex order) and have no half-planes.  One constructor,
  :func:`_polyset_from_forms`, puts reduced forms in this canonical form
  (or refuses them); every set the package builds comes from it, and
  ``PolySet2(...)`` accepts exactly its output.  The half-plane deque hands
  it only cycles with no zero turn and falls back to box clipping on one.
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
from operator import index, itemgetter
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


def _form(p: Sequence[Rational]) -> Form:
    """The reduced integer form (X, Y, W) of a point, p = (X/W, Y/W), with
    W the lcm of the two denominators (so W > 0 and gcd(X, Y, W) = 1); an
    int's denominator is 1."""
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
        canonical = _polyset_from_forms(forms)
        if canonical is None or canonical._forms != forms:
            raise ValueError(
                "vertices must be canonical: one point, two distinct points in lex order, or a cycle "
                "starting at the lexicographically smallest vertex (None is the empty set)"
            )
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
    p = point(p[0], p[1])
    q = point(q[0], q[1])
    if p == q:
        raise IdenticalPoints(f"cannot build a line through the single point {tuple(p)}")
    return _edge_halfplane(_form(p), _form(q))


def _hull_chain(points: Iterable[Tuple[Rational, Rational]]) -> list:
    """Monotone-chain convex hull of hashable exact rational (x, y) pairs,
    as the reduced integer forms (:func:`_form`) of its vertices.

    The hull runs in strict CCW order from the lexicographically smallest
    point.  Fewer than three distinct points (or an all-collinear set)
    collapse to the sorted distinct points / the two extreme points.  Only
    the lowest and highest point of a column x = X can be a vertex, so one
    pass keeps each column's ``[lo, hi]`` in a dict keyed by x, with one
    lookup per point and a store per new column (a Fraction x hashes in
    Python); only the distinct columns are sorted, and only their ends are
    turned into forms before the chain runs on them (:func:`_turn`).
    """
    columns: dict = {}
    for x, y in points:
        ends = columns.get(x)
        if ends is None:
            columns[x] = [y, y]
        elif y < ends[0]:
            ends[0] = y
        elif y > ends[1]:
            ends[1] = y
    forms: list = []
    for x, (lo, hi) in sorted(columns.items(), key=itemgetter(0)):
        forms.append(_form((x, lo)))
        if hi is not lo:  # an end moves only to a strictly smaller or larger y
            forms.append(_form((x, hi)))
    if len(forms) <= 2:
        return forms
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
        return [forms[0], forms[-1]]
    return hull


def convex_hull(points: Iterable[Sequence[int]]) -> HullResult:
    """Canonical convex hull of a finite set of integer points.

    Each point is read once, as ``(index(p[0]), index(p[1]))``: coordinates
    must be integers, and a ``Fraction`` or ``float`` raises ``TypeError``
    rather than being truncated to another lattice point.  The chain
    (:func:`_hull_chain`) keeps only each column's two ends, in one dict
    pass with no sort of the points (only the distinct columns are
    sorted), and only the hull's vertices become :class:`IntPoint2` values.
    """
    hull = _hull_chain((index(p[0]), index(p[1])) for p in points)
    return HullResult(tuple((X, Y) for X, Y, _ in hull))


def _edge_halfplane(p: Form, q: Form) -> HalfPlane:
    """Supporting half-plane of the directed edge p -> q of a CCW polygon,
    from the integer forms of its ends.

    The outward normal of a CCW edge with direction d is (d.y, -d.x).
    """
    dx, dy = _direction(p, q)
    g = gcd(dx, dy)
    return HalfPlane(dy // g, -dx // g, Fraction(dy * p[0] - dx * p[1], p[2] * g))


def _polyset_from_forms(forms: Sequence[Form]) -> Optional[PolySet2]:
    """The canonical PolySet2 of a sequence of reduced integer forms, the one
    constructor every set of this package comes from.

    None when there are no forms; a point, or a segment with its ends in lex
    order, when at most two distinct points remain; otherwise the cycle,
    checked by :func:`_cycle_start` (ValueError unless strictly convex and
    counter-clockwise) and rotated to start at its lex-smallest vertex.
    """
    if len(set(forms[:3])) == 3:
        k = _cycle_start(forms)  # which also refuses any later repeat
        forms = tuple(forms[k:]) + tuple(forms[:k])
    else:
        # Three forms of at most two points repeat one; distinct later forms
        # leave a cycle with a repeated vertex.
        forms = tuple(dict.fromkeys(forms))
        if len(forms) > 2:
            raise ValueError("vertices must form a strictly convex counter-clockwise cycle")
        if not forms:
            return None
        if _direction(forms[0], forms[-1]) < (0, 0):
            forms = forms[::-1]
    P = object.__new__(PolySet2)
    object.__setattr__(P, "_forms", forms)
    return P


def polyset_from_vertices(vertices: Sequence[Sequence[Rational]]) -> PolySet2:
    """The convex polygon spanned by the given points.

    Points strictly inside the hull of the others are dropped.  Raises
    :class:`DegenerateSet` when fewer than three distinct points remain or all
    points are collinear.
    """
    P = _polyset_from_forms(_hull_chain(point(p[0], p[1]) for p in vertices))
    if P is None or P.is_degenerate:
        raise DegenerateSet("need at least three distinct, not all collinear points")
    return P


def contains(P: PolySet2, p: Sequence[Rational]) -> bool:
    """Boundary-inclusive membership test."""
    p = point(p[0], p[1])
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
    The kept arc and crossings go to :func:`_polyset_from_forms`, which
    checks that a clip of a strictly convex cycle is strictly convex and
    returns fewer than three points as a degenerate PolySet2, not an error.
    A point or segment P is clipped as the 1- or 2-cycle of its vertices: a
    segment's crossing is found once from each end, at the same point, and
    the constructor drops the repeat.
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
    return _polyset_from_forms(cycle)


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
    square = _polyset_from_forms([(-m, -m, 1), (m, -m, 1), (m, m, 1), (-m, m, 1)])
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
    points are reduced integer forms (:func:`_hp_intersection_point`) and
    sides are the signs of their levels, so no ``Fraction`` is built until
    the vertices of the result.  Consecutive repeats of a point (rows
    through one vertex) are dropped.  Returns a polygon with at least three
    vertices, or None for an empty slab between antiparallel neighbors
    (input normals are distinct, so neighbors with parallel normals are
    antiparallel).  Raises :class:`_NeedsFallback` on ambiguous degenerate
    configurations and whenever a turn of the remaining cycle is zero
    (:func:`_turn`), which includes fewer than three points, since the
    deque can report an empty set as a point or segment; a clockwise turn
    is a ValueError from :func:`_polyset_from_forms`.
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
    points = [_hp_intersection_point(dq[i - 1], dq[i]) for i in range(len(dq))]
    # Rows through one point meet there more than once: drop the repeats.
    forms = [p for i, p in enumerate(points) if p != points[i - 1]]
    if not forms or any(_turn(forms[i - 2], forms[i - 1], p) == 0 for i, p in enumerate(forms)):
        raise _NeedsFallback
    return _polyset_from_forms(forms)


def _intersect_halfplanes(hps: Sequence[HalfPlane]) -> Optional[PolySet2]:
    """Permissive intersection: PolySet2 (possibly degenerate) or None.

    Raises :class:`UnboundedSet` when the (nonempty) intersection is
    unbounded.  Callers that must reject degenerate output wrap this.

    Bounded-shaped input (normals that positively span the plane) goes to
    the deque first; box clipping answers whenever the deque gives up or
    meets a zero turn.  Input whose normals leave a gap of at least pi has
    a recession direction, so it is unbounded unless empty, and box
    clipping decides which: a nonempty intersection always meets the box
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
