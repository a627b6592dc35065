"""Exact rational planar geometry.

Points, half-planes, orientation and intersection predicates, convex hulls
of integer points, the bounded 2D polyhedral-set type (a vertex cycle whose
edge half-planes are derived from it), and cutting such a set with a
half-plane or with a line.

All coordinates are exact rationals (`fractions.Fraction`, with an `int`
that is not a `bool` accepted anywhere a rational is expected; see
:func:`_integer`) and every predicate is computed exactly.  No floating
point is used anywhere in this package's core.

Conventions used throughout:

* A half-plane is ``a*x + c*y <= b`` with coprime integers ``(a, c)``.  Its
  sign is *not* canonicalized: orientation is meaning, ``(a, c)`` points out
  of the feasible side.
* A line is a half-plane's boundary ``a*x + c*y = b``; its offset ``b`` stays
  rational, and the line contains integer points iff ``b`` is an integer
  (given ``gcd(a, c) == 1``).
* A row ``(A, C, B)`` (:data:`Row`) is ``A*x + C*y <= B`` with integers
  ``A``, ``C``, ``B``, not necessarily primitive: the package's one line
  type, made from exact rationals only by :func:`_row`, whose callers are
  :func:`clip`, :func:`polyset_from_halfplanes` (the public doors that
  take a :class:`HalfPlane`) and ``instances.instance_to_polyset``.  A
  zero normal may enter only :func:`_intersect_halfplanes`, which decides
  it.  A half-plane is built only where the API returns one
  (:func:`line_through`, ``PolySet2.halfplanes``) and in
  ``hull_new.residual_regions``.  :func:`_normal` is the one rule for a
  CCW edge's outward normal.
* A :class:`PolySet2` with three or more vertices is a strictly convex
  counter-clockwise vertex cycle starting at the lexicographically smallest
  vertex; its ``halfplanes[i]``, derived on first use and cached, is the
  supporting half-plane of the edge ``vertices[i] -> vertices[i+1]``.  Sets
  with one or two vertices are degenerate (a point, or a segment with its
  ends in lex order) and have no half-planes.  One constructor,
  :func:`_polyset_from_forms`, puts reduced forms in this canonical form
  (or refuses them); every set the package builds comes from it, and
  ``PolySet2(...)`` accepts exactly its output.
* Every half-plane cut is one walk (:func:`_arc`) over the arc of a cycle
  on one side of a row, from a vertex found by descent (:func:`_deepest`):
  :func:`_clip` builds a set from the arc a row keeps, and the half-plane
  intersection (:func:`_cut`) splices the crossings over the arc it removes.
* A :class:`PolySet2` stores only the reduced integer form ``(X, Y, W)``,
  ``W > 0`` and ``gcd(X, Y, W) = 1``, of each vertex ``(X/W, Y/W)``
  (:func:`_form`).  Reduced forms are equal exactly when the points are, so
  equality and hashing read them; the ``Point2`` vertices are built from
  them on first read.  Edge directions, membership turns (:func:`_turn`),
  the hull chain's inline turns (an integer end is its own form ``(x, y,
  1)``), half-planes, areas, the cuts' levels ``A*X + C*Y - B*W`` and
  crossings and the sweep frames of :mod:`inthull.lattice` read the forms
  as a few integer products; ``Point2`` stays the public vertex type, and
  a vertex list is read as plain exact pairs (:func:`_spanned_polyset`).
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
from typing import Iterable, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import DegenerateSet, EmptySet, IdenticalPoints, UnboundedSet

Rational = Union[int, Fraction]
Form = Tuple[int, int, int]  # the integer form (X, Y, W), W > 0, of the point (X/W, Y/W)
Row = Tuple[int, int, int]  # a*x + c*y <= b in integers; rationals enter by _row; (a, c) != (0, 0) past _intersect_halfplanes


def _integer(value: object) -> int:
    """`value` if it is an exact integer, the package's one rule for the
    numbers it takes: an integer is an ``int`` that is not a ``bool``, and a
    rational (:func:`_frac`) is an integer or a ``Fraction``.  Anything else,
    a ``float``, a ``str`` or a ``bool`` among them, raises ``TypeError``;
    strings enter only through :func:`inthull.instances.parse_rational`."""
    if type(value) is not int:
        raise TypeError(f"expected an int, or a Fraction where a rational is allowed; got {type(value).__name__}")
    return value


def _frac(value: Rational) -> Fraction:
    """`value` as a Fraction, by the rule of :func:`_integer`."""
    return value if isinstance(value, Fraction) else Fraction(_integer(value))


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


@dataclass(frozen=True, init=False)
class HalfPlane:
    """The closed half-plane a*x + c*y <= b.

    (a, c) are reduced to coprime integers but the sign is preserved: the
    normal (a, c) points away from the feasible side.  b is rational.  The
    one constructor stores the checked, reduced fields in one write.
    """

    a: int
    c: int
    b: Fraction

    def __init__(self, a: int, c: int, b: Rational) -> None:
        a, c = _integer(a), _integer(c)
        if a == 0 and c == 0:
            raise ValueError("half-plane normal must be nonzero")
        b = _frac(b)
        g = gcd(a, c)
        object.__setattr__(self, "__dict__", {"a": a // g, "c": c // g, "b": b if g == 1 else b / g})


def _row(a: Rational, c: Rational, b: Rational) -> Row:
    """The integer row of a*x + c*y <= b for exact rationals: each times the
    one lcm of their denominators, in integer products.  The one rule from a
    rational inequality to a row, called by :func:`clip`,
    :func:`polyset_from_halfplanes` and ``instances.instance_to_polyset``;
    the row need not be primitive."""
    ad, cd, bd = a.denominator, c.denominator, b.denominator
    d = lcm(ad, cd, bd)
    return a.numerator * (d // ad), c.numerator * (d // cd), b.numerator * (d // bd)


class HullResult(tuple):
    """Canonical integer hull vertices: the tuple of their IntPoint2s.

    Forms: empty; one point; two points in lexicographic order; or three or
    more points in strictly convex counter-clockwise order starting at the
    lexicographically smallest point.
    """

    __slots__ = ()

    def __new__(cls, points: Iterable[Sequence[int]]) -> HullResult:
        return tuple.__new__(cls, [IntPoint2(index(p[0]), index(p[1])) for p in points])

    @property
    def points(self) -> Tuple[IntPoint2, ...]:
        """The vertices as a plain tuple."""
        return tuple(self)


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
    ``PolySet2(...)`` stores a canonical vertex list and its forms in one
    write; the package builds every set by :func:`_polyset_from_forms`.
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
        object.__setattr__(self, "__dict__", {"_forms": forms, "vertices": verts})

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

    @property
    def is_degenerate(self) -> bool:
        """True for a point or segment (fewer than 3 vertices)."""
        return len(self._forms) < 3


def _direction(p: Form, q: Form) -> Tuple[int, int]:
    """A positive integer multiple of q - p, from their integer forms."""
    return q[0] * p[2] - p[0] * q[2], q[1] * p[2] - p[1] * q[2]


def _turn(o: Form, a: Form, b: Form) -> int:
    """The cross product of _direction(o, a) and _direction(o, b): positive
    when o -> a -> b turns left, 0 when the three points are collinear.  The
    membership turn of :func:`contains`; the hull chain inlines its own."""
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
    """Monotone-chain convex hull (A. M. Andrew, IPL 9(5), 1979) of hashable
    exact rational (x, y) pairs, as the reduced integer forms of its
    vertices in strict CCW order from the lex-smallest point; fewer than
    three distinct points, or a collinear set, give the sorted distinct
    points or the two extremes.  Only a column's lowest and highest point
    can be a vertex: one pass keeps each column's ``[lo, hi]`` in a dict
    keyed by x (an int and an equal Fraction key one column), and only the
    distinct columns are sorted.  An integer end is its own form ``(x, y,
    1)``; only a rational one goes through :func:`_form`.  The lower chain
    runs over the lows by increasing x, the upper over the highs by
    decreasing x, and each turn o -> a -> f is the cross product of a - o
    and f - o from the forms, inline (left when positive, as W > 0).
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
    lows: list = []
    highs: list = []
    for x, (lo, hi) in sorted(columns.items(), key=itemgetter(0)):
        low = (x, lo, 1) if type(x) is int and type(lo) is int else _form((x, lo))
        lows.append(low)
        # An end moves only to a strictly smaller or larger y.
        highs.append(low if hi is lo else (x, hi, 1) if type(x) is int and type(hi) is int else _form((x, hi)))
    if len(lows) <= 1:  # no point, or one column's one or two ends
        return lows if highs == lows else lows + highs
    hull: list = []
    # Each chain drops its last end where the other starts, at a first or
    # last column of one point; so a collinear set leaves its two extremes.
    for run, shared in ((lows, highs[-1] is lows[-1]), (highs[::-1], highs[0] is lows[0])):
        chain: list = []
        for f in run:
            X, Y, W = f
            while len(chain) >= 2:
                (ox, oy, ow), (ax, ay, aw) = chain[-2], chain[-1]
                if (ax * ow - ox * aw) * (Y * ow - oy * W) > (ay * ow - oy * aw) * (X * ow - ox * W):
                    break
                chain.pop()
            chain.append(f)
        hull += chain[:-1] if shared else chain
    return hull


def convex_hull(points: Iterable[Sequence[int]]) -> HullResult:
    """Canonical convex hull of a finite set of integer points.

    The input is iterated once (any iterable that is not a list is first
    made one) and every coordinate is coerced by ``index`` in C-level
    ``map`` calls, with no Python frame per point: coordinates must be
    integers, and a ``Fraction`` or ``float`` anywhere raises ``TypeError``
    rather than being truncated to another lattice point.  The chain
    (:func:`_hull_chain`) takes each column end as its own form ``(x, y,
    1)``, and only the hull's vertices become :class:`IntPoint2` values.
    """
    if type(points) is not list:
        points = list(points)
    hull = _hull_chain(zip(map(index, map(itemgetter(0), points)), map(index, map(itemgetter(1), points))))
    return HullResult((X, Y) for X, Y, _ in hull)


def _normal(dx: int, dy: int) -> Tuple[int, int]:
    """The primitive outward normal of a CCW edge along the nonzero integer
    direction (dx, dy): (dy, -dx), to its right, over their gcd."""
    g = gcd(dx, dy)
    return dy // g, -dx // g


def _edge_halfplane(p: Form, q: Form) -> HalfPlane:
    """Supporting half-plane of the directed edge p -> q of a CCW polygon,
    from the integer forms of its ends (:func:`_normal`)."""
    a, c = _normal(*_direction(p, q))
    return HalfPlane(a, c, Fraction(a * p[0] + c * p[1], p[2]))


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


def _spanned_polyset(vertices: Iterable[Sequence[Rational]]) -> Optional[PolySet2]:
    """The canonical set spanned by exact rational points (None for none).

    Each point is read as a plain exact pair (:func:`_frac`), with no
    ``Point2``.  A list that is already a strictly convex CCW cycle is its
    own hull, and :func:`_polyset_from_forms` proves that in O(n) and
    rotates it to its lex-smallest vertex, so the points are first taken as
    listed.  Only a list that it refuses is hulled (:func:`_hull_chain`),
    from the same pairs; both ways give the same set.
    """
    points = [(_frac(p[0]), _frac(p[1])) for p in vertices]
    forms = list(map(_form, points))
    try:
        return _polyset_from_forms(forms)
    except ValueError:
        return _polyset_from_forms(_hull_chain(points))


def polyset_from_vertices(vertices: Sequence[Sequence[Rational]]) -> PolySet2:
    """The convex polygon spanned by the given points.

    Points strictly inside the hull of the others are dropped.  Raises
    :class:`DegenerateSet` when fewer than three distinct points remain or all
    points are collinear.
    """
    P = _spanned_polyset(vertices)
    if P is None or P.is_degenerate:
        raise DegenerateSet("need at least three distinct, not all collinear points")
    return P


def contains(P: PolySet2, p: Sequence[Rational]) -> bool:
    """Boundary-inclusive membership test: a polygon holds p when every CCW
    edge turns left or not at all to it (:func:`_turn`)."""
    p = point(p[0], p[1])
    form, forms = _form(p), P._forms
    if len(forms) == 1:
        return form == forms[0]
    if len(forms) == 2:
        u, w = P.vertices
        return _turn(*forms, form) == 0 and u <= p <= w
    return all(_turn(forms[i - 1], forms[i], form) >= 0 for i in range(len(forms)))


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


def _deepest(forms: Sequence[Form], a: int, c: int, hint: int) -> Tuple[int, Tuple[int, int]]:
    """A vertex j of the cycle `forms` where a*x + c*y is least, and that
    value as (num, den), den > 0, by local descent from vertex `hint`.

    The value is unimodal on a strictly convex cycle, so a vertex that
    neither neighbor undercuts is a minimum; the hint only changes how far
    the descent walks.  Each step reads a*X + c*Y and W from the next
    vertex's form in locals, with no call, and compares two values cross-
    multiplied; a half-plane's level a*x + c*y - b orders the vertices the
    same way.  The index is reduced mod n.
    """
    n = len(forms)
    j = hint % n
    X, Y, jw = forms[j]
    jn = a * X + c * Y
    for step in (1, -1):
        while True:
            k = (j + step) % n
            X, Y, W = forms[k]
            kn = a * X + c * Y
            if kn * jw >= jn * W:
                break
            j, jn, jw = k, kn, W
    return j, (jn, jw)


def _crossing(p: Form, lp: int, q: Form, lq: int) -> Form:
    """The reduced form of the point of segment pq at level 0, given the
    forms of p and q and their levels A*X + C*Y - B*W, of strictly opposite
    signs: lq*p - lp*q, whose W is positive when lp < 0 < lq."""
    px, py, pw = p
    qx, qy, qw = q
    return _reduced(lq * px - lp * qx, lq * py - lp * qy, lq * pw - lp * qw)


def _arc(forms: Sequence[Form], A: int, C: int, B: int, t: int, j: int, l_j: int) -> Optional[Tuple[int, int, list, list]]:
    """The arc of the cycle `forms` around vertex j where the integer level
    ``A*X + C*Y - B*W`` of each vertex form is at most t (l_j at j), as
    ``(start, end, head, tail)``; None when it is the whole cycle.

    The walk runs forward and backward from j while levels, read inline,
    stay at most t, so it costs the arc, not the cycle.  ``start <= j <=
    end`` are the arc's ends, not reduced mod n.  head and tail are ``[]``
    or the ``[form]`` where the row's line (level 0) crosses the edge into
    start or out of end strictly between its ends, built from its arc end
    first (:func:`_crossing`), so with W > 0.  A point or segment is the 1-
    or 2-cycle of its vertices, and a segment's two crossings are one point.
    """
    n = len(forms)
    end, l_end = j, l_j
    while True:
        if end - j == n - 1:
            return None
        X, Y, W = forms[(end + 1) % n]
        l_after = A * X + C * Y - B * W
        if l_after > t:
            break
        end, l_end = end + 1, l_after
    start, l_start = j, l_j
    while True:
        X, Y, W = forms[(start - 1) % n]
        l_before = A * X + C * Y - B * W
        if l_before > t:
            break
        start, l_start = start - 1, l_before
    head = [_crossing(forms[start % n], l_start, forms[(start - 1) % n], l_before)] if l_start < 0 < l_before else []
    tail = [_crossing(forms[end % n], l_end, forms[(end + 1) % n], l_after)] if l_end < 0 < l_after else []
    return start, end, head, tail


def clip(P: PolySet2, h: HalfPlane, hint: int = 0) -> Optional[PolySet2]:
    """P intersected with a half-plane; None when the intersection is empty
    (:func:`_clip` of h's row)."""
    return _clip(P, *_row(h.a, h.c, h.b), hint)


def _clip(P: PolySet2, A: int, C: int, B: int, hint: int) -> Optional[PolySet2]:
    """P intersected with the row A*x + C*y <= B; None when it is empty.

    The kept vertices are the arc (:func:`_arc`, t = 0) around the row's
    deepest vertex, found by a local descent from vertex `hint`
    (:func:`_deepest`), which changes only the speed, never the result.  So
    a clip costs the descent plus the kept arc, not a pass over P.  The arc
    and its crossings go to :func:`_polyset_from_forms`, which checks that
    the clip is strictly convex and returns fewer than three points as a
    degenerate PolySet2, not an error; it drops a segment's repeated crossing.
    """
    forms = P._forms
    j, (low, W) = _deepest(forms, A, C, hint)  # low = A*X + C*Y at j
    l_j = low - B * W
    if l_j > 0:
        return None
    arc = _arc(forms, A, C, B, 0, j, l_j)
    if arc is None:
        return P  # every vertex is kept
    start, end, head, tail = arc
    n = len(forms)
    return _polyset_from_forms([forms[k % n] for k in range(start, end + 1)] + tail + head)


def chord(P: PolySet2, row: Row) -> Optional[PolySet2]:
    """P cut by the line A*x + C*y = B of the row (A, C, B): a segment or
    a single point (as a degenerate PolySet2), or None when the line misses
    P; the clips by the row and by the row negated."""
    if P.is_degenerate:
        raise ValueError("chords require a polygon with at least 3 vertices")
    A, C, B = row
    below = _clip(P, A, C, B, 0)
    return None if below is None else _clip(below, -A, -C, -B, 0)


# ---------------------------------------------------------------------------
# Intersection of half-planes
# ---------------------------------------------------------------------------


def _angle_cmp(u: Sequence[int], w: Sequence[int]) -> int:
    """Compare integer vectors by angle, exactly (no trigonometry); a row
    (A, C, B) compares by its normal (A, C).

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


def _cut(cycle: list, A: int, C: int, B: int, hint: int) -> Optional[int]:
    """Cut the convex cycle of integer forms `cycle` by the row A*x + C*y <=
    B, in place; None when the row removes every vertex, else the index to
    start the next descent.

    The removed vertices are the arc (:func:`_arc`) where the row negated
    is at most -1, as levels are integers, around the row's top vertex,
    found by a descent from `hint`; the arc's crossings replace it.
    """
    top, (low, W) = _deepest(cycle, -A, -C, hint)  # low = -(A*X + C*Y) at the top
    l_top = low + B * W  # minus the top's level
    if l_top >= 0:
        return top  # every vertex is kept
    arc = _arc(cycle, -A, -C, -B, -1, top, l_top)
    if arc is None:
        return None  # every vertex is removed
    start, end, head, tail = arc
    n = len(cycle)
    s, removed = start % n, end - start + 1
    over = max(s + removed - n, 0)  # removed vertices at the head of the list
    cycle[s : s + removed] = head + tail
    del cycle[:over]
    return s - over


def _intersect_halfplanes(rows: Sequence[Row]) -> Optional[PolySet2]:
    """Permissive intersection of integer rows ``(A, C, B)``, each ``A*x +
    C*y <= B`` (:data:`Row`: a sweep's line, or :func:`_row` of an exact
    inequality; primitive or not): PolySet2 (possibly degenerate) or None.

    Raises :class:`UnboundedSet` when the (nonempty) intersection is
    unbounded, or when no row has a nonzero normal.  A zero-normal row ``0
    <= B``, which has no place in the angle order, is decided first: it
    empties the set when B < 0 and is dropped otherwise.

    A square of half-width m = 1 + 2 * max|B| * max(|A|, |C|) is cut by
    each row (:func:`_cut`).  A vertex of a bounded intersection solves two
    rows, whose determinant is a nonzero integer, so by Cramer's rule |x|
    and |y| are at most 2 * max|B| * max(|A|, |C|), whether or not the rows
    are primitive: it lies strictly inside the square.  A nonempty
    unbounded one has a point strictly inside (a vertex, or the point
    nearest the origin when all rows are parallel) and a ray from it, so a
    vertex of the cut square lies on the square's boundary.  Rows are cut
    in the angle order of their normals (:func:`_by_angle`): each row's top
    vertex is then at or just past the last cut's crossings, where its
    descent starts.  Shuffled, the facets of a 4000-gon cut ten times slower.
    """
    if any(B < 0 for A, C, B in rows if not A and not C):
        return None
    rows = [row for row in rows if row[0] or row[1]]
    if not rows:
        raise UnboundedSet("no constraints: the whole plane is unbounded")
    max_b = max(abs(B) for _, _, B in rows)
    max_ac = max(max(abs(A), abs(C)) for A, C, _ in rows)
    m = 1 + 2 * max_b * max_ac
    cycle = [(-m, -m, 1), (m, -m, 1), (m, m, 1), (-m, m, 1)]
    hint = 0
    for A, C, B in sorted(rows, key=_by_angle):
        hint = _cut(cycle, A, C, B, hint)
        if hint is None:
            return None
    if any(abs(X) == m * W or abs(Y) == m * W for X, Y, W in cycle):
        raise UnboundedSet("the intersection has a recession direction")
    return _polyset_from_forms(cycle)


def polyset_from_halfplanes(hps: Sequence[HalfPlane]) -> PolySet2:
    """The bounded 2D set defined by the half-planes.

    Raises :class:`EmptySet` for an empty intersection, :class:`UnboundedSet`
    for an unbounded one, and :class:`DegenerateSet` when the intersection is
    a point or segment.  Redundant half-planes are dropped.
    """
    result = _intersect_halfplanes([_row(h.a, h.c, h.b) for h in hps])
    if result is None:
        raise EmptySet("the half-plane intersection is empty")
    if result.is_degenerate:
        raise DegenerateSet("the half-plane intersection has no interior (a point or segment)")
    return result
