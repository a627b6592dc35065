"""Lattice machinery: chord sweeps, polygon columns and the lattice points
of segments.

This module answers the discrete questions the hull engines are built on:

* given a primitive integer direction (a, c), what is the lattice max or
  min of a*x + c*y over a polygon: the first integer level, sweeping a line
  across it from one side, whose chord holds a lattice point.  Every sweep
  is one call of ``_run_sweep``, and its hit carries the line it proves
  (``SweepHit.line``), so no caller rebuilds it from the direction it
  chose.  A facet sweep only picks the direction
  and the vertex its descent starts from (``_facet_direction``): the
  facet's normal, maximized from the facet (:func:`sweep_inward`) or, as in
  the paper, minimized from the opposite vertex (:func:`sweep_from_opposite`);
* which lattice points each integer column x = X of a polygon holds:
  ``_columns`` reads the same level walk as the sweeps, in x, and yields
  each column's lowest and highest lattice point, so a polygon costs
  O(columns + vertices) integer steps to enumerate;
* which lattice points a point or segment holds, such as a piece that a
  residual clip leaves behind: ``_lattice_extremes`` answers with the
  extreme ones, in the same integer frame the sweeps use.

The sweeps are exact but do not step line by line.  Each sweep works in a
unimodular coordinate frame ``t = a*x + c*y``, ``s = -v*x + u*y`` (where
``a*u + c*v = 1``), in which the chord at integer level ``t = T`` carries a
lattice point iff ``floor(s_hi(T)) >= ceil(s_lo(T))``.  The frame reads the
polygon's integer vertex forms (X, Y, W): t at a vertex is ``(a*X + c*Y)/W``.
``s_lo`` and ``s_hi`` run along the polygon's two boundary chains, which one
walk, ``_windows``, climbs from a minimum vertex (a sweep's descent finds it;
the column walk starts at vertex 0), only as far as its caller reads.  It
cuts the levels into windows at each edge end of either chain and yields
each with the two edges' lines, so ``_first_hit`` finds the first hitting
level of a window in one solve: a continued-fraction (Euclid-style)
descent on the two lines' slopes, as in two-variable integer programming, in
O(log) integer steps.  A sweep thus costs one solve per pair of edges
crossed, however many levels separate the facet from its first lattice
chord, and a polygon's far side is never visited when the hit is near.
Each vertex that the descent (``geom._deepest``) or a chain (``_climb``)
passes costs a few integer operations on its form in locals, with no
Python call; the calls left per sweep are one descent, one ``edge_line``
per edge that holds a level, one ``_first_hit`` per window and one
``SweepHit``, whose constructor stores its fields in one write.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Iterator, Optional, Sequence, Tuple

from .errors import GeometryError
from .geom import Form, IntPoint2, PolySet2, Row, _deepest, _direction, _integer, _normal


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """Sum of floor((a*i + b) / m) for i = 0 .. n-1, with m > 0.

    Runs in O(log) like the Euclidean algorithm; a and b may be negative.
    No engine calls it: the sweeps find their first lattice level without it.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if m <= 0:
        raise ValueError("m must be positive")
    ans = 0
    if a < 0:
        a2 = a % m
        ans -= n * (n - 1) // 2 * ((a2 - a) // m)
        a = a2
    if b < 0:
        b2 = b % m
        ans -= n * ((b2 - b) // m)
        b = b2
    while True:
        if a >= m:
            ans += n * (n - 1) // 2 * (a // m)
            a %= m
        if b >= m:
            ans += n * (b // m)
            b %= m
        y_max = a * n + b
        if y_max < m:
            return ans
        n = y_max // m
        b = y_max % m
        m, a = a, m


@dataclass(frozen=True, init=False)
class SweepHit:
    """The stopping chord of a sweep: its integer offset and the extreme
    lattice points on it (lexicographically ordered, possibly equal); the
    line (a, c, beta) the sweep proves, a*x + c*y <= beta at every lattice
    point of P with equality on the chord: the swept functional and its
    lattice max, or for a min sweep both negated, so beta is -offset; and
    the index of the vertex of P at which the swept levels begin (P's top
    vertex in the direction (a, c)), not part of the answer: the edge loop
    of ``hull_new`` starts a later sweep's descent between the vertices of
    the hits that found its edge's ends, so this one is a bracket end.  The
    one constructor stores the five fields as given, in one write."""

    offset: int
    lo: IntPoint2
    hi: IntPoint2
    line: Row
    vertex: int = field(compare=False)

    def __init__(self, offset: int, lo: IntPoint2, hi: IntPoint2, line: Row, vertex: int = 0) -> None:
        object.__setattr__(self, "__dict__", {"offset": offset, "lo": lo, "hi": hi, "line": line, "vertex": vertex})


# ---------------------------------------------------------------------------
# Facet sweeps
# ---------------------------------------------------------------------------


class _Frame:
    """Unimodular coordinates aligned with an integer direction (A, C).

    t = A*x + C*y, s = -v*x + u*y where A*u + C*v = 1.  The matrix has
    determinant +1, so counter-clockwise orientation is preserved and the
    inverse is x = u*t - C*s, y = v*t + A*s; integer (t, s) pairs correspond
    exactly to integer (x, y) points.  t and s at vertex j are over W_j.
    Its fields are slots, which :func:`_climb` reads into locals once per
    climb.
    """

    __slots__ = ("forms", "n", "A", "C", "u", "v")

    def __init__(self, forms: Sequence[Form], A: int, C: int) -> None:
        if gcd(A, C) != 1:
            raise ValueError("sweep direction must be a primitive integer vector")
        if C:  # u inverts A modulo |C|, so C divides 1 - A*u
            u = pow(A, -1, abs(C))
            v = (1 - A * u) // C
        else:  # A = +-1
            u, v = A, 0
        self.forms = forms
        self.n = len(forms)
        self.A, self.C, self.u, self.v = A, C, u, v

    def point_at(self, t: int, s: int) -> IntPoint2:
        return tuple.__new__(IntPoint2, (self.u * t - self.C * s, self.v * t + self.A * s))

    def edge_line(self, j: int, k: int) -> Tuple[int, int, int]:
        """Integer (p, q, r) in lowest terms, r > 0, with s = (p*t + q)/r on
        the line through vertices j and k (t differs).  With t, s = tj/wj,
        sj/wj at j and tk/wk, sk/wk at k, it is ((sk*wj - sj*wk)*t +
        sj*tk - sk*tj) / (tk*wj - tj*wk); read from the forms, with (dx, dy)
        = (xk*wj - xj*wk, yk*wj - yj*wk), that is ((u*dy - v*dx)*t + xk*yj -
        xj*yk) / (A*dx + C*dy), since A*u + C*v = 1."""
        xj, yj, wj = self.forms[j]
        xk, yk, wk = self.forms[k]
        dx, dy = xk * wj - xj * wk, yk * wj - yj * wk
        p, q, r = self.u * dy - self.v * dx, xk * yj - xj * yk, self.A * dx + self.C * dy
        if r < 0:
            p, q, r = -p, -q, -r
        g = gcd(p, q, r)
        return p // g, q // g, r // g


def _lattice_extremes(S: PolySet2) -> Tuple[IntPoint2, ...]:
    """The lexicographically extreme lattice points of a point or segment
    S: none, one, or both in lex order.

    A frame whose t runs along the segment's primitive normal holds the
    segment at one level t; lattice points exist iff that level is integral,
    and they are the integers s between the endpoints' s values.  The
    segment's direction d has s-component -v*d.x + u*d.y = gcd(d) > 0, so s
    and the lex order both grow from the first vertex to the last.
    """
    forms = S._forms
    dx, dy = _direction(forms[0], forms[-1])
    # A point lies on a line of every direction: take t = x, s = y.
    frame = _Frame(forms, *_normal(dx, dy)) if dx or dy else _Frame(forms, 1, 0)
    (X, Y, W), (Xq, Yq, Wq) = forms[0], forms[-1]
    t = frame.A * X + frame.C * Y  # the segment's one level, over W
    if t % W:
        return ()
    u, v = frame.u, frame.v
    s_first, s_last = -((v * X - u * Y) // W), (u * Yq - v * Xq) // Wq
    return tuple(frame.point_at(t // W, s) for s in sorted({s_first, s_last}) if s_first <= s_last)


Line = Tuple[int, int, int]


def _climb(frame: _Frame, j: int, t_j: Tuple[int, int], step: int, t: int) -> Optional[Tuple[int, Tuple[int, int], int, Line]]:
    """The first edge from vertex j (at t = t_j) up one boundary chain, by
    `step`, that holds integer level t: (its top vertex k, t at k as
    (num, den), floor of t at k, its line (p, q, r) with s = (p*T + q)/r).
    An edge on which t is constant holds no level of its own and is stepped
    over; None when t falls first, past the top of the chain.  A step reads
    t at the next vertex from its form, (A*X + C*Y)/W, in locals with no
    call; ``edge_line`` runs once, for the edge returned."""
    forms, n, A, C = frame.forms, frame.n, frame.A, frame.C
    tn, td = t_j
    while True:
        k = (j + step) % n
        X, Y, W = forms[k]
        kn = A * X + C * Y
        rise = kn * td - tn * W
        if rise < 0:
            return None
        end = kn // W
        if rise and end >= t:
            return k, (kn, W), end, frame.edge_line(j, k)
        j, tn, td = k, kn, W


def _windows(frame: _Frame, j: int, low: Tuple[int, int]) -> Iterator[Tuple[int, int, Line, Line]]:
    """(t, end, lower line, upper line) for each run [t, end] of integer
    levels on which both boundary chains of the polygon are a single edge,
    by increasing t, from a minimum vertex j of t, where t is `low` (num,
    den).  The lower chain leaves j counter-clockwise and the upper one
    clockwise, each stepping over a minimum face parallel to the levels; a
    chain ends where t falls, past the maximum face.  The runs start at the
    ceiling of the minimum, are cut at every edge end of either chain and
    stop where either chain passes the top, so they tile the polygon's
    integer levels.  Each edge's line is computed once, and only for an
    edge that holds an integer level.
    """
    t = -(-low[0] // low[1])  # ceil of the minimum
    lower, upper = _climb(frame, j, low, +1, t), _climb(frame, j, low, -1, t)
    while lower and upper:
        (lo, lo_t, lo_end, lo_line), (hi, hi_t, hi_end, hi_line) = lower, upper
        end = min(lo_end, hi_end)
        yield t, end, lo_line, hi_line
        t = end + 1
        if lo_end < t:
            lower = _climb(frame, lo, lo_t, +1, t)
        if hi_end < t:
            upper = _climb(frame, hi, hi_t, -1, t)


def _columns(P: PolySet2) -> Iterator[Tuple[int, int, int]]:
    """(x, lowest y, highest y) of every integer column of the polygon P
    that holds a lattice point, by increasing x: the window walk in the
    frame t = x, s = y, whose levels are the columns, entered at vertex 0,
    the lex-smallest and so a minimum of x, with no descent."""
    X, _, W = P._forms[0]
    for x0, end, (lp, lq, lr), (up, uq, ur) in _windows(_Frame(P._forms, 1, 0), 0, (X, W)):
        for x in range(x0, end + 1):
            y_lo, y_hi = -(-(lp * x + lq) // lr), (up * x + uq) // ur
            if y_lo <= y_hi:
                yield x, y_lo, y_hi


def _first_hit(lp: int, lq: int, lr: int, up: int, uq: int, ur: int, n: int) -> Optional[int]:
    """Least T in [0, n] with ceil((lp*T + lq)/lr) <= floor((up*T + uq)/ur),
    or None; lr, ur > 0, and the lower line lies on or below the upper on
    [0, n].

    A continued-fraction (Euclid-style) descent.  When T = 0 misses, its
    chord lies inside the open interval (c-1, c).  A shear s -> s - k*T
    keeps the levels and moves the lower slope into [0, 1).  If then the
    lower line does not rise and the upper does not fall (after one more
    shear when the upper slope is >= 1), the first hit is where the upper
    line reaches c or the lower one reaches c-1.  Otherwise the lower slope
    lies in (0, 1) and the axes swap: the least s in [c, floor(U(n))] for
    which some integer T lies in [U^-1(s), L^-1(s)] gives the least level,
    T = ceil(U^-1(s)).  That range is empty unless the upper slope lies in
    (0, 1) too, and then it is the same problem, with the inverse upper
    line below the inverse lower one, and both denominators shrink.
    """
    back = []  # (p, q, r, c) of each swapped problem's upper line, for the way back
    while True:
        c = -(-lq // lr)  # ceil of the lower line at T = 0
        if c * ur <= uq:
            T = 0
            break
        k = lp // lr
        lp, up = lp - k * lr, up - k * ur
        if lp == 0 or up >= ur:
            if up >= ur:
                lp, up = lp - lr, up - ur
            # The chord only widens: the first level that reaches c or c-1.
            reach = [-((uq - c * ur) // up)] if up > 0 else []
            if lp < 0:
                reach.append(-(((c - 1) * lr - lq) // -lp))
            if not reach or min(reach) > n:
                return None
            T = min(reach)
            break
        m = (up * n + uq) // ur - c  # the last s, floor(U(n)), less c
        if m < 0:  # also whenever the upper line does not rise
            return None
        back.append((up, uq, ur, c))
        lp, lq, lr, up, uq, ur, n = ur, ur * c - uq, up, lr, lr * c - lq, lp, m
    for up, uq, ur, c in reversed(back):
        T = -((uq - ur * (T + c)) // up)  # ceil(U^-1(s)) at s = T + c
    return T


def _run_sweep(P: PolySet2, a: int, c: int, top: bool, hint: int) -> Optional[SweepHit]:
    """The lattice max (`top`) or min of a*x + c*y over the polygon P, for
    a primitive (a, c): the hit at that level, with its chord's extreme
    lattice points, or None when P has no lattice point.

    The sweep scans the levels T of a*x + c*y (of -a*x - c*y for the max,
    reporting -T) upward from their minimum over P, which a descent from
    vertex `hint` finds (the hint changes only its speed), and stops at
    the first whose chord holds a lattice point.  Each window of the walk
    (``_windows``) costs one ``_first_hit`` solve, however many levels it
    spans.  The first hit level t of the scanned functional A*x + C*y
    proves A*x + C*y >= t at every lattice point of P: the hit reports that
    as its line (-A, -C, -t), with the vertex where the descent ended.
    """
    if len(P._forms) < 3:
        raise ValueError("sweeps require a polygon with at least 3 vertices")
    sign = -1 if top else 1
    frame = _Frame(P._forms, sign * a, sign * c)
    j, low = _deepest(frame.forms, frame.A, frame.C, hint)
    for t, end, (lp, lq, lr), (up, uq, ur) in _windows(frame, j, low):
        level = _first_hit(lp, lp * t + lq, lr, up, up * t + uq, ur, end - t)
        if level is not None:
            break
    else:
        return None  # past the top: no chord holds a lattice point

    t += level
    s_first = -(-(lp * t + lq) // lr)  # ceil of s on the lower chain
    s_last = (up * t + uq) // ur  # floor of s on the upper chain
    if s_first > s_last:
        raise GeometryError(f"sweep stopped at level {t}, whose chord holds no lattice point")
    lo_pt, hi_pt = frame.point_at(t, s_first), frame.point_at(t, s_last)
    if hi_pt < lo_pt:
        lo_pt, hi_pt = hi_pt, lo_pt
    return SweepHit(sign * t, lo_pt, hi_pt, (-frame.A, -frame.C, -t), j)


def _facet_direction(P: PolySet2, facet_index: int, inward: bool) -> Tuple[int, int, bool, int]:
    """The (a, c, top, hint) of a facet sweep: the facet's primitive outward
    normal (:func:`geom._normal`) from the forms of its two ends, maximized
    from the facet (inward) or minimized from the opposite vertex, as in
    the paper.  The index is an integer (:func:`geom._integer`) in [0, n)
    for P's n facets; any other raises TypeError or IndexError."""
    forms, n = P._forms, len(P._forms)
    if n < 3:
        raise ValueError("facet sweeps require a polygon with at least 3 vertices")
    if not 0 <= _integer(facet_index) < n:
        raise IndexError(f"facet index {facet_index} is out of range for a polygon of {n} facets")
    a, c = _normal(*_direction(forms[facet_index], forms[(facet_index + 1) % n]))
    return a, c, inward, facet_index if inward else facet_index + (n + 1) // 2


def sweep_inward(P: PolySet2, facet_index: int) -> Optional[SweepHit]:
    """Translate facet line `facet_index` toward the interior of P until its
    chord contains a lattice point of P: the largest integer b' whose chord
    P ∩ {a*x + c*y = b'} does, with the extreme ones; None iff P contains no
    integer points."""
    return _run_sweep(P, *_facet_direction(P, facet_index, True))


def sweep_from_opposite(P: PolySet2, facet_index: int) -> Optional[SweepHit]:
    """Translate facet line `facet_index` from the opposite side of P toward
    the facet until its chord contains a lattice point of P: the lattice
    minimum of a*x + c*y over P, with the extreme lattice points of its
    chord; None iff P contains no integer points."""
    return _run_sweep(P, *_facet_direction(P, facet_index, False))
