"""Lattice machinery: chord sweeps, polygon columns and the lattice points
of segments.

This module answers the discrete questions the hull engines are built on:

* given a polygon facet, what is the first integer offset — sweeping the
  facet line parallel to itself — whose chord through the polygon contains a
  lattice point (:func:`sweep_inward` from the facet toward the interior,
  :func:`sweep_from_opposite` from the far side toward the facet);
* which lattice points each integer column x = X of a polygon holds:
  ``_columns`` reads the same level walk as the sweeps, in x, and yields
  each column's lowest and highest lattice point, so a polygon costs
  O(columns + vertices) integer steps to enumerate;
* which lattice points a point or segment holds, such as a piece that a
  residual clip leaves behind: ``_lattice_extremes`` answers with the
  extreme ones, in the same integer frame the sweeps use.

Every facet sweep is one call of ``_run_sweep``, whichever way it runs.  It
reads the facet's normal from its ends' integer forms and descends to the
minimum from the facet (inward) or, as in the paper, from the opposite vertex.
The sweeps are exact but do not step line by line.  Each sweep works in a
unimodular coordinate frame ``t = a*x + c*y``, ``s = -v*x + u*y`` (where
``a*u + c*v = 1``), in which the chord at integer level ``t = T`` carries a
lattice point iff ``floor(s_hi(T)) >= ceil(s_lo(T))``.  The frame reads the
polygon's integer vertex forms (X, Y, W): t at a vertex is ``(a*X + c*Y)/W``.
``s_lo`` and ``s_hi`` run along the polygon's two boundary chains, which one
walk, ``_windows``, climbs from the minimum vertex, only as far as its caller
reads.  It cuts the levels into windows at each edge end of either chain and
yields each with the two edges' lines, so ``_first_hit`` finds the first
hitting level of a window in one solve: a continued-fraction (Euclid-style)
descent on the two lines' slopes, as in two-variable integer programming, in
O(log) integer steps.  A sweep thus costs one solve per pair of edges
crossed, however many levels separate the facet from its first lattice
chord, and a polygon's far side is never visited when the hit is near.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import index
from typing import Iterator, Optional, Sequence, Tuple

from .errors import GeometryError, SweepLimitExceeded
from .geom import Form, IntPoint2, PolySet2, _deepest, _direction


def egcd(a: int, c: int) -> Tuple[int, int, int]:
    """Extended Euclid: (g, u, v) with g = gcd(|a|, |c|) > 0 and a*u + c*v = g."""
    if a == 0 and c == 0:
        raise ValueError("egcd(0, 0) is undefined")
    sign_a = 1 if a >= 0 else -1
    sign_c = 1 if c >= 0 else -1
    old_r, r = abs(a), abs(c)
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, sign_a * old_s, sign_c * old_t


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """Sum of floor((a*i + b) / m) for i = 0 .. n-1, with m > 0.

    Runs in O(log) like the Euclidean algorithm; a and b may be negative.
    A public helper: the sweeps find their first lattice level without it.
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


@dataclass(frozen=True)
class SweepHit:
    """The stopping chord of a sweep: its integer offset and the extreme
    lattice points on it (lexicographically ordered, possibly equal)."""

    offset: int
    lo: IntPoint2
    hi: IntPoint2


# ---------------------------------------------------------------------------
# Facet sweeps
# ---------------------------------------------------------------------------


class _Frame:
    """Unimodular coordinates aligned with an integer direction (A, C).

    t = A*x + C*y, s = -v*x + u*y where A*u + C*v = 1.  The matrix has
    determinant +1, so counter-clockwise orientation is preserved and the
    inverse is x = u*t - C*s, y = v*t + A*s; integer (t, s) pairs correspond
    exactly to integer (x, y) points.  t and s at vertex j are over W_j.
    """

    def __init__(self, forms: Sequence[Form], A: int, C: int) -> None:
        g, u, v = egcd(A, C)
        if g != 1:
            raise ValueError("sweep direction must be a primitive integer vector")
        self.forms = forms
        self.n = len(forms)
        self.A, self.C, self.u, self.v = A, C, u, v

    def t_pair(self, j: int) -> Tuple[int, int]:
        """t at vertex j mod n as (num, den) with den > 0."""
        X, Y, W = self.forms[j % self.n]
        return self.A * X + self.C * Y, W

    def s_pair(self, j: int) -> Tuple[int, int]:
        """s at vertex j mod n as (num, den) with den > 0."""
        X, Y, W = self.forms[j % self.n]
        return self.u * Y - self.v * X, W

    def point_at(self, t: int, s: int) -> IntPoint2:
        return IntPoint2(self.u * t - self.C * s, self.v * t + self.A * s)

    def edge_line(self, j: int, k: int) -> Tuple[int, int, int]:
        """Integer (p, q, r) in lowest terms, r > 0, with s = (p*t + q)/r on
        the line through vertices j and k (t differs); with t, s = tj/wj,
        sj/wj at j and tk/wk, sk/wk at k, it is ((sk*wj - sj*wk)*t +
        sj*tk - sk*tj) / (tk*wj - tj*wk)."""
        A, C, u, v = self.A, self.C, self.u, self.v
        xj, yj, wj = self.forms[j]
        xk, yk, wk = self.forms[k]
        tj, sj = A * xj + C * yj, u * yj - v * xj
        tk, sk = A * xk + C * yk, u * yk - v * xk
        p, q, r = sk * wj - sj * wk, sj * tk - sk * tj, tk * wj - tj * wk
        if r < 0:
            p, q, r = -p, -q, -r
        g = gcd(gcd(p, q), r)
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
    g = gcd(dx, dy)
    # A point lies on a line of every direction: take t = x, s = y.
    frame = _Frame(forms, dy // g, -dx // g) if g else _Frame(forms, 1, 0)
    tn, td = frame.t_pair(0)
    if tn % td:
        return ()
    (pn, pd), (qn, qd) = frame.s_pair(0), frame.s_pair(-1)
    s_first, s_last = -(-pn // pd), qn // qd
    return tuple(frame.point_at(tn // td, s) for s in sorted({s_first, s_last}) if s_first <= s_last)


Line = Tuple[int, int, int]


def _climb(frame: _Frame, j: int, t_j: Tuple[int, int], step: int, t: int) -> Optional[Tuple[int, Tuple[int, int], int, Line]]:
    """The first edge from vertex j (at t = t_j) up one boundary chain, by
    `step`, that holds integer level t: (its top vertex k, t at k as
    (num, den), floor of t at k, its line (p, q, r) with s = (p*T + q)/r).
    An edge on which t is constant holds no level of its own and is stepped
    over; None when t falls first, past the top of the chain."""
    n = frame.n
    while True:
        k = (j + step) % n
        t_k = frame.t_pair(k)
        rise = t_k[0] * t_j[1] - t_j[0] * t_k[1]
        if rise < 0:
            return None
        end = t_k[0] // t_k[1]
        if rise and end >= t:
            return k, t_k, end, frame.edge_line(j, k)
        j, t_j = k, t_k


def _windows(frame: _Frame, hint: int) -> Iterator[Tuple[int, int, Line, Line]]:
    """(t, end, lower line, upper line) for each run [t, end] of integer
    levels on which both boundary chains of the polygon are a single edge,
    by increasing t.

    The walk descends from vertex `hint` to a minimum vertex of t
    (:func:`geom._deepest`; the hint changes only the speed).  The lower
    chain leaves it counter-clockwise and the upper one clockwise, each
    stepping over a minimum face parallel to the levels, and a chain ends
    where t falls, past the maximum face.  The runs start at the ceiling of
    the minimum, are cut at every edge end of either chain and stop where
    either chain passes the top, so they tile the polygon's integer levels.
    Each edge's line is computed once, and only for an edge that holds an
    integer level.
    """
    j, low = _deepest(frame.t_pair, hint)
    j %= frame.n
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
    frame t = x, s = y, whose levels are the columns."""
    for x0, end, (lp, lq, lr), (up, uq, ur) in _windows(_Frame(P._forms, 1, 0), 0):
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


def _check_max_sweep(max_sweep: Optional[int]) -> None:
    """The one check of a sweep limit, run by every engine and sweep: None or
    an integer >= 0, else TypeError (non-integer) or ValueError."""
    if max_sweep is not None and index(max_sweep) < 0:
        raise ValueError(f"max_sweep must be >= 0, got {max_sweep}")


def _run_sweep(
    P: PolySet2,
    facet_index: int,
    inward: bool,
    *,
    max_sweep: Optional[int] = None,
) -> Optional[SweepHit]:
    """Sweep one facet: the first integer level T of the swept functional,
    scanning upward from its minimum over P, whose chord through P contains
    a lattice point.

    The facet's primitive outward normal (a, c) comes from the integer
    forms of its two ends.  Inward sweeps scan -a*x - c*y (maximizing the
    facet functional a*x + c*y over the lattice) and report the offset -T;
    sweeps from the opposite side scan a*x + c*y and report T.  Returns the
    hit with its extreme lattice points, or None when no chord in the
    polygon's range holds one (then P has no lattice points at all, since
    every lattice point of P lies on some integer-level chord).  The
    descent to the minimum starts at the facet itself (inward) or, as in
    the paper, at the vertex opposite it.  Each window of the walk
    (``_windows``) costs one ``_first_hit`` solve; the window that reaches
    past the ``max_sweep`` limit (an integer >= 0: TypeError or ValueError
    otherwise) is cut at it, and raises when it holds no hit.
    """
    forms = P._forms
    n = len(forms)
    if n < 3:
        raise ValueError("facet sweeps require a polygon with at least 3 vertices")
    _check_max_sweep(max_sweep)
    dx, dy = _direction(forms[facet_index], forms[(facet_index + 1) % n])
    g = gcd(dx, dy)
    sign = -1 if inward else 1
    # The outward normal of a CCW edge with direction (dx, dy) is (dy, -dx).
    frame = _Frame(forms, sign * dy // g, -sign * dx // g)
    # The last level within the limit, once the first window gives the
    # ceiling of the minimum; no solve reaches past it.
    t_limit = None
    for t, end, (lp, lq, lr), (up, uq, ur) in _windows(frame, facet_index if inward else facet_index + n // 2):
        if t_limit is None and max_sweep is not None:
            t_limit = t + max_sweep - 1
        capped = t_limit is not None and end > t_limit
        if capped:
            end = t_limit
        level = _first_hit(lp, lp * t + lq, lr, up, up * t + uq, ur, end - t) if t <= end else None
        if level is not None:
            break
        if capped:
            raise SweepLimitExceeded(f"sweep would take more than {max_sweep} offset translations")
    else:
        # Past the top: no chord holds a lattice point.  Every level scanned
        # was within the limit, and an empty range of levels is no sweep.
        return None

    t += level
    s_first = -(-(lp * t + lq) // lr)  # ceil of s on the lower chain
    s_last = (up * t + uq) // ur  # floor of s on the upper chain
    if s_first > s_last:
        raise GeometryError(f"sweep stopped at level {t}, whose chord holds no lattice point")
    lo_pt, hi_pt = sorted((frame.point_at(t, s_first), frame.point_at(t, s_last)))
    return SweepHit(sign * t, lo_pt, hi_pt)


def sweep_inward(P: PolySet2, facet_index: int, *, max_sweep: Optional[int] = None) -> Optional[SweepHit]:
    """Translate facet line `facet_index` toward the interior of P until its
    chord contains a lattice point of P.

    The returned offset is the largest integer b' <= the facet offset whose
    chord P ∩ {a*x + c*y = b'} contains integer points; lo/hi are the extreme
    ones on that chord.  Returns None iff P contains no integer points.
    With ``max_sweep`` set (an integer >= 0, else TypeError or ValueError), raises
    :class:`SweepLimitExceeded` as soon as the answer is known to lie more
    than that many offsets away from the facet, before searching further.
    """
    return _run_sweep(P, facet_index, inward=True, max_sweep=max_sweep)


def sweep_from_opposite(P: PolySet2, facet_index: int, *, max_sweep: Optional[int] = None) -> Optional[SweepHit]:
    """Translate facet line `facet_index` from the opposite side of P toward
    the facet until its chord contains a lattice point of P.

    The returned offset is the smallest integer b' >= the minimum of
    a*x + c*y over P whose chord contains integer points (the lattice minimum
    in the facet direction).  Returns None iff P contains no integer points.
    """
    return _run_sweep(P, facet_index, inward=False, max_sweep=max_sweep)
