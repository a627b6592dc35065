"""An integer-hull certificate that needs no oracle.

H equals conv(P ∩ Z²) exactly when (a) H is a canonical hull whose vertices
are lattice points of P, and (b) for every edge of H with outward integer
functional f and offset b, the part of P where f >= b + 1 holds no lattice
point.  (b) says every lattice point of P satisfies every edge inequality of
H, so it lies in H.  A point or segment hull has no such edges; it is
checked in the directions normal to and along its line instead.

Lattice-freeness of a polygon is one facet sweep (``sweep_inward`` returns
None exactly when the set has no integer points), so a certificate costs one
``clip`` and one sweep per hull edge, whatever the size of the coordinates.
Only public API of the library is used; it is passed in as ``lib`` (the
``inthull`` package) so that the check uses the same library objects as the
engines it checks.
"""

from __future__ import annotations

from math import gcd
from typing import List, Optional, Sequence, Tuple

# A point or segment is enumerated along its own lattice, so the cell count
# of its bounding box does not bound the cost: lift the budget for them.
_NO_CELL_BUDGET = 10**400


def _lattice_free(lib, Q) -> bool:
    if Q is None:
        return True
    if Q.is_degenerate:
        return not lib.enumerate_integer_points(Q, budget=_NO_CELL_BUDGET)
    return lib.sweep_inward(Q, 0) is None


def _nothing_beyond(lib, P, a: int, c: int, level: int) -> bool:
    """No lattice point of P has a*x + c*y >= level (a, c coprime)."""
    if P is None:
        return True
    return _lattice_free(lib, lib.clip(P, lib.HalfPlane(-a, -c, -level)))


def _directions(lib, pts: Sequence[Tuple[int, int]]) -> List[Tuple[int, int, int]]:
    """(a, c, b): coprime functionals with b the maximum of a*x + c*y over
    the hull, one per check the hull shape needs."""
    if len(pts) == 1:
        (x, y), = pts
        return [(1, 0, x), (-1, 0, -x), (0, 1, y), (0, -1, -y)]
    if len(pts) == 2:
        u, w = pts
        line = lib.line_through(u, w)
        a, c, b = line.a, line.c, int(line.b)
        along = sorted((c * u[0] - a * u[1], c * w[0] - a * w[1]))
        return [(a, c, b), (-a, -c, -b), (c, -a, along[1]), (-c, a, -along[0])]
    out = []
    n = len(pts)
    for i in range(n):
        (ux, uy), (wx, wy) = pts[i], pts[(i + 1) % n]
        # The outward normal of a CCW edge with direction d is (d.y, -d.x).
        a, c = wy - uy, ux - wx
        g = gcd(a, c)
        a, c = a // g, c // g
        out.append((a, c, a * ux + c * uy))
    return out


def certify(lib, P, hull) -> Optional[str]:
    """None when `hull` is the integer hull of the polygon P (a PolySet2 or
    None), else the reason it is not."""
    pts = [tuple(p) for p in hull]
    if lib.convex_hull(pts) != hull:
        return "hull is not in canonical form"
    for p in pts:
        if P is None or not lib.contains(P, p):
            return f"vertex {p} is not a lattice point of P"
    if not pts:
        return None if _lattice_free(lib, P) else "P has lattice points but the hull is empty"
    for a, c, b in _directions(lib, pts):
        if not _nothing_beyond(lib, P, a, c, b + 1):
            return f"P has a lattice point with {a}*x + {c}*y >= {b + 1} outside the hull"
    return None
