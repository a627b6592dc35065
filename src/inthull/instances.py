"""Instance file I/O and exact number formatting.

An instance is a JSON object with a mandatory payload under exactly one of
two keys, plus an optional ``name``:

* ``"vertices"``: a list of ``[x, y]`` pairs — the set is the convex hull of
  the points (degenerate lists describing a point or segment are accepted);
* ``"inequalities"``: a list of ``[a, c, b]`` triples meaning
  ``a*x + c*y <= b``.

Every number is either a JSON integer or a string of the form ``"p"`` or
``"p/q"``.  Floating-point literals are rejected outright — all parsing and
all formatting in this module is exact.  :func:`dump_instance` emits a
canonical form (fixed key order, canonical rational strings, two-space
indent), so parse → dump is a normalizing round trip.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import List, Optional, Tuple

from .errors import InvalidInstance
from .geom import (
    HalfPlane,
    PolySet2,
    Rational,
    _degenerate_polyset,
    _form,
    _frac,
    _hull_chain,
    _intersect_halfplanes,
    _polyset_from_cycle,
    point,
)

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[1-9][0-9]*)?")


def parse_rational(value: object) -> Fraction:
    """Exact rational from a JSON value: an int or a "p"/"p/q" string."""
    if isinstance(value, bool):
        raise InvalidInstance(f"expected a rational number, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL_RE.fullmatch(value):
            raise InvalidInstance(
                f"malformed rational {value!r} (write integers or \"p/q\")"
            )
        return Fraction(value)
    raise InvalidInstance(f"expected a rational number, got {value!r}")


def format_rational(value: Rational) -> str:
    """Canonical string for a rational: "p" when integral, else "p/q"."""
    return str(_frac(value))


def format_decimal(value: Rational, places: int = 6) -> str:
    """Fixed-point decimal string, rounded half away from zero, exactly.

    Computed with integer arithmetic only; used everywhere a human-facing
    decimal is needed (CSV area column, SVG coordinates) so output bytes are
    deterministic across platforms.
    """
    if places < 0:
        raise ValueError("places must be >= 0")
    fr = _frac(value)
    negative = fr < 0
    num, den = abs(fr.numerator), fr.denominator
    scaled = (2 * num * 10**places + den) // (2 * den)
    digits = str(scaled)
    if places == 0:
        text = digits
    else:
        digits = digits.rjust(places + 1, "0")
        text = f"{digits[:-places]}.{digits[-places:]}"
    if negative and scaled > 0:
        return "-" + text
    return text


@dataclass(frozen=True)
class Instance:
    """A parsed instance file: a name plus exactly one payload."""

    name: Optional[str]
    vertices: Optional[Tuple[Tuple[Fraction, Fraction], ...]] = None
    inequalities: Optional[Tuple[Tuple[Fraction, Fraction, Fraction], ...]] = None

    def __post_init__(self) -> None:
        if (self.vertices is None) == (self.inequalities is None):
            raise InvalidInstance(
                "an instance needs exactly one of 'vertices' or 'inequalities'"
            )


def _reject_float(text: str) -> None:
    raise InvalidInstance(
        f"floating-point literal {text!r} is not allowed; write \"p/q\" strings"
    )


def _parse_pairs(raw: object, key: str, width: int) -> List[Tuple[Fraction, ...]]:
    if not isinstance(raw, list) or not raw:
        raise InvalidInstance(f"'{key}' must be a non-empty list")
    rows: List[Tuple[Fraction, ...]] = []
    for entry in raw:
        if not isinstance(entry, list) or len(entry) != width:
            raise InvalidInstance(
                f"every '{key}' entry must be a list of {width} rationals, got {entry!r}"
            )
        rows.append(tuple(parse_rational(v) for v in entry))
    return rows


def parse_instance(text: str) -> Instance:
    """Parse instance JSON text (strict schema, exact numbers)."""
    try:
        data = json.loads(text, parse_float=_reject_float, parse_constant=_reject_float)
    except json.JSONDecodeError as exc:
        raise InvalidInstance(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidInstance("instance file must contain a JSON object")
    unknown = set(data) - {"name", "vertices", "inequalities"}
    if unknown:
        raise InvalidInstance(f"unknown instance keys: {sorted(unknown)}")
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise InvalidInstance("'name' must be a string")
    has_v = "vertices" in data
    has_i = "inequalities" in data
    if has_v == has_i:
        raise InvalidInstance(
            "an instance needs exactly one of 'vertices' or 'inequalities'"
        )
    if has_v:
        rows = _parse_pairs(data["vertices"], "vertices", 2)
        return Instance(name, vertices=tuple(rows))  # type: ignore[arg-type]
    rows = _parse_pairs(data["inequalities"], "inequalities", 3)
    return Instance(name, inequalities=tuple(rows))  # type: ignore[arg-type]


def load_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as f:
        return parse_instance(f.read())


def dump_instance(inst: Instance) -> str:
    """Canonical JSON text for an instance (stable bytes for golden tests)."""
    data: dict = {}
    if inst.name is not None:
        data["name"] = inst.name
    if inst.vertices is not None:
        data["vertices"] = [[format_rational(x), format_rational(y)] for x, y in inst.vertices]
    else:  # an Instance holds exactly one of the two payloads
        data["inequalities"] = [
            [format_rational(a), format_rational(c), format_rational(b)]
            for a, c, b in inst.inequalities
        ]
    return json.dumps(data, indent=2) + "\n"


def save_instance(inst: Instance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(dump_instance(inst))


def instance_to_polyset(inst: Instance) -> Optional[PolySet2]:
    """Build the polyhedral set an instance describes (None = empty set).

    Vertex instances take the convex hull of the points, degenerating
    gracefully to a segment or point.  Inequality instances are intersected;
    rational coefficients are scaled to the canonical integer normal form,
    trivially true rows are dropped, and a trivially false row makes the set
    empty.  Unbounded inequality systems raise :class:`UnboundedSet`.
    """
    if inst.vertices is not None:
        chain = [_form(p) for p in _hull_chain(point(x, y) for x, y in inst.vertices)]
        return _polyset_from_cycle(chain) if len(chain) >= 3 else _degenerate_polyset(chain)
    halfplanes: List[HalfPlane] = []
    for a, c, b in inst.inequalities:
        if a == 0 and c == 0:
            if b < 0:
                return None  # 0 <= b fails: the set is empty
            continue
        mult = lcm(a.denominator, c.denominator)
        halfplanes.append(HalfPlane(int(a * mult), int(c * mult), b * mult))
    return _intersect_halfplanes(halfplanes)
