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
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import InvalidInstance
from .geom import (
    PolySet2,
    Rational,
    _frac,
    _integer,
    _intersect_halfplanes,
    _row,
    _spanned_polyset,
)

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[1-9][0-9]*)?")


def parse_rational(value: object) -> Fraction:
    """Exact rational from a JSON value: an int or a "p"/"p/q" string."""
    if type(value) is int:  # geom._integer's rule: a bool is not an integer
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL_RE.fullmatch(value):
            raise InvalidInstance(
                f"malformed rational {value!r} (write integers or \"p/q\")"
            )
        # The parts are validated ASCII numerals, so int() reads them once
        # more and no Fraction string parse is needed.
        num, slash, den = value.partition("/")
        try:
            return Fraction(int(num), int(den)) if slash else Fraction(int(num))
        except ValueError:  # a numeral over int()'s digit limit
            digits = max(len(num.lstrip("+-")), len(den))
            raise InvalidInstance(
                f"a numeral of {digits} digits is over int()'s limit of "
                f"{sys.get_int_max_str_digits()} digits"
            ) from None
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
    if _integer(places) < 0:
        raise ValueError("places must be >= 0")
    scaled = _round_half_away(_frac(value), 10**places)
    digits = str(abs(scaled))
    if places == 0:
        text = digits
    else:
        digits = digits.rjust(places + 1, "0")
        text = f"{digits[:-places]}.{digits[-places:]}"
    if scaled < 0:
        return "-" + text
    return text


def _round_half_away(value: Fraction, grid: int) -> int:
    """The integer nearest value * grid, a half rounded away from zero."""
    num, den = abs(value.numerator), value.denominator
    rounded = (2 * num * grid + den) // (2 * den)
    return -rounded if value.numerator < 0 else rounded


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


def _parse_pairs(data: dict, key: str, width: int) -> Optional[Tuple[Tuple[Fraction, ...], ...]]:
    if key not in data:
        return None
    raw = data[key]
    if not isinstance(raw, list) or not raw:
        raise InvalidInstance(f"'{key}' must be a non-empty list")
    rows: List[Tuple[Fraction, ...]] = []
    for entry in raw:
        if not isinstance(entry, list) or len(entry) != width:
            raise InvalidInstance(
                f"every '{key}' entry must be a list of {width} rationals, got {entry!r}"
            )
        rows.append(tuple(map(parse_rational, entry)))
    return tuple(rows)


def parse_instance(text: str) -> Instance:
    """Parse instance JSON text (strict schema, exact numbers)."""
    try:
        data = json.loads(text, parse_float=_reject_float, parse_constant=_reject_float)
    except json.JSONDecodeError as exc:
        raise InvalidInstance(f"not valid JSON: {exc}") from exc
    except ValueError as exc:  # a JSON integer over int()'s digit limit
        raise InvalidInstance(str(exc)) from exc
    if not isinstance(data, dict):
        raise InvalidInstance("instance file must contain a JSON object")
    unknown = set(data) - {"name", "vertices", "inequalities"}
    if unknown:
        raise InvalidInstance(f"unknown instance keys: {sorted(unknown)}")
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise InvalidInstance("'name' must be a string")
    # An absent payload is None, and Instance refuses neither or both.
    return Instance(name, _parse_pairs(data, "vertices", 2), _parse_pairs(data, "inequalities", 3))  # type: ignore[arg-type]


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
    gracefully to a segment or point; a list that is already a strictly
    convex counter-clockwise cycle is its own hull and is used as listed.
    Inequality instances are intersected as the integer rows ``geom._row``
    makes of the inequalities, read by ``geom._frac``'s exactness rule; a
    zero-normal row ``0 <= b`` is dropped when true and empties the set when
    false.  Unbounded inequality systems raise :class:`UnboundedSet`.
    """
    if inst.vertices is not None:
        return _spanned_polyset(inst.vertices)
    return _intersect_halfplanes([_row(*map(_frac, row)) for row in inst.inequalities])
