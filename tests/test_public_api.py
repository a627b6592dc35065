"""The package's public names are pinned, so that one is added or dropped
only on purpose.  A name that only tests use is imported from its module."""

from __future__ import annotations

import inthull

PUBLIC = {
    "__version__",
    # errors
    "GeometryError",
    "IdenticalPoints",
    "DegenerateSet",
    "EmptySet",
    "UnboundedSet",
    "BudgetExceeded",
    "SweepLimitExceeded",
    "InvalidInstance",
    # geometry
    "Rational",
    "Point2",
    "IntPoint2",
    "point",
    "HalfPlane",
    "HullResult",
    "PolySet2",
    "line_through",
    "convex_hull",
    "polyset_from_vertices",
    "polyset_from_halfplanes",
    "contains",
    "area",
    "clip",
    # lattice
    "SweepHit",
    "sweep_inward",
    "sweep_from_opposite",
    # engines
    "RefineConfig",
    "integer_hull_new",
    "normalize_facets",
    "integer_hull_baseline",
    "RunStats",
    "enumerate_integer_points",
    "integer_hull_oracle",
    # instances
    "Instance",
    "parse_rational",
    "format_rational",
    "format_decimal",
    "parse_instance",
    "dump_instance",
    "load_instance",
    "save_instance",
    "instance_to_polyset",
}


def test_public_names_are_pinned():
    assert len(inthull.__all__) == len(set(inthull.__all__))
    assert set(inthull.__all__) == PUBLIC


def test_every_public_name_resolves():
    missing = [name for name in inthull.__all__ if not hasattr(inthull, name)]
    assert missing == []
