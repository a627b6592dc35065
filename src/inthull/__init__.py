"""inthull — exact integer hulls of bounded 2D rational polyhedral sets.

The package computes the convex hull of the integer points of a bounded
polygon with exact rational arithmetic throughout.  Three engines share one
canonical result type: a facet-sweep engine that then sweeps each
partial-hull edge its ends' sweeps leave open (:func:`integer_hull_new`),
a facet-normalization engine with corner enumeration
(:func:`integer_hull_baseline`), and a direct-enumeration oracle
(:func:`integer_hull_oracle`) that defines ground truth.
"""

from .errors import (
    BudgetExceeded,
    DegenerateSet,
    EmptySet,
    GeometryError,
    IdenticalPoints,
    InvalidInstance,
    SweepLimitExceeded,
    UnboundedSet,
)
from .geom import (
    HalfPlane,
    HullResult,
    IntPoint2,
    Point2,
    PolySet2,
    Rational,
    area,
    bounding_box,
    clip,
    contains,
    convex_hull,
    line_through,
    point,
    polyset_from_halfplanes,
    polyset_from_vertices,
)
from .hull_baseline import integer_hull_baseline, normalize_facets
from .hull_new import RefineConfig, integer_hull_new
from .instances import (
    Instance,
    dump_instance,
    format_decimal,
    format_rational,
    instance_to_polyset,
    load_instance,
    parse_instance,
    parse_rational,
    save_instance,
)
from .lattice import (
    SweepHit,
    floor_sum,
    sweep_from_opposite,
    sweep_inward,
)
from .oracle import (
    RunStats,
    bbox_cell_count,
    enumerate_integer_points,
    integer_hull_oracle,
)

__version__ = "0.1.0"

__all__ = [
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
    "bounding_box",
    "clip",
    # lattice
    "floor_sum",
    "SweepHit",
    "sweep_inward",
    "sweep_from_opposite",
    # engines
    "RefineConfig",
    "integer_hull_new",
    "normalize_facets",
    "integer_hull_baseline",
    "RunStats",
    "bbox_cell_count",
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
]
