"""Exception hierarchy for the inthull package.

Every error raised by the library derives from :class:`GeometryError`, so
callers can catch one base class at API boundaries (the CLI does exactly
that).  Subclasses distinguish the handful of conditions a caller may want
to branch on: degenerate input geometry, empty or unbounded feasible sets,
and resource-limit overruns.
"""

from __future__ import annotations


class GeometryError(Exception):
    """Base class for all errors raised by this package."""


class IdenticalPoints(GeometryError):
    """Two distinct points were required but the same point was given twice."""


class DegenerateSet(GeometryError):
    """A polyhedral set is empty or has no interior (a point or a segment)."""


class EmptySet(GeometryError):
    """A polyhedral set, or its set of integer points, is empty."""


class UnboundedSet(GeometryError):
    """A polyhedral set is unbounded where a bounded one is required."""


class BudgetExceeded(GeometryError):
    """An enumeration exceeded its configured cell budget."""


class SweepLimitExceeded(GeometryError):
    """A sweep exceeded its configured maximum number of offsets."""


class InvalidInstance(GeometryError):
    """An instance file failed parsing or schema validation."""
