"""The benchmark's tracer hooks layer entry points by module attribute, so a
renamed or moved function silently drops its layer from the traced split.
This pins the set of hooks that find nothing, and the spans each engine
records through the hooks that do, with the work they count."""

from __future__ import annotations

import importlib
from collections import Counter
from pathlib import Path

import pytest

from helpers import load_perfbench
from inthull import (
    RefineConfig,
    instance_to_polyset,
    integer_hull_baseline,
    integer_hull_new,
    integer_hull_oracle,
    load_instance,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures"

# Bindings that no longer exist in the package; the tracer reports them as
# "not traced".  This list may shrink, never grow.
KNOWN_MISSING = {
    "inthull.hull_baseline.area",
    "inthull.hull_baseline.enumerate_integer_points",
}


def test_every_trace_hook_resolves_but_the_known_missing():
    tracing = load_perfbench("tracing")
    missing = {
        f"{module}.{attr}"
        for module, attr, _, _ in tracing.HOOKS
        if not callable(getattr(importlib.import_module(module), attr, None))
    }
    assert missing == KNOWN_MISSING


# Spans per name for one hull of triangle_shallow.json.  `new` enumerates
# its 24 cells by default; with RefineConfig(1) it sweeps 3 facets from the
# opposite side (one `lattice.sweep`), then the 3 of its 7 partial-hull
# edges that its hits' certificates leave open, and builds the hits' hull
# with the one `geom.convex_hull`: the edge loop keeps the final cycle
# itself.
# `baseline` sweeps 3 facets inward in its own facet pass, cuts 3 corner regions out of 4 clips
# (one area for Q, one per region) and enumerates each.
SPANS = {
    "new": {"engine": 1, "oracle.enumerate": 1, "geom.convex_hull": 1},
    "new, RefineConfig(1)": {"engine": 1, "lattice.sweep": 1, "lattice.sweep.facet": 6, "geom.convex_hull": 1},
    "baseline": {
        "engine": 1,
        "lattice.sweep": 1,
        "lattice.sweep.facet": 3,
        "geom.intersect_halfplanes": 1,
        "hull_new.residual_regions": 1,
        "geom.clip": 4,
        "geom.area": 4,
        "oracle.enumerate": 3,
        "geom.convex_hull": 2,
    },
    "oracle": {"engine": 1, "oracle.enumerate": 1, "geom.convex_hull": 1},
}

# Total span work per name for the same hulls: the points each engine's
# enumerations return, and the points handed to `convex_hull`.  `baseline`
# hands it its 4 distinct facet hits, then those hits again with the 9
# points of its 3 corner regions in one list (4 + 13): a hit that a region
# holds, or a point of two regions, counts each time.  The benchmark's
# `enumerated_points` and `convex_hull_points` counters are these sums, so
# a change that moves them fails here.
WORK = {
    "new": {"oracle.enumerate": 11, "geom.convex_hull": 11},
    "new, RefineConfig(1)": {"oracle.enumerate": 0, "geom.convex_hull": 3},
    "baseline": {"oracle.enumerate": 9, "geom.convex_hull": 17},
    "oracle": {"oracle.enumerate": 11, "geom.convex_hull": 11},
}

ENGINES = {
    "new": integer_hull_new,
    "new, RefineConfig(1)": lambda P: integer_hull_new(P, RefineConfig(1)),
    "baseline": integer_hull_baseline,
    "oracle": integer_hull_oracle,
}


@pytest.mark.parametrize("engine", sorted(SPANS))
def test_each_engine_records_its_layers(engine):
    # A layer routed through a binding the tracer does not hook would drop
    # out of these counts, and its per-layer metrics would read 0.
    tracing = load_perfbench("tracing")
    P = instance_to_polyset(load_instance(FIXTURES / "triangle_shallow.json"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.wrap(tracing.ROOT, ENGINES[engine])(P)
    finally:
        tracer.restore()
    assert Counter(span[0] for span in tracer.spans) == SPANS[engine]
    work = Counter()
    for name, *_, count in tracer.spans:
        work[name] += count
    assert {name: work[name] for name in WORK[engine]} == WORK[engine]
