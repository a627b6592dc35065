"""Outside-in tracing of the library's layers.

The tracer rebinds layer entry points in the modules that call them (for
example ``inthull.hull_new.clip`` or ``inthull.lattice.floor_sum``) to
wrappers that record one span per call: name, start, end, parent span,
engine, instance, and a work count where the layer has one.  Spans stay in
memory until the run ends; ``layers`` turns them into reference seconds
(see ``speedprobe``) and self times.  Nothing in the library changes; ``restore``
puts every original binding back.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

Work = Optional[Callable[[tuple, object], int]]


def _input_size(args: tuple, result: object) -> int:
    points = args[0]
    return len(points) if hasattr(points, "__len__") else 0


def _output_size(args: tuple, result: object) -> int:
    return len(result)


# (module, attribute, span name, work count).  A module that imports a
# function binds its own name for it, so each calling module is hooked.
HOOKS: List[Tuple[str, str, str, Work]] = [
    ("inthull.hull_new", "replace_facets", "lattice.sweep", None),
    ("inthull.hull_baseline", "normalize_facets", "lattice.sweep", None),
    ("inthull.hull_new", "_run_sweep", "lattice.sweep.facet", None),
    ("inthull.hull_baseline", "_run_sweep", "lattice.sweep.facet", None),
    ("inthull.lattice", "floor_sum", "lattice.floor_sum", None),
    ("inthull.hull_new", "clip", "geom.clip", None),
    ("inthull.hull_new", "area", "geom.area", None),
    ("inthull.hull_baseline", "area", "geom.area", None),
    ("inthull.hull_new", "residual_regions", "hull_new.residual_regions", None),
    ("inthull.hull_baseline", "residual_regions", "hull_new.residual_regions", None),
    # Only reachable through this private binding; timed where it is entered.
    ("inthull.hull_baseline", "_intersect_halfplanes", "geom.intersect_halfplanes", None),
    ("inthull.hull_new", "enumerate_integer_points", "oracle.enumerate", _output_size),
    ("inthull.hull_baseline", "enumerate_integer_points", "oracle.enumerate", _output_size),
    ("inthull.oracle", "enumerate_integer_points", "oracle.enumerate", _output_size),
    ("inthull.hull_new", "convex_hull", "geom.convex_hull", _input_size),
    ("inthull.hull_baseline", "convex_hull", "geom.convex_hull", _input_size),
    ("inthull.oracle", "convex_hull", "geom.convex_hull", _input_size),
]

ROOT = "engine"


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self) -> None:
        # (name, start, end, parent, engine, instance, work); perf_counter seconds
        self.spans: List[Optional[tuple]] = []
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []
        self.engine = ""
        self.instance = -1

    def wrap(self, name: str, fn: Callable, work: Work = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                count = work(args, result) if work is not None and result is not None else 0
                spans[idx] = (name, start, end, parent, self.engine, self.instance, count)

        return traced

    def install(self) -> None:
        for module_name, attr, name, work in HOOKS:
            module = sys.modules.get(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, work))

    def restore(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("span\tparent\tengine\tinstance\tname\tstart_s\tend_s\twork\n")
            for i, (name, start, end, parent, engine, inst, work) in enumerate(self.spans):
                f.write(f"{i}\t{parent}\t{engine}\t{inst}\t{name}\t{start!r}\t{end!r}\t{work}\n")

    def layers(self, probe) -> Dict[Tuple[str, str], Dict[str, float]]:
        """Per (engine, span name): calls, reference seconds, self reference
        seconds (minus the time of child spans) and work."""
        split = [probe.split(start, end) for _, start, end, *_ in self.spans]
        child = [0.0] * len(self.spans)
        for (_, _, _, parent, *_), (work_s, _) in zip(self.spans, split):
            if parent >= 0:
                child[parent] += work_s
        out: Dict[Tuple[str, str], Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0}
        )
        for i, (name, _, _, _, engine, _, work) in enumerate(self.spans):
            work_s, factor = split[i]
            agg = out[(engine, name)]
            agg["calls"] += 1
            agg["s"] += work_s * factor
            agg["self_s"] += (work_s - child[i]) * factor
            agg["work"] += work
        return out
