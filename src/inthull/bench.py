"""Benchmark harness: run engines over an instance suite, write CSV.

One output row per (instance, engine): the wall time is the low median of
the repetitions, cost counters come from the engine's RunStats (identical
across repetitions), and per-row failures are recorded in a status column
without aborting the run.  With timing disabled every field is a pure
function of the inputs, which is what the byte-determinism guarantee (and
its test) relies on.
"""

from __future__ import annotations

import csv
import time
from fractions import Fraction
from statistics import median_low
from typing import List, Optional, Sequence, Tuple

from .errors import BudgetExceeded, GeometryError
from .geom import HullResult, PolySet2, area
from .hull_baseline import integer_hull_baseline
from .hull_new import integer_hull_new
from .instances import Instance, format_decimal, format_rational, instance_to_polyset
from .oracle import RunStats, integer_hull_oracle

CSV_COLUMNS = [
    "name",
    "n_vertices",
    "area",
    "area_decimal",
    "engine",
    "wall_time_ns",
    "hull_size",
    "brute_cells",
    "status",
]

# The one engine dispatch, by name, each in its default configuration.
ENGINES = {"new": integer_hull_new, "baseline": integer_hull_baseline, "oracle": integer_hull_oracle}


def _csv_row(name: str, n_vertices: int, poly_area: Fraction, engine: str, status: str, *counts: int) -> List[str]:
    """One CSV row in CSV_COLUMNS order; `counts` are the run's wall_time_ns,
    hull_size and brute_cells, and a failed run, which has none, reports zeros."""
    instance = [name, str(n_vertices), format_rational(poly_area), format_decimal(poly_area, 6)]
    return [*instance, engine, *map(str, counts or (0, 0, 0)), status]


def _timed_run(engine: str, P: Optional[PolySet2]) -> Tuple[HullResult, RunStats, int]:
    """One engine run: its hull, its counters and its wall time in ns."""
    stats = RunStats()
    start = time.perf_counter_ns()
    hull = ENGINES[engine](P, stats=stats)
    return hull, stats, time.perf_counter_ns() - start


def bench_instance(
    inst: Instance,
    engines: Sequence[str],
    reps: int,
    *,
    timing: bool = True,
) -> List[List[str]]:
    """The CSV rows of one instance, one per engine; failures become status rows."""
    name = inst.name or "unnamed"
    try:
        P = instance_to_polyset(inst)
    except GeometryError as exc:
        return [_csv_row(name, 0, Fraction(0), engine, f"error:{type(exc).__name__}") for engine in engines]
    n_vertices = 0 if P is None else len(P._forms)
    poly_area = Fraction(0) if P is None else area(P)
    rows: List[List[str]] = []
    for engine in engines:
        try:
            runs = [_timed_run(engine, P) for _ in range(reps)]
        except GeometryError as exc:
            status = "skipped:budget" if isinstance(exc, BudgetExceeded) else f"error:{type(exc).__name__}"
            rows.append(_csv_row(name, n_vertices, poly_area, engine, status))
            continue
        hull, stats, _ = runs[-1]  # counters are per-run; keep the last
        wall_time_ns = median_low([ns for _, _, ns in runs]) if timing else 0
        rows.append(_csv_row(name, n_vertices, poly_area, engine, "ok", wall_time_ns, len(hull), stats.brute_cells))
    return rows


def write_csv(
    instances: Sequence[Instance],
    engines: Sequence[str],
    reps: int,
    path: str,
    *,
    timing: bool = True,
) -> None:
    """Run the suite, then write its CSV with the frozen column order and
    unix line endings (stable bytes); a run that raises writes no file."""
    rows = [row for inst in instances for row in bench_instance(inst, engines, reps, timing=timing)]
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(rows)
