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
from dataclasses import dataclass
from fractions import Fraction
from statistics import median_low
from typing import List, Optional, Sequence, Tuple

from .errors import BudgetExceeded, GeometryError
from .geom import HullResult, PolySet2, area
from .hull_baseline import integer_hull_baseline
from .hull_new import RefineConfig, integer_hull_new
from .instances import Instance, format_decimal, format_rational, instance_to_polyset
from .lattice import _check_max_sweep
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

_ENGINES = ("new", "baseline", "oracle")


def engine_names() -> List[str]:
    return list(_ENGINES)


def run_engine(
    name: str,
    P: Optional[PolySet2],
    *,
    cfg: RefineConfig = RefineConfig(),
    max_sweep: Optional[int] = None,
    stats: Optional[RunStats] = None,
) -> HullResult:
    """Dispatch one hull engine by name; `cfg` and `max_sweep` reach only
    the engines that take them, but a negative `max_sweep` is refused for
    every engine and input, and a non-integer one raises TypeError."""
    _check_max_sweep(max_sweep)
    if name == "new":
        return integer_hull_new(P, cfg, max_sweep=max_sweep, stats=stats)
    if name == "baseline":
        return integer_hull_baseline(P, max_sweep=max_sweep, stats=stats)
    if name == "oracle":
        return integer_hull_oracle(P, stats=stats)
    raise ValueError(f"unknown engine {name!r} (expected one of {engine_names()})")


@dataclass(frozen=True)
class BenchRecord:
    """One CSV row: an (instance, engine) pair with cost counters."""

    name: str
    n_vertices: int
    area: Fraction
    engine: str
    wall_time_ns: int
    hull_size: int
    brute_cells: int
    status: str

    def to_row(self) -> List[str]:
        return [
            self.name,
            str(self.n_vertices),
            format_rational(self.area),
            format_decimal(self.area, 6),
            self.engine,
            str(self.wall_time_ns),
            str(self.hull_size),
            str(self.brute_cells),
            self.status,
        ]


def _timed_run(engine: str, P: Optional[PolySet2]) -> Tuple[HullResult, RunStats, int]:
    """One engine run: its hull, its counters and its wall time in ns."""
    stats = RunStats()
    start = time.perf_counter_ns()
    hull = run_engine(engine, P, stats=stats)
    return hull, stats, time.perf_counter_ns() - start


def bench_instance(
    inst: Instance,
    engines: Sequence[str],
    reps: int,
    *,
    timing: bool = True,
) -> List[BenchRecord]:
    """Benchmark one instance under each engine; failures become status rows."""
    if reps < 1:
        raise ValueError("reps must be >= 1")
    name = inst.name or "unnamed"
    try:
        P = instance_to_polyset(inst)
    except GeometryError as exc:
        return [
            BenchRecord(name, 0, Fraction(0), engine, 0, 0, 0, f"error:{type(exc).__name__}")
            for engine in engines
        ]
    n_vertices = 0 if P is None else len(P.vertices)
    poly_area = Fraction(0) if P is None else area(P)
    records: List[BenchRecord] = []
    for engine in engines:
        try:
            runs = [_timed_run(engine, P) for _ in range(reps)]
        except BudgetExceeded:
            records.append(
                BenchRecord(name, n_vertices, poly_area, engine, 0, 0, 0, "skipped:budget")
            )
            continue
        except GeometryError as exc:
            records.append(
                BenchRecord(
                    name, n_vertices, poly_area, engine, 0, 0, 0, f"error:{type(exc).__name__}"
                )
            )
            continue
        hull, stats, _ = runs[-1]  # counters are per-run; keep the last
        records.append(
            BenchRecord(
                name,
                n_vertices,
                poly_area,
                engine,
                median_low([ns for _, _, ns in runs]) if timing else 0,
                len(hull),
                stats.brute_cells,
                "ok",
            )
        )
    return records


def run_suite(
    instances: Sequence[Instance],
    engines: Sequence[str],
    reps: int,
    *,
    timing: bool = True,
) -> List[BenchRecord]:
    records: List[BenchRecord] = []
    for inst in instances:
        records.extend(bench_instance(inst, engines, reps, timing=timing))
    return records


def write_csv(records: Sequence[BenchRecord], path: str) -> None:
    """CSV with the frozen column order and unix line endings (stable bytes)."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow(rec.to_row())
