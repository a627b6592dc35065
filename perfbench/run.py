"""Benchmark of the three inthull engines on one seeded workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop: one process, one caller, one hull at a time.  Every instance of
the workload is handed to ``new``, ``baseline`` and ``oracle`` in turn,
through the public API with default configuration.  The first pass over the
instances always completes; with ``--trace 0`` the loop then runs further
whole passes until S seconds have passed.  Every hull of the first pass is
checked (see ``check``), and every later answer must repeat it.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one plain
pass and one traced pass, prints the per-layer metrics and writes the spans
to ``.perfbench_out/spans-<workload>.tsv``.  A human-readable report comes
first; the last line of standard output is the JSON result.  The exit code
is 0 only when every hull is correct.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import certify
import speedprobe
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
ENGINES = ("new", "baseline", "oracle")
SETUP_REPS = 9
TAIL_PERCENTILES = (99.9, 99, 95, 90, 50)
TAIL_BEYOND = 10  # samples a tail percentile must have above it

Metrics = Dict[str, Tuple[float, str]]


def set_up(texts: List[str], probe: speedprobe.SpeedProbe):
    """Import the library and load every instance text, SETUP_REPS times.

    Each repetition drops the library from ``sys.modules`` first, so every
    one pays the full import.  Returns the library and polygons of the last
    repetition and the median total and load-only reference times.
    """
    totals, loads = [], []
    for _ in range(SETUP_REPS):
        for name in [m for m in sys.modules if m == "inthull" or m.startswith("inthull.")]:
            del sys.modules[name]
        start = time.perf_counter()
        lib = importlib.import_module("inthull")
        imported = time.perf_counter()
        polys = [lib.instance_to_polyset(lib.parse_instance(text)) for text in texts]
        end = time.perf_counter()
        totals.append(probe.ref_seconds(start, end))
        loads.append(probe.ref_seconds(imported, end))
    return lib, polys, statistics.median(totals), statistics.median(loads)


class Run:
    """What one measured loop saw: engine time (reference and wall seconds),
    outcomes and pass-1 answers.

    An outcome is a HullResult or a string: ``refused:<error>`` for a typed
    refusal, ``error:<error>: <message>`` for anything else raised.
    """

    def __init__(self, n: int) -> None:
        self.intervals: Dict[str, List[Tuple[float, float]]] = {e: [] for e in ENGINES}
        self.tally = {e: Counter() for e in ENGINES}
        self.first: List[Dict[str, object]] = [{} for _ in range(n)]
        self.stats: List[Dict[str, object]] = [{} for _ in range(n)]
        self.calls: Counter = Counter()  # (instance, engine) -> calls
        self.mismatches: List[Tuple[int, str]] = []
        self.passes = 0
        self.peak_rss_mb = 0.0  # at the end of the first pass
        # Filled in by finish():
        self.latency_ms: Dict[str, List[float]] = {}
        self.seconds: Dict[str, float] = {}
        self.wall: Dict[str, float] = {}

    def record(self, i: int, first: bool, engine: str, out: object, start: float, end: float,
               stats) -> None:
        self.intervals[engine].append((start, end))
        kind = out.split(":", 1)[0] if isinstance(out, str) else "answered"
        self.tally[engine][kind] += 1
        self.calls[(i, engine)] += 1
        if first:
            self.first[i][engine] = out
            self.stats[i][engine] = stats
        elif out != self.first[i][engine]:
            self.mismatches.append((i, engine))

    def finish(self, probe: speedprobe.SpeedProbe) -> None:
        """Turn the call intervals into reference and wall seconds."""
        self.latency_ms = {
            e: [probe.ref_seconds(a, b) * 1e3 for a, b in spans] for e, spans in self.intervals.items()
        }
        self.seconds = {e: sum(ms) / 1e3 for e, ms in self.latency_ms.items()}
        self.wall = {e: sum(b - a for a, b in spans) for e, spans in self.intervals.items()}


def measure(
    lib, polys: list, seconds: float, probe: speedprobe.SpeedProbe,
    tracer: Optional[tracing.Tracer] = None,
) -> Run:
    engines = [(e, getattr(lib, f"integer_hull_{e}")) for e in ENGINES]
    if tracer is not None:
        engines = [(e, tracer.wrap(tracing.ROOT, fn)) for e, fn in engines]
    refusals = (lib.BudgetExceeded, lib.SweepLimitExceeded)
    run = Run(len(polys))
    deadline = time.perf_counter() + seconds
    k = 0
    # Whole passes only, so every instance weighs the same in every metric.
    while k % len(polys) or k == 0 or time.perf_counter() < deadline:
        i = k % len(polys)
        for engine, fn in engines:
            if tracer is not None:
                tracer.engine, tracer.instance = engine, k
            stats = lib.RunStats()
            start = time.perf_counter()
            try:
                out: object = fn(polys[i], stats=stats)
            except refusals as exc:
                out = f"refused:{type(exc).__name__}"
            except Exception as exc:  # an untyped error is a failed operation
                out = f"error:{type(exc).__name__}: {exc}"
            run.record(i, k < len(polys), engine, out, start, time.perf_counter(), stats)
        k += 1
        if k == len(polys):
            run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run.finish(probe)
    run.passes = k // len(polys)
    return run


def check(lib, polys: list, run: Run) -> List[Tuple[int, str, str]]:
    """(instance, engine, reason) for every wrong pass-1 answer.

    A hull must pass the oracle-free certificate, equal the oracle's hull
    when the oracle answered, and agree with every other engine's answer.
    The certificate must also reject a correct hull with a vertex dropped.
    """
    wrong = []
    tampered = None
    for i, P in enumerate(polys):
        answers = {e: o for e, o in run.first[i].items() if not isinstance(o, str)}
        verdicts = {h: certify.certify(lib, P, h) for h in set(answers.values())}
        ref = answers.get("oracle")
        for engine, out in run.first[i].items():
            if isinstance(out, str):
                if out.startswith("error:"):
                    wrong.append((i, engine, out))
                continue
            reason = verdicts[out]
            if reason is None and ref is not None and out != ref:
                reason = "differs from the oracle's hull"
            if reason is None and len(verdicts) > 1:
                reason = "engines disagree"
            if reason is not None:
                wrong.append((i, engine, reason))
        if tampered is None and len(verdicts) == 1:
            (hull, reason), = verdicts.items()
            if reason is None and len(hull) >= 3:
                tampered = (i, lib.convex_hull(p for j, p in enumerate(hull) if j != 1))
    if tampered is not None and certify.certify(lib, polys[tampered[0]], tampered[1]) is None:
        wrong.append((tampered[0], "certificate", "accepted a hull with a vertex dropped"))
    return wrong


def digest(run: Run) -> str:
    h = hashlib.sha256()
    for i, outs in enumerate(run.first):
        for engine in ENGINES:
            out = outs[engine]
            text = out if isinstance(out, str) else " ".join(f"{x},{y}" for x, y in out)
            h.update(f"{i} {engine} {text}\n".encode())
    return h.hexdigest()


def counters(run: Run, layers=None) -> Dict[str, Dict[str, int]]:
    """Work counters of the first pass, per engine; exact for a fixed seed."""
    out = {}
    for e in ENGINES:
        stats = [s[e] for s in run.stats]
        row = {
            "brute_cells": sum(s.brute_cells for s in stats),
            "regions": sum(s.regions for s in stats),
            "max_depth": max(s.max_depth for s in stats),
        }
        if layers is not None:
            row.update(
                floor_sum_calls=layers[(e, "lattice.floor_sum")]["calls"],
                facets_swept=layers[(e, "lattice.sweep.facet")]["calls"],
                clip_calls=layers[(e, "geom.clip")]["calls"],
                enumerated_points=layers[(e, "oracle.enumerate")]["work"],
                convex_hull_points=layers[(e, "geom.convex_hull")]["work"],
            )
        out[e] = row
    return out


def tail(samples: List[float]) -> Optional[Tuple[float, float]]:
    """(percentile, value): the highest listed percentile with at least
    TAIL_BEYOND samples above it (nearest rank), or None."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = max(1, -int(-p * n // 100))
        if n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1]
    return None


def end_to_end(run: Run, setup_s: float, failed: int) -> Metrics:
    attempted = sum(run.calls.values())
    refused = sum(t["refused"] for t in run.tally.values())
    m: Metrics = {"setup_s": (setup_s, "s")}
    for e in ENGINES:
        m[f"{e}.hulls_per_s"] = (run.tally[e]["answered"] / run.seconds[e], "hulls/s")
    m["new.p50_ms"] = (statistics.median(run.latency_ms["new"]), "ms")
    t = tail(run.latency_ms["new"])
    if t is not None:
        m["new.tail_ms"] = (t[1], "ms")
    m["failed_frac"] = (failed / attempted, "ratio")
    m["refused_frac"] = (refused / attempted, "ratio")
    m["peak_rss_mb"] = (run.peak_rss_mb, "MB")
    return m


def per_layer(run: Run, layers, load_s: float, overhead: float) -> Metrics:
    m: Metrics = {}

    def put(name: str, value: float, unit: str) -> None:
        m[f"{engine}.{name}"] = (value, unit)

    def layer(name: str, field: str) -> float:
        return layers[(engine, name)][field]

    for engine in ENGINES:
        stats = [s[engine] for s in run.stats]
        cells = sum(s.brute_cells for s in stats)
        points = layer("oracle.enumerate", "work")
        put("engine.s", layer(tracing.ROOT, "s"), "s")
        put("engine.self_s", layer(tracing.ROOT, "self_s"), "s")
        put("oracle.enumerate.calls", layer("oracle.enumerate", "calls"), "count")
        put("oracle.enumerate.s", layer("oracle.enumerate", "s"), "s")
        put("oracle.enumerate.cells", cells, "count")
        put("oracle.enumerate.points", points, "count")
        put("oracle.enumerate.points_per_cell", points / cells if cells else 0.0, "ratio")
        put("geom.convex_hull.calls", layer("geom.convex_hull", "calls"), "count")
        put("geom.convex_hull.points", layer("geom.convex_hull", "work"), "count")
        put("geom.convex_hull.s", layer("geom.convex_hull", "s"), "s")
        if engine == "oracle":
            continue
        facets = layer("lattice.sweep.facet", "calls")
        floor_sums = layer("lattice.floor_sum", "calls")
        sweep_self = layer("lattice.sweep", "self_s") + layer("lattice.sweep.facet", "self_s")
        put("lattice.sweep.calls", layer("lattice.sweep", "calls"), "count")
        put("lattice.sweep.facets", facets, "count")
        put("lattice.sweep.self_s", sweep_self, "s")
        put("lattice.floor_sum.calls", floor_sums, "count")
        put("lattice.floor_sum.s", layer("lattice.floor_sum", "s"), "s")
        put("lattice.floor_sum.per_facet", floor_sums / facets if facets else 0.0, "ratio")
        for name in ("geom.clip", "geom.area"):
            put(f"{name}.calls", layer(name, "calls"), "count")
            put(f"{name}.s", layer(name, "s"), "s")
        put("hull_new.residual_regions.calls", layer("hull_new.residual_regions", "calls"), "count")
        put("hull_new.residual_regions.self_s", layer("hull_new.residual_regions", "self_s"), "s")
        if engine == "new":
            put("hull_new.regions", sum(s.regions for s in stats), "count")
            put("hull_new.max_depth", max(s.max_depth for s in stats), "count")
        else:
            put("geom.intersect_halfplanes.calls", layer("geom.intersect_halfplanes", "calls"), "count")
            put("geom.intersect_halfplanes.s", layer("geom.intersect_halfplanes", "s"), "s")
            put("hull_baseline.corners", sum(s.regions for s in stats), "count")
    m["instances.load.s"] = (load_s, "s")
    m["trace.overhead_frac"] = (overhead, "ratio")
    return m


# Layers whose self times partition an engine's time in the layer split.
SPLIT = (
    ("lattice.sweep", ("lattice.sweep", "lattice.sweep.facet")),
    ("lattice.floor_sum", ("lattice.floor_sum",)),
    ("geom.clip", ("geom.clip",)),
    ("geom.area", ("geom.area",)),
    ("hull_new.residual_regions", ("hull_new.residual_regions",)),
    ("geom.intersect_halfplanes", ("geom.intersect_halfplanes",)),
    ("oracle.enumerate", ("oracle.enumerate",)),
    ("geom.convex_hull", ("geom.convex_hull",)),
    ("other (engine self)", (tracing.ROOT,)),
)


def report(workload: str, seed: int, run: Run, wrong, metrics: Metrics, work, dig: str,
           layers=None) -> None:
    print(f"workload {workload}, seed {seed}: {len(run.first)} instances, "
          f"{run.passes:g} passes; Python {platform.python_version()}, nproc {os.cpu_count()}; "
          f"times in reference seconds (wall seconds in brackets)")
    print(f"{'engine':9} {'answered':>8} {'refused':>8} {'errors':>7} {'engine_s':>20}  counters (first pass)")
    for e in ENGINES:
        t = run.tally[e]
        row = " ".join(f"{k}={v}" for k, v in work[e].items())
        secs = f"{run.seconds[e]:.3f} [{run.wall[e]:.3f}]"
        print(f"{e:9} {t['answered']:8} {t['refused']:8} {t['error']:7} {secs:>20}  {row}")
    for e in ENGINES if layers is not None else ():
        total = layers[(e, tracing.ROOT)]["s"]
        shares = [(label, sum(layers[(e, n)]["self_s"] for n in names) / total)
                  for label, names in SPLIT] if total else []
        print(f"layer split {e}: " + ", ".join(f"{label} {100 * x:.1f}%" for label, x in shares if x >= 0.001))
    for name, (value, unit) in metrics.items():
        if name.endswith(".hulls_per_s") and value == 0:
            continue  # the engine answered no instance of this workload
        note = ""
        if name == "new.tail_ms":
            p, _ = tail(run.latency_ms["new"])
            note = f"  (p{p:g} of {len(run.latency_ms['new'])} samples)"
        print(f"  {name} = {value:.6g} {unit}{note}")
    print(f"hull digest (first pass): {dig}")
    for i, engine, reason in wrong:
        print(f"WRONG: instance {i} engine {engine}: {reason}")
    for i, engine in run.mismatches[:20]:
        print(f"WRONG: instance {i} engine {engine}: a later pass gave another answer")


def select(contract: dict, key: str, metrics: Metrics) -> dict:
    out = {}
    for spec in contract[key]:
        value, unit = metrics[spec["name"]]
        if unit != spec["unit"]:
            raise ValueError(f"{spec['name']}: unit {unit!r}, BENCHMARK.json says {spec['unit']!r}")
        out[spec["name"]] = {"value": value, "unit": unit}
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "inthull" / "__init__.py").is_file():
        print(f"error: the library source {SRC / 'inthull'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    instances = workloads.WORKLOADS[args.workload](args.seed)
    from inthull import dump_instance

    texts = [dump_instance(inst) for inst in instances]
    tracer = layers = None
    with speedprobe.SpeedProbe() as probe:
        lib, polys, setup_s, load_s = set_up(texts, probe)
        if args.trace:
            plain = measure(lib, polys, 0, probe)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                run = measure(lib, polys, 0, probe, tracer)
            finally:
                tracer.restore()
        else:
            run = measure(lib, polys, args.seconds, probe)
    if args.trace:
        run.mismatches += [
            (i, e) for i in range(len(polys)) for e in ENGINES if plain.first[i][e] != run.first[i][e]
        ]
        run.calls.update(plain.calls)
        layers = tracer.layers(probe)
        overhead = sum(run.seconds.values()) / sum(plain.seconds.values()) - 1
        metrics = per_layer(run, layers, load_s, overhead)
    work = counters(run, layers)
    wrong = check(lib, polys, run)
    wrong_pairs = {(i, e) for i, e, _ in wrong}
    failed = sum(run.calls[p] for p in wrong_pairs) + sum(
        1 for p in run.mismatches if p not in wrong_pairs
    )
    if not args.trace:
        metrics = end_to_end(run, setup_s, failed)
    report(args.workload, args.seed, run, wrong, metrics, work, digest(run), layers)
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        tracer.write(str(OUT / f"spans-{args.workload}.tsv"))
        if tracer.missing:
            print(f"not traced (binding not found): {', '.join(tracer.missing)}")
    correct = not wrong and not run.mismatches
    result = {
        "correct": correct,
        "attempted": sum(run.calls.values()),
        "failed": failed,
        "metrics": select(contract, "per_layer" if args.trace else "end_to_end", metrics),
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
