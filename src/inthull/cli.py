"""Command-line interface: hull computation, generation, benchmarks, plots.

Exit codes form the stable contract scripts rely on:

* 0 — success (an empty integer hull is a success and prints ``[]``);
* 1 — parse or validation failure (bad file, bad flags, malformed instance);
* 2 — ``--check`` found a mismatch between the engine and the oracle;
* 3 — resource refusal: unbounded set, enumeration budget, or sweep limit.

argparse's default behavior of exiting with status 2 on usage errors would
collide with the mismatch code, so usage errors are intercepted and mapped
to 1.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from dataclasses import replace
from typing import List, Optional, Sequence

from .bench import engine_names, run_engine, run_suite, write_csv
from .errors import (
    BudgetExceeded,
    GeometryError,
    InvalidInstance,
    SweepLimitExceeded,
    UnboundedSet,
)
from .geom import HalfPlane
from .hull_new import RefineConfig, sweep_facets
from .instances import (
    Instance,
    instance_to_polyset,
    load_instance,
    parse_rational,
    save_instance,
)
from .generate import edgecase_halfplanes, random_polygon
from .oracle import bbox_cell_count, integer_hull_oracle
from .svgplot import render_svg


class _UsageError(Exception):
    """Raised in place of argparse's sys.exit(2) on bad usage."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="inthull", description="Integer hulls of bounded 2D rational polyhedral sets")
    sub = parser.add_subparsers(dest="command", required=True)

    p_hull = sub.add_parser("hull", help="compute the integer hull of an instance")
    p_hull.add_argument("file", help="instance JSON file")
    p_hull.add_argument("--engine", choices=engine_names(), default="new")
    p_hull.add_argument("--check", action="store_true", help="cross-verify against the oracle (exit 2 on mismatch)")
    p_hull.add_argument("--max-sweep", type=int, default=None, metavar="N", help="abort any facet sweep beyond N offsets (exit 3)")
    p_hull.add_argument("--brute-threshold", type=int, default=256, metavar="N", help="enumerate any set, the input polygon too, of at most N bounding-box cells")
    p_hull.add_argument("--max-depth", type=int, default=16, metavar="N", help="refinement recursion cap")

    p_gen = sub.add_parser("gen", help="generate a deterministic instance file")
    p_gen.add_argument("--kind", choices=["random", "edgecase"], required=True)
    p_gen.add_argument("--n", type=int, required=True, help="point count (random) or facet count (edgecase)")
    p_gen.add_argument("--scale", default="10", metavar="Q", help="size as an exact rational, e.g. 10 or 31/2")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--out", required=True, metavar="FILE")

    p_bench = sub.add_parser("bench", help="run engines over a suite directory, write CSV")
    p_bench.add_argument("--suite", required=True, metavar="DIR", help="directory of instance *.json files")
    p_bench.add_argument("--reps", type=int, default=5, metavar="K", help="repetitions per engine (low median reported)")
    p_bench.add_argument("--engines", default="new,baseline", metavar="LIST", help="comma-separated engines")
    p_bench.add_argument("--no-timing", action="store_true", help="write wall_time_ns as 0 for byte-stable output")
    p_bench.add_argument("-o", "--out", required=True, metavar="FILE")

    p_plot = sub.add_parser("plot", help="render an instance and its hull as SVG")
    p_plot.add_argument("file", help="instance JSON file")
    p_plot.add_argument("--engine", choices=engine_names(), default="new")
    p_plot.add_argument("-o", "--out", required=True, metavar="FILE")
    return parser


def _cmd_hull(args: argparse.Namespace) -> int:
    inst = load_instance(args.file)
    P = instance_to_polyset(inst)
    cfg = RefineConfig(args.brute_threshold, args.max_depth)
    hull = run_engine(args.engine, P, cfg=cfg, max_sweep=args.max_sweep)
    if args.check:
        reference = integer_hull_oracle(P)
        if tuple(hull) != tuple(reference):
            print(
                f"mismatch: engine {args.engine} returned {_hull_json(hull)}, "
                f"oracle returned {_hull_json(reference)}",
                file=sys.stderr,
            )
            return 2
    print(_hull_json(hull))
    return 0


def _hull_json(hull) -> str:
    return json.dumps([[p.x, p.y] for p in hull], separators=(",", ":"))


def _cmd_gen(args: argparse.Namespace) -> int:
    scale = parse_rational(args.scale)
    if args.kind == "random":
        inst = random_polygon(args.n, scale, args.seed)
    else:
        inst = edgecase_halfplanes(args.n, scale, args.seed)
    save_instance(inst, args.out)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    engines = [e.strip() for e in args.engines.split(",") if e.strip()]
    unknown = [e for e in engines if e not in engine_names()]
    if unknown:
        raise InvalidInstance(f"unknown engines: {unknown} (expected from {engine_names()})")
    if not engines:
        raise InvalidInstance("no engines selected")
    if args.reps < 1:
        raise InvalidInstance("--reps must be >= 1")
    paths = sorted(glob.glob(os.path.join(args.suite, "*.json")))
    instances: List[Instance] = []
    for path in paths:
        inst = load_instance(path)
        if inst.name is None:
            stem = os.path.splitext(os.path.basename(path))[0]
            inst = replace(inst, name=stem)
        instances.append(inst)
    records = run_suite(instances, engines, args.reps, timing=not args.no_timing)
    write_csv(records, args.out)
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    inst = load_instance(args.file)
    P = instance_to_polyset(inst)
    hull = run_engine(args.engine, P)
    chords: List[HalfPlane] = []
    if P is not None and not P.is_degenerate and (
        args.engine == "baseline"
        or args.engine == "new" and bbox_cell_count(P) > RefineConfig().brute_force_cell_threshold
    ):
        # The stopping chords the engine started from: inward normalization
        # for `baseline`, outward sweeps for `new` (which enumerates a
        # polygon of at most the threshold's cells without sweeping it).
        hits = sweep_facets(P, inward=args.engine == "baseline")
        if hits is not None:
            chords = [HalfPlane(h.a, h.c, hit.offset) for h, hit in zip(P.halfplanes, hits)]
    name = inst.name or os.path.splitext(os.path.basename(args.file))[0]
    svg = render_svg(P, hull, chords=chords, name=name)
    with open(args.out, "w", encoding="utf-8") as f:
        f.write(svg)
    return 0


_COMMANDS = {
    "hull": _cmd_hull,
    "gen": _cmd_gen,
    "bench": _cmd_bench,
    "plot": _cmd_plot,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help and friends
        code = exc.code
        return 0 if code in (0, None) else 1
    try:
        return _COMMANDS[args.command](args)
    except (UnboundedSet, BudgetExceeded, SweepLimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InvalidInstance, GeometryError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
