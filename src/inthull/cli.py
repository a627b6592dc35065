"""Command-line interface: hull computation, generation, benchmarks, plots.

Exit codes form the stable contract scripts rely on:

* 0 — success (an empty integer hull is a success and prints ``[]``);
* 1 — parse or validation failure (bad file, bad flags, malformed instance);
* 2 — ``--check`` found a mismatch between the engine and the oracle;
* 3 — resource refusal: unbounded set or enumeration budget.

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
from dataclasses import asdict, replace
from typing import List, Optional, Sequence

from .bench import ENGINES, write_csv
from .errors import (
    BudgetExceeded,
    GeometryError,
    InvalidInstance,
    UnboundedSet,
)
from .instances import (
    Instance,
    instance_to_polyset,
    load_instance,
    parse_rational,
    save_instance,
)
from .generate import edgecase_halfplanes, random_polygon
from .oracle import RunStats, integer_hull_oracle
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
    p_hull.add_argument("--engine", choices=list(ENGINES), default="new")
    p_hull.add_argument("--check", action="store_true", help="cross-verify against the oracle (exit 2 on mismatch)")
    p_hull.add_argument("--stats", action="store_true", help="print the engine's RunStats as one JSON line on stderr")

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
    p_plot.add_argument("--engine", choices=list(ENGINES), default="new")
    p_plot.add_argument("-o", "--out", required=True, metavar="FILE")
    return parser


def _cmd_hull(args: argparse.Namespace) -> int:
    inst = load_instance(args.file)
    P = instance_to_polyset(inst)
    stats = RunStats()
    hull = ENGINES[args.engine](P, stats=stats)
    if args.stats:
        print(json.dumps(asdict(stats), separators=(",", ":")), file=sys.stderr)
    if args.check:
        reference = integer_hull_oracle(P)
        if hull != reference:
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
    unknown = [e for e in engines if e not in ENGINES]
    if unknown:
        raise InvalidInstance(f"unknown engines: {unknown} (expected from {list(ENGINES)})")
    if not engines:
        raise InvalidInstance("no engines selected")
    if args.reps < 1:
        raise InvalidInstance("--reps must be >= 1")
    if not os.path.isdir(args.suite):
        raise InvalidInstance(f"--suite {args.suite!r} is not a directory")
    paths = sorted(glob.glob(os.path.join(args.suite, "*.json")))
    instances: List[Instance] = []
    for path in paths:
        inst = load_instance(path)
        if inst.name is None:
            stem = os.path.splitext(os.path.basename(path))[0]
            inst = replace(inst, name=stem)
        instances.append(inst)
    write_csv(instances, engines, args.reps, args.out, timing=not args.no_timing)
    return 0


class _FacetHits(RunStats):
    """RunStats that also keeps the hits of the facet pass an engine reports."""

    hits = {}  # none from an engine that swept no facet

    def facets(self, hits) -> None:
        super().facets(hits)
        self.hits = hits


def _cmd_plot(args: argparse.Namespace) -> int:
    inst = load_instance(args.file)
    P = instance_to_polyset(inst)
    stats = _FacetHits()
    hull = ENGINES[args.engine](P, stats=stats)
    chords = [hit.line for _, hit in sorted(stats.hits.items())]
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
    except (UnboundedSet, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InvalidInstance, GeometryError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
