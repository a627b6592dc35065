"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [WORKLOAD ...]

For each workload (all four by default) this runs one traced pass three
times, with seeds 1, 1 and 2, and checks that

* the same seed gives identical work counters and an identical hull digest;
* another seed gives another hull digest, and on ``small-random`` other
  counters (the other workloads translate fixed shapes, which keeps the
  work, so their counters are printed for comparison only);
* every hull passes ``run.check``, and ``run.check`` flags a hull with one
  vertex dropped when it is planted in place of a correct answer.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import sys

import run
import speedprobe
import tracing


def fingerprint(workload: str, seed: int, plant: bool = False):
    import workloads
    from inthull import dump_instance

    texts = [dump_instance(inst) for inst in workloads.WORKLOADS[workload](seed)]
    tracer = tracing.Tracer()
    with speedprobe.SpeedProbe() as probe:
        lib, polys, _, _ = run.set_up(texts, probe)
        tracer.install()
        try:
            result = run.measure(lib, polys, 0, probe, tracer)
        finally:
            tracer.restore()
    wrong = run.check(lib, polys, result)
    fp = run.counters(result, tracer.layers(probe)), run.digest(result), wrong
    if plant:
        i, hull = next(
            (i, out["new"]) for i, out in enumerate(result.first)
            if not isinstance(out["new"], str) and len(out["new"]) >= 3
        )
        result.first[i]["new"] = lib.convex_hull(hull.points[:1] + hull.points[2:])
        planted = run.check(lib, polys, result)
        if (i, "new") not in {(j, e) for j, e, _ in planted}:
            raise SystemExit(f"{workload}: a hull with a vertex dropped passed the check")
    return fp


def main(names) -> int:
    sys.path.insert(0, str(run.SRC))
    for workload in names:
        first = fingerprint(workload, 1, plant=True)
        again = fingerprint(workload, 1)
        other = fingerprint(workload, 2)
        for label, (_, _, wrong) in (("seed 1", first), ("seed 1 again", again), ("seed 2", other)):
            if wrong:
                raise SystemExit(f"{workload} {label}: wrong hulls {wrong[:3]}")
        if first[:2] != again[:2]:
            raise SystemExit(f"{workload}: counters or digest differ between two runs of seed 1")
        if other[1] == first[1]:
            raise SystemExit(f"{workload}: seed 2 gives the same hull digest as seed 1")
        if workload == "small-random" and other[0] == first[0]:
            raise SystemExit(f"{workload}: seed 2 gives the same counters as seed 1")
        same = "same" if other[0] == first[0] else "other"
        print(f"ok {workload}: counters {first[0]['new']}; seed 2 gives {same} counters")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["small-random", "chain-1000", "bignum", "wedge"]))
