"""The benchmark runs end to end on the public API: one short, untraced pass
of a workload must finish, with every hull checked correct.  chain-1000
sweeps one large polygon; small-random enumerates many small inputs
outright, so its certificate checks that path.  bignum (octagons with
~10**10 denominators and polygons at scales 10**9 and 10**12) and wedge
(the thin wedges, built from inequalities) check the half-plane
intersection, the hull and the sweeps on large integer forms, including
answers the oracle refuses by budget.

A change to what the benchmark's certificate uses (`sweep_inward`, `clip`,
`line_through`, `enumerate_integer_points`, ...) thus fails here, not only
in a full benchmark run.  With ``--trace 0`` the run writes no files.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["chain-1000", "small-random", "bignum", "wedge"])
def test_workload_pass_is_correct(workload):
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "0"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=300,
    )
    assert r.returncode == 0, r.stdout[-2000:] + r.stderr[-2000:]
    result = json.loads(r.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
