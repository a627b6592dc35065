"""The benchmark runs end to end on the public API: one short, untraced pass
of the chain-1000 workload must finish, with every hull checked correct.

A change to what the benchmark's certificate uses (`sweep_inward`, `clip`,
`line_through`, `enumerate_integer_points`, ...) thus fails here, not only
in a full benchmark run.  With ``--trace 0`` the run writes no files.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_chain_1000_pass_is_correct():
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain-1000", "--seed", "1", "--seconds", "0", "--trace", "0"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=300,
    )
    assert r.returncode == 0, r.stdout[-2000:] + r.stderr[-2000:]
    result = json.loads(r.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
