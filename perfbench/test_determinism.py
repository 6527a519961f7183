"""Determinism guard for the benchmark's fixed inputs.

Each workload's traced run is made twice, in two processes with
different ``PYTHONHASHSEED`` values and different ``--seed`` values.
The input set, every answer digest, the quality shares and every
per-layer count must be identical; only times may differ.  A failure
here means the benchmark's inputs or the program's answers drift from
run to run, which no bound may absorb.

    python3 -m pytest perfbench/test_determinism.py -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent

#: shares of time; with the ``ms`` metrics the only time-valued ones,
#: everything else the traced run prints is a count or a ratio of counts
TIMED = ("driver.wasted_rung_share", "ledger.unattributed_share", "trace.overhead_share")


def traced_run(workload: str, run_seed: int, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    completed = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(run_seed), "--trace", "1"],
        cwd=BENCH_DIR.parent, env=env, capture_output=True, text=True, timeout=600,
    )
    assert completed.returncode == 0, completed.stderr[-4000:]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"], completed.stderr[-4000:]
    outcome = json.loads((BENCH_DIR / "out" / f"{workload}-trace1.json").read_text())
    counts = {
        name: value for name, value in outcome["metrics"].items()
        if value["unit"] != "ms" and name not in TIMED
    }
    summary = outcome["summary"]
    return {
        "inputs": summary["inputs"],
        "digests": summary["digests"],
        "shares": [summary[k] for k in ("exact_share", "confirmed_edge_share", "ok_share")],
        "counts": counts,
    }


@pytest.mark.parametrize("workload", ["paper_cold", "service_mixed"])
def test_two_processes_agree(workload):
    first = traced_run(workload, run_seed=1, hash_seed="0")
    second = traced_run(workload, run_seed=2, hash_seed="1")
    assert first["inputs"] == second["inputs"]
    assert first["digests"] == second["digests"]
    assert first["shares"] == second["shares"]
    assert first["counts"] == second["counts"]
