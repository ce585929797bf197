"""Tiny-size run of every benchmark workload with tracing on.

A renamed or removed traced function would zero a per-layer metric without
failing any check, and a changed island report or export would break a grid
digest; both show here as a failed smoke run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(workload):
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", "1", "--smoke"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert result["failed"] == 0
    assert result["metrics"]["trace.missing_functions"]["value"] == 0
