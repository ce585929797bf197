"""Tiny-size run of every benchmark workload with tracing on, and the grid digests.

A renamed or removed traced function would zero a per-layer metric without
failing any check, and a changed island report or export would break a grid
digest; both show here as a failed smoke run.  The smoke runs reach only the
size-33 digests, so every entry of ``bench/digests.json`` is also recomputed
in-process.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import entarch as ea

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


def test_grid_digests_match_bench_reference(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    digests = {}
    for res in (33, 81):
        for model in ("M1", "M2", "M3", "M4"):
            report = ea.enumerate_islands(ea.get_model(model), "multiplicative", res)
            digests[f"islands/{model}/{res}"] = workloads.report_digest(report)
        for fmt in ("csv", "ply"):
            path = tmp_path / f"M1_{res}.{fmt}"
            ea.export_point_cloud(ea.get_model("M1"), path, resolution=res, fmt=fmt)
            digests[f"export/M1/{res}/{fmt}"] = workloads.file_digest(path)
    assert digests == json.loads((ROOT / "bench" / "digests.json").read_text())
