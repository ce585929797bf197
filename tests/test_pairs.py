"""One smoke pair of ``tools/pairs.py``: the parent at HEAD against the working tree."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


def test_pairs_smoke(tmp_path):
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True)
    if head.returncode != 0:
        pytest.skip("not a git checkout")
    out = tmp_path / "BENCH_0.json"
    cmd = [sys.executable, str(ROOT / "tools" / "pairs.py"), "HEAD", "--workload", "mc_analytic",
           "--smoke", "--out", str(out)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=30, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr[-2000:]
    record = json.loads(out.read_text())
    assert record["parent_revision"] == head.stdout.decode().strip()
    assert record["change_revision"].startswith("working tree on ")
    rows = record["rows"]
    assert [(r["side"], r["seed"]) for r in rows] == [("parent", 1), ("change", 1)]
    assert all(r["correct"] and r["failed"] == 0 and set(r["metrics"]) == set(END_TO_END)
               for r in rows)
    summary = record["summary"]["mc_analytic"]
    assert summary["correct"] == {"parent": True, "change": True}
    for name in END_TO_END:
        entry = summary[name]
        assert entry["pairs"] == 1 and entry["change_wins"] + entry["change_losses"] <= 1
        assert entry["parent"]["q1"] == entry["parent"]["median"] == entry["parent"]["q3"]
