"""Alternating parent/change benchmark pairs, written to one ``BENCH_<n>.json``.

    python tools/pairs.py PARENT [CHANGE] --out BENCH_<n>.json [--workload W ...]

PARENT and CHANGE are git revisions of this repository; without CHANGE the
working tree (its tracked and untracked, not ignored, files) is the change.
Each side is exported into its own temporary directory (``git archive``, or a
copy of the working tree's files), so each runs the benchmark code of its own
checkout with identical settings.  For every workload (default: all of
``BENCHMARK.json``) pair k runs

    python3 bench/run.py --workload W --seed i --seconds S --trace 0

once on each side with seed i = k + 1 for k < PAIRS, one run at a time; even
k run the parent first, odd k the change.  The JSON lists every run (metrics,
``correct``, ``attempted``, ``failed``) and, per workload and end-to-end metric,
each side's median and quartiles (``statistics.quantiles(n=4)``), the
parent's interquartile distance, the pairs the change wins and loses (ties
count for neither) and the change of the medians relative to the parent's.
It is rewritten after every run, so an interrupted series keeps its runs.
``--smoke`` makes one pair per workload at the benchmark's smoke sizes, a
check of the tool rather than a measurement.
"""

import argparse
import io
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_TIMEOUT_S = 600
PAIRS = 10


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def export(revision, dest: Path) -> str:
    """Write ``revision``'s files, or the working tree's for None, to ``dest``; name it."""
    if revision is not None:
        sha = git("rev-parse", "--verify", f"{revision}^{{commit}}")
        tar = subprocess.run(["git", "archive", sha], cwd=ROOT, capture_output=True, check=True)
        with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
            # The "data" filter exists from Python 3.10.12 and 3.11.4 on.
            safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
            archive.extractall(dest, **safe)
        return sha
    files = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0")
    for name in filter(None, files):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted in the working tree is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)
    return f"working tree on {git('rev-parse', 'HEAD')}"


def run(checkout: Path, workload: str, seed: int, seconds: int, smoke: bool) -> tuple:
    """One benchmark run in ``checkout``: (environment, result line)."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", *(["--smoke"] if smoke else [])]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}: "
                           f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"]["environment"], json.loads(lines[-1])


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def summarize(rows) -> dict:
    """Per workload and end-to-end metric: both sides' quartiles and the pair wins."""
    summary = {}
    for workload in dict.fromkeys(row["workload"] for row in rows):
        runs = {side: [r for r in rows if r["workload"] == workload and r["side"] == side]
                for side in ("parent", "change")}
        pairs = min(len(runs["parent"]), len(runs["change"]))
        entry = {
            "correct": {side: all(r["correct"] for r in rs) for side, rs in runs.items()},
            "failed_calls": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
        }
        for m in BENCHMARK["end_to_end"] if pairs else ():
            name, sign = m["name"], (1.0 if m["better"] == "higher" else -1.0)
            vals = {side: [r["metrics"][name] for r in rs[:pairs]] for side, rs in runs.items()}
            diffs = [sign * (c - p) for p, c in zip(vals["parent"], vals["change"])]
            parent, change = quartiles(vals["parent"]), quartiles(vals["change"])
            entry[name] = {
                "better": m["better"],
                "pairs": pairs,
                "parent": parent,
                "change": change,
                "parent_iqr": parent["q3"] - parent["q1"],
                "change_wins": sum(d > 0 for d in diffs),
                "change_losses": sum(d < 0 for d in diffs),
                "change_vs_parent": change["median"] / parent["median"] - 1.0,
            }
        summary[workload] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git revision of the parent side")
    parser.add_argument("change", nargs="?", help="git revision of the change (default: working tree)")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in BENCHMARK["workloads"]],
                        help="repeat for several; default every workload of BENCHMARK.json")
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_<n>.json to write")
    parser.add_argument("--note", default="", help="what the change is, stored as `what`")
    parser.add_argument("--smoke", action="store_true", help="one pair per workload, tiny sizes")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in BENCHMARK["workloads"]]
    pairs, seconds = (1, 1) if args.smoke else (PAIRS, BENCHMARK["run_seconds"])
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        checkouts = {side: Path(tmp) / side for side in ("parent", "change")}
        for path in checkouts.values():
            path.mkdir()
        record = {
            "what": args.note,
            "command": ["python", "tools/pairs.py", *(argv if argv is not None else sys.argv[1:])],
            "parent_revision": export(args.parent, checkouts["parent"]),
            "change_revision": export(args.change, checkouts["change"]),
            "method": f"bench/run.py --workload W --seed i --seconds {seconds} --trace 0"
                      f"{' --smoke' if args.smoke else ''}, one run at a time in a fresh export "
                      "of each side; even pairs run the parent first, odd pairs the change",
            "host": {"machine": platform.machine()},
            "rows": [],
        }
        for workload in workloads:
            for k in range(pairs):
                seed = k + 1
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for side in order:
                    env, result = run(checkouts[side], workload, seed, seconds, args.smoke)
                    record["host"].update((key, env[key]) for key in ("nproc", "python", "numpy", "scipy"))
                    record["rows"].append({
                        "workload": workload, "seed": seed, "side": side, "first": order[0],
                        "correct": result["correct"], "attempted": result["attempted"],
                        "failed": result["failed"],
                        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
                    })
                    record["summary"] = summarize(record["rows"])
                    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
                    print(f"{workload} seed {seed} {side}: correct={result['correct']} "
                          f"failed={result['failed']}", file=sys.stderr, flush=True)
    ok = all(row["correct"] and not row["failed"] for row in record["rows"])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
