"""Run-to-run spread of the end-to-end metrics, as the acceptance rule measures it.

    python3 bench/spread.py --workload pointwise --runs 10 [--first-seed 100]

Runs the workload once per seed, each in a fresh process, and prints for
every end-to-end metric the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the interquartile distance as a
share of the median, next to the metric's bound from ``BENCHMARK.json``.
The figures are also written to ``.bench_out/spread-<workload>.json``.
"""

import argparse
import json
import statistics
import sys

from run import ROOT, run_child


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {name: [] for name in bounds}
    correct = True
    for seed in range(args.first_seed, args.first_seed + args.runs):
        _, result = run_child(args.workload, seed, spec["run_seconds"], 0)
        correct = correct and result["correct"]
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()),
              flush=True)
    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bounds[name], "values": vals}
        print(f"{name:<16} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"spread {spread:.4f} bound {bounds[name]} "
              f"{'ok' if spread < bounds[name] / 3 else 'WIDE'}")
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / f"spread-{args.workload}.json").write_text(
        json.dumps({"workload": args.workload, "correct": correct, "metrics": summary}, indent=2)
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
