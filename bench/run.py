"""Benchmark for entarch: closed-loop workloads, end-to-end and per-layer metrics.

Run from the repository root; the package is imported from ``src/``:

    python3 bench/run.py --workload mc_analytic --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --all          # every workload, fresh process each, both runs
    python3 bench/run.py --self-test    # tiny sizes: metric names/units, failing checks

One workload run prints a JSON report line and, as the last line of stdout,
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the public functions of
every layer are wrapped (see ``tracer.py``) and the metrics are per layer,
per pass.  A run makes ``round(seconds / pass_s)`` passes (at least one),
where ``pass_s`` is the workload's nominal pass time on the seed code, so
every commit measures the same work.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("mc_analytic", "oracle_psd", "grid_islands", "pointwise")
SETUP_PROBES = 3
SPAN_LOG_LIMIT = 250_000  # spans written out per traced run; totals count them all
CHILD_TIMEOUT_S = 170
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "call_s_p50": "s",
    "call_s_tail": "s",
    "accepted_per_s": "1/s",
    "voxels_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "sampling.count_constraint.self_s": "s",
    "sampling.draws": "count",
    "sampling.accepted": "count",
    "sampling.acceptance": "ratio",
    "sampling.constraint_mask.self_s": "s",
    "models.physical_mask.self_s": "s",
    "models.physical_mask.points": "count",
    "models.ppt_mask.self_s": "s",
    "models.build_states.self_s": "s",
    "models.build_states.matrices": "count",
    "models.build_states.bytes_out": "B_computed",
    "linalg.eigvalsh_stack.self_s": "s",
    "linalg.eigvalsh_stack.matrices": "count",
    "islands.label_components.self_s": "s",
    "islands.enumerate_islands.self_s": "s",
    "islands.occupied_voxels": "count",
    "islands.export_point_cloud.self_s": "s",
    "islands.export.bytes_written": "B",
    "linalg.hermitian_eigenvalues.self_s": "s",
    "linalg.hermitian_eigenvalues.calls": "count",
    "linalg.hermitian_eigenvalues.sweeps": "count",
    "models.classify.self_s": "s",
    "models.classify.calls": "count",
    "bounds.maximize.self_s": "s",
    "bounds.maximize.feasibility_checks": "count",
    "special.verify_all.total_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.top_level_s": "s",
    "trace.uncovered_s": "s",
    "trace.spans": "count",
    "trace.missing_functions": "count",
    "run.calls": "count",
    "run.tail_percentile": "%",
    "run.error_rate": "ratio",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads():
    """Cap the BLAS thread pools at nproc; must run before numpy is imported."""
    limit = nproc()
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        os.environ[var] = str(min(int(current), limit)) if current.isdigit() else str(limit)


def import_entarch():
    """Import entarch from this checkout's ``src/``, or exit non-zero."""
    if not (SRC / "entarch" / "__init__.py").is_file():
        sys.exit(f"bench: no entarch package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import entarch

    if Path(entarch.__file__).resolve().parent != SRC / "entarch":
        sys.exit(f"bench: imported entarch from {entarch.__file__}, not from {SRC}")
    return entarch


def git_revision() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "revision": git_revision(),
    }


def tail(latencies) -> tuple:
    """The highest percentile with at least ten calls beyond it: (value, percentile).

    With ten calls or fewer no such percentile exists; the maximum is reported
    as the 100th percentile.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    rank = n - 10
    return ordered[rank - 1], 100.0 * rank / n


def accepted_and_points(kind: str, result) -> tuple:
    """(physical points produced, parameter points evaluated) by one call."""
    if kind == "estimate":
        return result.n_physical, result.n_samples
    if kind == "grid":
        return result.physical_voxels, result.resolution**3
    if kind == "export":
        return 0, result["resolution"] ** 3
    if kind == "classify":
        return int(result.physical), 1
    return 0, 0


class Runner:
    """Runs the warm-up and the timed passes of one workload, collecting results."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.latencies = []
        self.failures = []
        self.attempted = 0
        self.accepted = 0
        self.points = 0
        self.accepted_s = 0.0
        self.points_s = 0.0

    def call(self, c, traced=False):
        """Time one call, then check it; only ``run`` is inside the timer."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.call_id = self.attempted
            self.tracer.active = traced
        t0 = time.perf_counter()
        try:
            result = c.run()
            error = None
        except Exception as exc:  # a failing call is counted, not fatal
            error = f"{c.label}: {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        self._pause()
        self.latencies.append(dt)
        if error is not None:
            self.failures.append(error)
            return
        try:
            ok = bool(c.check(result))
        except Exception as exc:
            self.failures.append(f"{c.label}: check raised {type(exc).__name__}: {exc}")
            return
        if not ok:
            self.failures.append(f"{c.label}: wrong result")
            return
        accepted, points = accepted_and_points(c.kind, result)
        if c.kind in self.workload.accepted_kinds:
            self.accepted += accepted
            self.accepted_s += dt
        if c.kind in self.workload.points_kinds:
            self.points += points
            self.points_s += dt

    def _pause(self):
        if self.tracer is not None:
            self.tracer.active = False

    def run_pass(self, index, traced=False) -> float:
        calls = self.workload.make_pass(index)
        t0 = time.perf_counter()
        for c in calls:
            self.call(c, traced)
        return time.perf_counter() - t0


def build(name, seed, smoke, wrong_reference, scratch):
    import workloads

    return workloads.WORKLOADS[name](seed, smoke, wrong_reference, scratch)


def warm_up(workload) -> list:
    """Run the untimed warm-up calls; returns the failures."""
    runner = Runner(workload)
    for c in workload.warmup:
        runner.call(c)
    return runner.failures


def probe_main(args):
    """Child of a setup measurement: import, build, warm up, report the clock."""
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        workload = build(args.workload, args.seed, args.smoke, False, scratch)
        failures = warm_up(workload)
        print(json.dumps({"ready": time.monotonic(), "failures": failures}))
    return 1 if failures else 0


def measure_setup(args, probes) -> list:
    """Seconds from a fresh interpreter start to the end of the warm-up, per probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", args.workload,
           "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    samples = []
    for _ in range(probes):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-2000:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["ready"] - t0)
    return samples


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(runner, pass_times, setup_samples) -> dict:
    tail_s, _ = tail(runner.latencies)
    values = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(pass_times),
        "call_s_p50": statistics.median(runner.latencies),
        "call_s_tail": tail_s,
        "accepted_per_s": runner.accepted / runner.accepted_s if runner.accepted_s else 0.0,
        "voxels_per_s": runner.points / runner.points_s if runner.points_s else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: metric(values[name], unit) for name, unit in END_TO_END.items()}


def per_layer(runner, tracer, traced_times, untraced_times) -> dict:
    """Per-pass layer metrics: ``<function>.<field>`` from the span totals, counters by name."""
    passes = len(traced_times)
    values = {}
    for name in PER_LAYER:
        if name.startswith(("trace.", "run.")) or name == "sampling.acceptance":
            continue
        if name in tracer.counts:
            total = tracer.counts[name]
        else:
            function, _, field = name.rpartition(".")
            total = tracer.function(function)[field]
        values[name] = total / passes
    draws = values["sampling.draws"]
    wall = statistics.mean(traced_times)
    untraced = statistics.mean(untraced_times)
    top_level = tracer.top_level_s / passes
    _, percentile = tail(runner.latencies)
    values.update({
        "sampling.acceptance": values["sampling.accepted"] / draws if draws else 0.0,
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": wall - untraced,
        "trace.top_level_s": top_level,
        "trace.uncovered_s": wall - top_level,
        "trace.spans": tracer.spans / passes,
        "trace.missing_functions": len(tracer.missing),
        "run.calls": len(runner.latencies),
        "run.tail_percentile": percentile,
        "run.error_rate": len(runner.failures) / runner.attempted,
    })
    return {name: metric(values[name], unit) for name, unit in PER_LAYER.items()}


def workload_main(args) -> int:
    import entarch

    import tracer as tracing

    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        workload = build(args.workload, args.seed, args.smoke, args.wrong_reference, scratch)
        warm_failures = warm_up(workload)
        passes = 1 if args.smoke else max(1, round(args.seconds / workload.pass_s))
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "passes": passes,
            "environment": environment(),
        }
        if args.trace:
            # The same passes untraced first, before the wrappers exist, for the overhead.
            plain = Runner(workload)
            untraced = [plain.run_pass(p) for p in range(passes)]
            tracer = tracing.Tracer(log_limit=SPAN_LOG_LIMIT)
            tracer.install(entarch)
            runner = Runner(workload, tracer)
            traced = [runner.run_pass(p, traced=True) for p in range(passes)]
            tracer.uninstall()
            runner.failures += plain.failures
            runner.attempted += plain.attempted
            metrics = per_layer(runner, tracer, traced, untraced)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
            tracer.write(spans_path)
            report.update(
                functions=tracer.table(),
                missing=tracer.missing,
                spans_file=str(spans_path),
                spans_logged=min(tracer.spans, SPAN_LOG_LIMIT),
            )
        else:
            setup = measure_setup(args, 1 if args.smoke else SETUP_PROBES)
            runner = Runner(workload)
            times = [runner.run_pass(p) for p in range(passes)]
            metrics = end_to_end(runner, times, setup)
            report.update(setup_samples=setup, pass_times=times, latencies=runner.latencies)
    failures = warm_failures + runner.failures
    attempted = runner.attempted + len(workload.warmup)
    _, percentile = tail(runner.latencies)
    report.update(
        calls=len(runner.latencies),
        tail_percentile=percentile,
        error_rate=len(failures) / attempted,
        failures=failures[:20],
    )
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def run_child(workload, seed, seconds, trace, extra=()) -> tuple:
    """One workload in a fresh process: (report, result) parsed from its stdout."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def all_main(args) -> int:
    """Every workload, each in fresh processes: end-to-end metrics, then the traced run."""
    ok = True
    for name in WORKLOADS:
        report, result = run_child(name, args.seed, args.seconds, 0)
        _, traced = run_child(name, args.seed, args.seconds, 1)
        ok = ok and result["correct"] and traced["correct"]
        env = report["environment"]
        print(f"== {name}  seed={args.seed} passes={report['passes']} revision={env['revision']}"
              f" nproc={env['nproc']} python={env['python']} numpy={env['numpy']}"
              f" scipy={env['scipy']} blas={env['blas']}")
        for key, m in result["metrics"].items():
            print(f"  {key:<40} {m['value']:>16.6g} {m['unit']}")
        print(f"  {'error_rate':<40} {report['error_rate']:>16.6g} ratio"
              f"  ({result['failed']} of {result['attempted']} calls)")
        print(f"  {'call_s_tail is the percentile':<40} {report['tail_percentile']:>16.6g} %"
              f"  (n = {report['calls']})")
        layer = traced["metrics"]
        for key in ("trace.wall_s", "trace.top_level_s", "trace.uncovered_s", "trace.overhead_s"):
            print(f"  {key:<40} {layer[key]['value']:>16.6g} {layer[key]['unit']}")
        for key, m in layer.items():
            if not key.startswith(("trace.", "run.")) and m["value"]:
                print(f"    {key:<38} {m['value']:>16.6g} {m['unit']}")
    return 0 if ok else 1


def self_test_main(args) -> int:
    """Tiny sizes: every metric named in BENCHMARK.json is emitted with its unit,
    seed code passes its checks, and a wrong reference makes error_rate nonzero."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            _, result = run_child(name, args.seed, 1, trace, ["--smoke"])
            emitted = {k: m["unit"] for k, m in result["metrics"].items()}
            if emitted != declared[trace]:
                problems.append(f"{name} trace={trace}: metrics {emitted} != {declared[trace]}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={trace}: checks failed on correct code")
        report, result = run_child(name, args.seed, 1, 0, ["--smoke", "--wrong-reference"])
        if result["correct"] or report["error_rate"] <= 0:
            problems.append(f"{name}: a wrong reference left error_rate at 0")
        print(f"{name}: wrong reference gives error_rate {report['error_rate']:.3g}")
    for p in problems:
        print("FAIL", p)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload and print all metrics")
    parser.add_argument("--self-test", action="store_true", help="tiny-size check of the benchmark")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one pass")
    parser.add_argument("--wrong-reference", action="store_true", help="shift every check reference")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.all:
        return all_main(args)
    if args.self_test:
        return self_test_main(args)
    if args.workload is None:
        parser.error("--workload is required")
    cap_blas_threads()
    import_entarch()
    OUT.mkdir(exist_ok=True)
    return probe_main(args) if args.probe else workload_main(args)


if __name__ == "__main__":
    sys.exit(main())
