"""Print one ``name sha256`` line per output of the checkout this script sits in.

Run it in two checkouts and diff the listings to see which outputs a change
moved; a refactor that promises bit-identical results should move none:

    python tools/bitident.py > after.txt

Covered: CLI runs (stdout without ``timestamp``, stderr, exit code and the
files written), island reports, grid and sample exports, the six result
record types, ``verify_all``, ``extremal_states``, ``maximize``, seeded
probability estimates, built states and classifications on seeded points,
the couplings and the generator bases.  Floats are hashed through ``repr``
(JSON) or raw bytes, so a one-ulp change shows.  An output that raises is
hashed as its exception type and message.  Takes a few seconds.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from entarch import (  # noqa: E402
    bounds,
    cli,
    generators,
    islands,
    models,
    sampling,
    special,
)
from entarch.errors import EntarchError  # noqa: E402

MODEL_IDS = sorted(models.MODELS)

# Each CLI case: argv and the ``--config`` file it reads (None for none).
CLI_CASES = [
    (["list-models"], None),
    (["verify"], None),
    (["prob", "M1", "--samples", "4096", "--seed", "3"], None),
    (["prob", "M2", "--samples", "4096", "--method", "lds", "--compare-closed-form"], None),
    (["prob", "M3", "--constraint", "non-ppt", "--samples", "4096", "--chunk", "1000"], None),
    (["prob", "M5", "--samples", "4096", "--eps-psd", "1e-9"], None),
    (["prob", "M1", "--samples", "4096", "--physical-mode", "psd-oracle"], None),
    (["classify", "M1", "--t1", "0.24", "--t2", "0.49", "--t3", "0.24"], None),
    (["classify", "M3", "--t1", "1", "--t2", "1", "--t3", "-1"], None),
    (["classify", "M5", "--t1", "0.1", "--t2", "-0.2", "--t3", "0.3"], None),
    (["islands", "M1", "--resolution", "33", "--constraint", "additive"], None),
    (["islands", "M5", "--resolution", "33", "--constraint", "additive"], None),
    (["export", "M1", "--resolution", "33", "--out", "grid.csv"], None),
    (["export", "M3", "--samples", "4096", "--format", "ply", "--out", "cloud.ply"], None),
    (["bounds", "M3", "--objective", "l1", "--set", "ppt", "--restarts", "8"], None),
    (["bounds", "M1", "--restarts", "8", "--seed", "2"], None),
    (["prob", "M9"], None),
    (["prob", "M5", "--physical-mode", "analytic"], None),
    (["prob", "M1", "--bogus"], None),
    ([], None),
    (["islands", "M1", "--resolution", "40"], None),
    (["export", "M1", "--resolution", "41", "--samples", "100", "--out", "x.csv"], None),
    (["export", "M1", "--resolution", "41", "--samples", "100", "--physical-mode", "paper-cube",
      "--out", "x.csv"], None),
    (["export", "M9", "--resolution", "41", "--samples", "100", "--out", "x.csv"], None),
    (["export", "M1", "--resolution", "41", "--out", "no_such_dir/x.csv"], None),
    (["classify", "M1", "--t1=nan", "--t2", "0", "--t3", "0"], None),
    (["prob", "M1", "--eps-psd", "inf"], None),
    (["prob", "M1", "--samples", "4096"], {"constraint": "bogus"}),
    (["prob", "M1", "--samples", "4096"], {"sample": 5}),
    (["prob", "M1", "--config", "cfg.json", "--seed", "5"],
     {"constraint": "non-ppt", "physical-mode": "psd-oracle", "eps_psd": 1e-9, "samples": 4096,
      "method": "lds", "chunk": 1024, "seed": 1}),
    (["export", "M2", "--config", "cfg.json", "--out", "cloud.csv"],
     {"resolution": 33, "constraint": "additive-minus-mult"}),
]

# Flag beats config beats default: per option key a config value and a
# different flag value, the cheap flags of each subcommand and its required
# arguments (the cases of the option-table tests in tests/test_cli.py).
OPTION_VALUES = {
    "constraint": ("additive", "non-ppt"),
    "method": ("lds", "mc"),
    "samples": (3000, 2000),
    "seed": (7, 9),
    "chunk": (1024, 512),
    "physical_mode": ("psd-oracle", "analytic"),
    "eps_psd": (1e-10, 1e-9),
    "resolution": (35, 37),
    "format": ("ply", "csv"),
    "objective": ("l1", "product"),
    "feasible_set": ("ppt", "physical"),
    "restarts": (9, 10),
}
CHEAP_FLAGS = {
    "prob": {"samples": "2000"},
    "classify": {},
    "islands": {"resolution": "33"},
    "export": {"samples": "2000"},
    "bounds": {"restarts": "8"},
}
REQUIRED = {
    "classify": ["--t1", "0.1", "--t2", "0.1", "--t3", "0.1"],
    "export": ["--out", "cloud.csv"],
}


def _option_cases():
    defaults = set()  # a command's default run is one case, whichever option it is for
    for command, options in cli.OPTIONS.items():
        for opt in options:
            from_config, from_flag = OPTION_VALUES[opt.key]
            cheap = {k: v for k, v in CHEAP_FLAGS[command].items() if k != opt.key}
            if command == "export" and opt.key == "resolution":
                cheap.pop("samples")
            base = [command, "M1", *REQUIRED.get(command, [])]
            for key, value in cheap.items():
                base += [f"--{key}", value]
            flag = opt.flag or "--" + opt.key.replace("_", "-")
            config = {opt.key: from_config}
            yield [*base, "--config", "cfg.json", flag, str(from_flag)], config
            yield [*base, "--config", "cfg.json"], config
            if tuple(base) not in defaults:
                defaults.add(tuple(base))
                yield base, None


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json(value) -> bytes:
    return json.dumps(value, sort_keys=True, default=_jsonable).encode()


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return {"dtype": str(value.dtype), "shape": value.shape, "sha256": _sha(value.tobytes())}
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"cannot hash {type(value).__name__}")


def _record(make):
    """``make()`` as a dict, or the library error it raised: an output like any other."""
    try:
        out = make()
    except (EntarchError, ValueError) as exc:
        return {"raised": type(exc).__name__, "message": str(exc)}
    return out.as_dict() if hasattr(out, "as_dict") else out


def _cli_run(argv, config, workdir):
    """Exit code, stdout without ``timestamp``, stderr and written files of one run."""
    for path in workdir.iterdir():
        path.unlink()
    if config is not None:
        (workdir / "cfg.json").write_text(json.dumps(config))
        if "--config" not in argv:
            argv = [*argv, "--config", "cfg.json"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    record = json.loads(out.getvalue()) if out.getvalue().strip() else None
    if record is not None:
        record.pop("timestamp")
    files = {p.name: _sha(p.read_bytes()) for p in sorted(workdir.iterdir())}
    return {"code": code, "stdout": record, "stderr": err.getvalue(), "files": files}


def _cli_outputs():
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        os.chdir(workdir)
        try:
            for argv, config in [*CLI_CASES, *_option_cases()]:
                name = "cli:" + "_".join(argv)
                if config is not None:
                    name += "+cfg=" + json.dumps(config, sort_keys=True, separators=(",", ":"))
                yield name, _json(_cli_run(argv, config, workdir))
        finally:
            os.chdir(cwd)


def _island_outputs():
    cases = [(mid, constraint, 33) for mid in MODEL_IDS for constraint in sampling.CONSTRAINTS]
    # M5's one island and its empty archipelago again on a finer grid
    cases += [("M5", "multiplicative", 51), ("M5", "additive", 51)]
    for mid, constraint, res in cases:
        report = _record(lambda: islands.enumerate_islands(models.MODELS[mid], constraint, res))
        yield f"islands/{mid}/{constraint}/{res}", _json(report)


def _export_outputs():
    cases = [
        ("M1", "multiplicative", {"resolution": 33}),
        ("M3", "non_ppt", {"resolution": 33}),
        ("M5", "additive", {"resolution": 33}),
        ("M2", "additive_minus_mult", {"n_samples": 4096, "seed": 1}),
        ("M3", "multiplicative", {"n_samples": 4096}),
        ("M5", "non_ppt", {"n_samples": 4096}),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        for mid, constraint, kwargs in cases:
            for fmt in ("csv", "ply"):
                path = Path(tmp) / f"cloud.{fmt}"
                path.unlink(missing_ok=True)
                summary = _record(
                    lambda: islands.export_point_cloud(
                        models.MODELS[mid], path, constraint, fmt=fmt, **kwargs
                    )
                )
                summary.pop("path", None)
                mode = "grid" if "resolution" in kwargs else "samples"
                data = _json(summary) + (path.read_bytes() if path.exists() else b"")
                yield f"export/{mid}/{constraint}/{mode}/{fmt}", data


def _record_outputs():
    get = models.get_model
    records = {
        "Classification": lambda: models.classify(get("M1"), (0.2, 0.45, 0.25)),
        "FormulaReport": special.p1_original,
        "Island": lambda: islands.enumerate_islands(get("M1"), "multiplicative", 33).islands[0],
        "IslandReport": lambda: islands.enumerate_islands(get("M2"), "multiplicative", 33),
        "OptResult": lambda: bounds.maximize(get("M1"), "abs_product", restarts=8),
        "VolumeEstimate": lambda: sampling.estimate_probability(
            get("M3"), "additive", sampling.SamplerConfig(seed=3, n_samples=5000)
        ),
    }
    for name, make in records.items():
        record = make()
        yield f"record/{name}", _json([type(record).__name__, record.as_dict()])
    for report in (special.p1_original, special.p1_simplified, special.p2_closed):
        yield f"formula/{report.__name__}", _json(report().as_dict())
    yield "verify_all", _json(special.verify_all())
    yield "extremal_states", _json(models.extremal_states())
    yield "reference_probabilities", _json(sorted(special.reference_probabilities().items()))
    yield "catalog", _json(models.catalog())


def _maximize_outputs():
    for mid in MODEL_IDS:
        for objective in bounds.OBJECTIVES:
            for feasible_set in bounds.FEASIBLE_SETS:
                result = _record(
                    lambda: bounds.maximize(models.MODELS[mid], objective, feasible_set, restarts=8)
                )
                yield f"maximize/{mid}/{objective}/{feasible_set}", _json(result)


def _estimate_outputs():
    for mid in MODEL_IDS:
        spec = models.MODELS[mid]
        for constraint in sampling.CONSTRAINTS:
            for mode in spec.modes:
                for stream in (sampling.STREAM_PSEUDO, sampling.STREAM_LDS):
                    cfg = sampling.SamplerConfig(
                        seed=11, n_samples=2**12, stream=stream, physical_mode=mode
                    )
                    estimate = _record(lambda: sampling.estimate_probability(spec, constraint, cfg))
                    yield f"estimate/{mid}/{constraint}/{mode}/{stream}", _json(estimate)


def _state_outputs():
    for mid in MODEL_IDS:
        spec = models.MODELS[mid]
        rng = np.random.default_rng(2020)
        pts = (2.0 * rng.random((200, 3)) - 1.0) * 1.1 * spec.box_half
        states = np.array([models.build_state(spec, t) for t in pts])
        yield f"build_state/{mid}", _json(states)
        yield f"build_states/{mid}", _json(models.build_states(spec, pts))
        for mode in spec.modes:
            verdicts = [
                _record(lambda: models.classify(spec, t, physical_mode=mode)) for t in pts[:40]
            ]
            yield f"classify/{mid}/{mode}", _json(verdicts)
        yield f"couplings/{mid}", _json(spec.coupling_matrices)
        yield f"coupling_blocks/{mid}", _json([list(group) for group in spec.coupling_blocks])
        yield f"pt_signs/{mid}", _json(spec.pt_signs)
    for n in (2, 3, 4):
        yield f"generator_basis/{n}", _json(np.array(generators.generator_basis(n)))


def outputs():
    """Every (name, bytes) output, in a fixed order."""
    for group in (
        _cli_outputs,
        _island_outputs,
        _export_outputs,
        _record_outputs,
        _maximize_outputs,
        _estimate_outputs,
        _state_outputs,
    ):
        yield from group()


def digests() -> list:
    """``(name, sha256)`` per output, in a fixed order."""
    return [(name, _sha(data)) for name, data in outputs()]


def main() -> int:
    for name, digest in digests():
        print(name, digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
