"""Command-line front end: every computation, machine-readable JSON on stdout.

Each run emits a single JSON document embedding the resolved configuration
(for replayability), the package version and the result payload; the
timestamp is carried in a separate top-level field so the rest of the
payload is byte-identical across repeated runs with the same arguments.
Diagnostics go to stderr.

``OPTIONS`` is the one place a flag is defined: its type, choices and
default, its ``--config`` key and its echo in the run record.

Exit codes: 0 success, 2 usage error, 3 numeric/contract failure, 4 I/O error.
"""

import argparse
import json
import math
import sys
from datetime import datetime, timezone
from typing import Callable, NamedTuple

from . import __version__, bounds, islands, models, sampling, special
from .errors import EntarchError
from .linalg import DEFAULT_EPS_PSD


class UsageError(Exception):
    pass


def nonnegative_float(text):
    """argparse type for tolerances: a float >= 0."""
    value = float(text)
    if not value >= 0.0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def finite_float(text):
    """argparse type for coordinates: a float that is neither nan nor infinite."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


class Option(NamedTuple):
    """One flag, ``--key`` unless ``flag`` says otherwise, and the config key ``key``.

    ``choices`` maps each flag spelling to the library value it selects; the
    resolved (library) value is what the run record echoes.
    """

    key: str
    type: Callable = str
    choices: dict | None = None
    default: object = None
    flag: str | None = None


_CONSTRAINT = Option(
    "constraint", choices={c.replace("_", "-"): c for c in sampling.CONSTRAINTS}, default="multiplicative"
)
_MODE = Option(
    "physical_mode", choices={m.replace("_", "-"): m for s in models.MODELS.values() for m in s.modes}
)
_EPS_PSD = Option("eps_psd", nonnegative_float, default=DEFAULT_EPS_PSD)
_SEED = Option("seed", int, default=0)

# Keys are the library's parameter names wherever those exist, so handlers
# can pass the resolved options on as keyword arguments.
OPTIONS = {
    "prob": (
        _CONSTRAINT, Option("method", choices={"lds": "lds", "mc": "mc"}, default="mc"),
        Option("samples", int, default=1_000_000), _SEED, Option("chunk", int, default=65536),
        _MODE, _EPS_PSD,
    ),
    "classify": (_EPS_PSD, _MODE),
    "islands": (_CONSTRAINT, Option("resolution", int, default=121), _MODE, _EPS_PSD),
    "export": (
        _CONSTRAINT, Option("resolution", int), Option("samples", int),
        Option("format", choices={"csv": "csv", "ply": "ply"}, default="csv"), _SEED, _MODE,
    ),
    "bounds": (
        Option("objective", choices={"l1": "l1_norm", "product": "abs_product"}, default="product"),
        Option(
            "feasible_set",
            choices={"physical": "physical", "ppt": "ppt_and_physical"},
            default="physical",
            flag="--set",
        ),
        Option("restarts", int, default=24), _SEED,
    ),
}


def _config_file(path, options):
    """``--config`` values, checked with the same types and choices as the flags."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise UsageError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    by_key = {opt.key: opt for opt in options}
    config = {}
    for key, value in raw.items():
        opt = by_key.get(key.replace("-", "_"))
        if opt is None:
            raise UsageError(f"unknown config key {key!r}; choose from {', '.join(sorted(by_key))}")
        text = value if isinstance(value, str) else json.dumps(value)
        try:
            config[opt.key] = opt.type(text)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise UsageError(f"config value {key}={value!r}: {exc}") from None
        if opt.choices is not None and config[opt.key] not in opt.choices:
            choices = ", ".join(sorted(opt.choices))
            raise UsageError(f"config value {key}={value!r}; choose from {choices}")
    return config


def resolve_options(args) -> dict:
    """Each option's library value: from the flag, else the config file, else the default."""
    options = OPTIONS.get(args.subcommand, ())
    path = getattr(args, "config", None)
    config = _config_file(path, options) if path is not None else {}
    resolved = {}
    for opt in options:
        value = getattr(args, opt.key)
        if value is None:
            value = config.get(opt.key, opt.default)
        resolved[opt.key] = opt.choices[value] if opt.choices and value is not None else value
    return resolved


def _get_model(name):
    try:
        return models.get_model(name)
    except KeyError:
        raise UsageError(
            f"unknown model {name!r}; available models: {', '.join(sorted(models.MODELS))} "
            "(see `entarch list-models`)"
        ) from None


def cmd_list_models(args, cfg):
    return cfg, {"models": models.catalog()}


def cmd_prob(args, cfg):
    spec = _get_model(args.model)
    cfg["physical_mode"] = mode = models.resolve_mode(spec, cfg["physical_mode"])
    stream = sampling.STREAM_PSEUDO if cfg["method"] == "mc" else sampling.STREAM_LDS
    sampler = sampling.SamplerConfig(
        seed=cfg["seed"], n_samples=cfg["samples"], stream=stream, chunk_size=cfg["chunk"],
        physical_mode=mode,
    )
    est = sampling.estimate_probability(spec, cfg["constraint"], sampler, cfg["eps_psd"])
    result = est.as_dict()
    if args.compare_closed_form:
        closed = special.reference_probabilities().get((spec.model_id, cfg["constraint"], mode))
        if closed is not None:
            result["closed_form"] = closed
            if est.std_error > 0:
                result["sigmas_from_closed_form"] = (est.probability - closed) / est.std_error
    return {"model": spec.model_id, **cfg, "compare_closed_form": args.compare_closed_form}, result


def cmd_classify(args, cfg):
    spec = _get_model(args.model)
    cfg["physical_mode"] = models.resolve_mode(spec, cfg["physical_mode"])
    point = (args.t1, args.t2, args.t3)
    verdict = models.classify(spec, point, **cfg)
    result = {"model": spec.model_id, "t": list(point), **verdict.as_dict()}
    return {"model": spec.model_id, "t1": args.t1, "t2": args.t2, "t3": args.t3, **cfg}, result


def cmd_islands(args, cfg):
    spec = _get_model(args.model)
    cfg["physical_mode"] = models.resolve_mode(spec, cfg["physical_mode"])
    return {"model": spec.model_id, **cfg}, islands.enumerate_islands(spec, **cfg).as_dict()


def cmd_export(args, cfg):
    spec = _get_model(args.model)
    if cfg["samples"] is not None and cfg["resolution"] is not None:
        raise UsageError("give either --resolution or --samples, not both")
    if cfg["samples"] is None and cfg["resolution"] is None:
        cfg["resolution"] = 121
    cfg["physical_mode"] = models.resolve_mode(spec, cfg["physical_mode"])
    summary = islands.export_point_cloud(
        spec, args.out, cfg["constraint"], resolution=cfg["resolution"], n_samples=cfg["samples"],
        fmt=cfg["format"], seed=cfg["seed"], physical_mode=cfg["physical_mode"],
    )
    return {"model": spec.model_id, "out": args.out, **cfg}, summary


def cmd_verify(args, cfg):
    checks = special.verify_all()
    for c in checks:
        status = "pass" if c["passed"] else "FAIL"
        print(f"{status}: {c['name']} (residual {c['residual']:.3e})", file=sys.stderr)
    return cfg, {"checks": checks, "all_passed": special.all_passed(checks)}


def cmd_bounds(args, cfg):
    spec = _get_model(args.model)
    return {"model": spec.model_id, **cfg}, bounds.maximize(spec, **cfg).as_dict()


_COMMANDS = {  # name: (handler, help)
    "list-models": (cmd_list_models, "model catalog as JSON"),
    "prob": (cmd_prob, "Monte Carlo / low-discrepancy probability estimate"),
    "classify": (cmd_classify, "classify one parameter point"),
    "islands": (cmd_islands, "connected components of the constrained region"),
    "export": (cmd_export, "write a CSV or PLY point cloud"),
    "verify": (cmd_verify, "run every closed-form and identity check"),
    "bounds": (cmd_bounds, "maximize |t1 t2 t3| or the l1 norm over a feasible set"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entarch",
        description="Entanglement-region geometry, probabilities and island "
        "structure for the five three-parameter state families.",
    )
    sub = parser.add_subparsers(dest="subcommand")
    for name, (handler, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        if name not in OPTIONS:
            continue
        p.add_argument("model")
        if name == "classify":
            for flag in ("--t1", "--t2", "--t3"):
                p.add_argument(flag, type=finite_float, required=True)
        for opt in OPTIONS[name]:
            flag = opt.flag or "--" + opt.key.replace("_", "-")
            choices = sorted(opt.choices) if opt.choices else None
            p.add_argument(flag, dest=opt.key, type=opt.type, choices=choices)
        if name == "prob":
            p.add_argument("--compare-closed-form", action="store_true")
        if name == "export":
            p.add_argument("--out", required=True)
        p.add_argument("--config")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors itself
        return int(exc.code) if exc.code is not None else 0
    if not hasattr(args, "handler"):
        parser.print_help(sys.stderr)
        return 2
    try:
        config, result = args.handler(args, resolve_options(args))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (EntarchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    record = {"command": args.subcommand, "config": config, "version": __version__, "result": result}
    record["timestamp"] = datetime.now(timezone.utc).isoformat()
    print(json.dumps(record, sort_keys=True, indent=2))
    return 0 if result.get("all_passed", True) else 3


if __name__ == "__main__":
    sys.exit(main())
