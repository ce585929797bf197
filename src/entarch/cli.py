"""Command-line front end: every computation, machine-readable JSON on stdout.

Each run emits a single JSON document embedding the resolved configuration
(for replayability), the package version and the result payload; the
timestamp is carried in a separate top-level field so the rest of the
payload is byte-identical across repeated runs with the same arguments.
Diagnostics go to stderr.

Exit codes: 0 success, 2 usage error, 3 numeric/contract failure, 4 I/O error.
"""

import argparse
import json
import sys
from datetime import datetime, timezone

from . import __version__, bounds, islands, models, sampling, special
from .errors import EntarchError

_CONSTRAINT_FLAGS = {c.replace("_", "-"): c for c in sampling.CONSTRAINTS}
_MODE_FLAGS = {m.replace("_", "-"): m for s in models.MODELS.values() for m in s.modes}
_METHOD_FLAGS = {"mc": sampling.STREAM_PSEUDO, "lds": sampling.STREAM_LDS}
_OBJECTIVE_FLAGS = {"product": "abs_product", "l1": "l1_norm"}
_SET_FLAGS = {"physical": "physical", "ppt": "ppt_and_physical"}


class UsageError(Exception):
    pass


def nonnegative_float(text):
    """argparse type for tolerances: a float >= 0."""
    value = float(text)
    if not value >= 0.0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _load_config(args):
    """``--config FILE`` values, checked with the subcommand's own flag types and choices."""
    if args.config is None:
        return {}
    with open(args.config, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise UsageError(f"config file {args.config} must hold a JSON object")
    actions = {
        a.dest: a
        for a in args.parser._actions
        if a.option_strings and a.nargs != 0 and not a.required and a.dest != "config"
    }
    config = {}
    for key, value in raw.items():
        action = actions.get(str(key).replace("-", "_"))
        if action is None:
            raise UsageError(f"unknown config key {key!r}; choose from {', '.join(sorted(actions))}")
        text = value if isinstance(value, str) else json.dumps(value)
        try:
            config[action.dest] = (action.type or str)(text)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise UsageError(f"config value {key}={value!r}: {exc}") from None
        if action.choices is not None and config[action.dest] not in action.choices:
            raise UsageError(f"config value {key}={value!r}; choose from {', '.join(action.choices)}")
    return config


def _resolve(args, config, key, default):
    """The flag's value, else the config file's, else ``default``."""
    value = getattr(args, key, None)
    return value if value is not None else config.get(key, default)


def _get_model(name):
    try:
        return models.get_model(name)
    except KeyError:
        raise UsageError(
            f"unknown model {name!r}; available models: {', '.join(sorted(models.MODELS))} "
            "(see `entarch list-models`)"
        ) from None


def _record(command, config, result):
    return {
        "command": command,
        "config": config,
        "version": __version__,
        "result": result,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _emit(record):
    print(json.dumps(record, sort_keys=True, indent=2))


def cmd_list_models(args):
    record = _record("list-models", {}, {"models": models.catalog()})
    _emit(record)
    return 0


def cmd_prob(args):
    config = _load_config(args)
    spec = _get_model(args.model)
    constraint = _CONSTRAINT_FLAGS[_resolve(args, config, "constraint", "multiplicative")]
    method = _resolve(args, config, "method", "mc")
    samples = int(_resolve(args, config, "samples", 1_000_000))
    seed = int(_resolve(args, config, "seed", 0))
    chunk = int(_resolve(args, config, "chunk", 65536))
    mode_flag = _resolve(args, config, "physical_mode", None)
    mode = models.resolve_mode(spec, _MODE_FLAGS[mode_flag] if mode_flag else None)
    eps_psd = float(_resolve(args, config, "eps_psd", 1e-12))
    cfg = sampling.SamplerConfig(
        seed=seed,
        n_samples=samples,
        stream=_METHOD_FLAGS[method],
        chunk_size=chunk,
        physical_mode=mode,
    )
    est = sampling.estimate_probability(spec, constraint, cfg, eps_psd=eps_psd)
    result = est.as_dict()
    if args.compare_closed_form:
        closed = special.reference_probabilities().get((spec.model_id, constraint, mode))
        if closed is not None:
            result["closed_form"] = closed
            if est.std_error > 0:
                result["sigmas_from_closed_form"] = (est.probability - closed) / est.std_error
    cfg_echo = {
        "model": spec.model_id,
        "constraint": constraint,
        "method": method,
        "samples": samples,
        "seed": seed,
        "chunk": chunk,
        "physical_mode": mode,
        "eps_psd": eps_psd,
        "compare_closed_form": bool(args.compare_closed_form),
    }
    _emit(_record("prob", cfg_echo, result))
    return 0


def cmd_classify(args):
    config = _load_config(args)
    spec = _get_model(args.model)
    point = (float(args.t1), float(args.t2), float(args.t3))
    eps_psd = float(_resolve(args, config, "eps_psd", 1e-12))
    mode_flag = _resolve(args, config, "physical_mode", None)
    mode = models.resolve_mode(spec, _MODE_FLAGS[mode_flag] if mode_flag else None)
    verdict = models.classify(spec, point, eps_psd=eps_psd, physical_mode=mode)
    result = {"model": spec.model_id, "t": list(point), **verdict.as_dict()}
    cfg_echo = {
        "model": spec.model_id,
        "t1": point[0],
        "t2": point[1],
        "t3": point[2],
        "eps_psd": eps_psd,
        "physical_mode": mode,
    }
    _emit(_record("classify", cfg_echo, result))
    return 0


def cmd_islands(args):
    config = _load_config(args)
    spec = _get_model(args.model)
    constraint = _CONSTRAINT_FLAGS[_resolve(args, config, "constraint", "multiplicative")]
    resolution = int(_resolve(args, config, "resolution", 121))
    eps_psd = float(_resolve(args, config, "eps_psd", 1e-12))
    mode_flag = _resolve(args, config, "physical_mode", None)
    mode = models.resolve_mode(spec, _MODE_FLAGS[mode_flag] if mode_flag else None)
    report = islands.enumerate_islands(
        spec, constraint, resolution, physical_mode=mode, eps_psd=eps_psd
    )
    cfg_echo = {
        "model": spec.model_id,
        "constraint": constraint,
        "resolution": resolution,
        "eps_psd": eps_psd,
        "physical_mode": mode,
    }
    _emit(_record("islands", cfg_echo, report.as_dict()))
    return 0


def cmd_export(args):
    config = _load_config(args)
    spec = _get_model(args.model)
    constraint = _CONSTRAINT_FLAGS[_resolve(args, config, "constraint", "multiplicative")]
    fmt = _resolve(args, config, "format", "csv")
    seed = int(_resolve(args, config, "seed", 0))
    samples = _resolve(args, config, "samples", None)
    resolution = _resolve(args, config, "resolution", None)
    if samples is not None and resolution is not None:
        raise UsageError("give either --resolution or --samples, not both")
    if samples is None and resolution is None:
        resolution = 121
    mode_flag = _resolve(args, config, "physical_mode", None)
    mode = models.resolve_mode(spec, _MODE_FLAGS[mode_flag] if mode_flag else None)
    summary = islands.export_point_cloud(
        spec,
        args.out,
        constraint=constraint,
        resolution=int(resolution) if resolution is not None else None,
        n_samples=int(samples) if samples is not None else None,
        fmt=fmt,
        seed=seed,
        physical_mode=mode,
    )
    cfg_echo = {
        "model": spec.model_id,
        "constraint": constraint,
        "resolution": resolution,
        "samples": samples,
        "out": str(args.out),
        "format": fmt,
        "seed": seed,
        "physical_mode": mode,
    }
    _emit(_record("export", cfg_echo, summary))
    return 0


def cmd_verify(args):
    checks = special.verify_all()
    ok = special.all_passed(checks)
    for c in checks:
        status = "pass" if c["passed"] else "FAIL"
        print(f"{status}: {c['name']} (residual {c['residual']:.3e})", file=sys.stderr)
    _emit(_record("verify", {}, {"checks": checks, "all_passed": ok}))
    return 0 if ok else 3


def cmd_bounds(args):
    config = _load_config(args)
    spec = _get_model(args.model)
    objective = _OBJECTIVE_FLAGS[_resolve(args, config, "objective", "product")]
    feasible_set = _SET_FLAGS[_resolve(args, config, "feasible_set", "physical")]
    restarts = int(_resolve(args, config, "restarts", 24))
    seed = int(_resolve(args, config, "seed", 0))
    result = bounds.maximize(
        spec, objective=objective, feasible_set=feasible_set, restarts=restarts, seed=seed
    )
    cfg_echo = {
        "model": spec.model_id,
        "objective": objective,
        "feasible_set": feasible_set,
        "restarts": restarts,
        "seed": seed,
    }
    _emit(_record("bounds", cfg_echo, result.as_dict()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entarch",
        description="Entanglement-region geometry, probabilities and island "
        "structure for the five three-parameter state families.",
    )
    sub = parser.add_subparsers(dest="subcommand")

    p = sub.add_parser("list-models", help="model catalog as JSON")
    p.set_defaults(handler=cmd_list_models)

    p = sub.add_parser("prob", help="Monte Carlo / low-discrepancy probability estimate")
    p.add_argument("model")
    p.add_argument("--constraint", choices=sorted(_CONSTRAINT_FLAGS))
    p.add_argument("--method", choices=sorted(_METHOD_FLAGS))
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--chunk", type=int)
    p.add_argument("--physical-mode", dest="physical_mode", choices=sorted(_MODE_FLAGS))
    p.add_argument("--eps-psd", dest="eps_psd", type=nonnegative_float)
    p.add_argument("--compare-closed-form", action="store_true")
    p.add_argument("--config")
    p.set_defaults(handler=cmd_prob, parser=p)

    p = sub.add_parser("classify", help="classify one parameter point")
    p.add_argument("model")
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--t2", type=float, required=True)
    p.add_argument("--t3", type=float, required=True)
    p.add_argument("--eps-psd", dest="eps_psd", type=nonnegative_float)
    p.add_argument("--physical-mode", dest="physical_mode", choices=sorted(_MODE_FLAGS))
    p.add_argument("--config")
    p.set_defaults(handler=cmd_classify, parser=p)

    p = sub.add_parser("islands", help="connected components of the constrained region")
    p.add_argument("model")
    p.add_argument("--constraint", choices=sorted(_CONSTRAINT_FLAGS))
    p.add_argument("--resolution", type=int)
    p.add_argument("--physical-mode", dest="physical_mode", choices=sorted(_MODE_FLAGS))
    p.add_argument("--eps-psd", dest="eps_psd", type=nonnegative_float)
    p.add_argument("--config")
    p.set_defaults(handler=cmd_islands, parser=p)

    p = sub.add_parser("export", help="write a CSV or PLY point cloud")
    p.add_argument("model")
    p.add_argument("--constraint", choices=sorted(_CONSTRAINT_FLAGS))
    p.add_argument("--resolution", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "ply"))
    p.add_argument("--seed", type=int)
    p.add_argument("--physical-mode", dest="physical_mode", choices=sorted(_MODE_FLAGS))
    p.add_argument("--config")
    p.set_defaults(handler=cmd_export, parser=p)

    p = sub.add_parser("verify", help="run every closed-form and identity check")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("bounds", help="maximize |t1 t2 t3| or the l1 norm over a feasible set")
    p.add_argument("model")
    p.add_argument("--objective", choices=sorted(_OBJECTIVE_FLAGS))
    p.add_argument("--set", dest="feasible_set", choices=sorted(_SET_FLAGS))
    p.add_argument("--restarts", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--config")
    p.set_defaults(handler=cmd_bounds, parser=p)

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
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (EntarchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
