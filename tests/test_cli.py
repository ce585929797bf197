import json
import tracemalloc

import pytest

from entarch import cli, special


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def canonical(record):
    rec = dict(record)
    rec.pop("timestamp")
    return json.dumps(rec, sort_keys=True)


class TestListModels:
    def test_catalog(self, capsys):
        code, rec = run_cli(capsys, "list-models")
        assert code == 0
        ids = [m["id"] for m in rec["result"]["models"]]
        assert ids == ["M1", "M2", "M3", "M4", "M5"]
        assert rec["version"] == cli.__version__
        assert "timestamp" in rec


class TestProb:
    def test_m2_with_closed_form(self, capsys):
        code, rec = run_cli(
            capsys,
            "prob",
            "M2",
            "--constraint",
            "multiplicative",
            "--samples",
            "200000",
            "--seed",
            "42",
            "--compare-closed-form",
        )
        assert code == 0
        result = rec["result"]
        assert result["physical_mode"] == "paper_cube"
        assert abs(result["probability"] - result["closed_form"]) <= 4 * result["std_error"]
        assert abs(result["sigmas_from_closed_form"]) <= 4
        assert rec["config"]["samples"] == 200000

    def test_non_ppt_constraint_flag(self, capsys):
        code, rec = run_cli(
            capsys, "prob", "M3", "--constraint", "non-ppt", "--samples", "200000"
        )
        assert code == 0
        assert abs(rec["result"]["probability"] - 0.5) < 0.01

    def test_unknown_model_is_usage_error(self, capsys):
        code = cli.main(["prob", "M9", "--constraint", "multiplicative"])
        captured = capsys.readouterr()
        assert code == 2
        assert "M9" in captured.err and "list-models" in captured.err

    def test_unsupported_mode_is_numeric_error(self, capsys):
        code = cli.main(["prob", "M5", "--physical-mode", "analytic"])
        assert code == 3

    def test_unknown_flag_is_usage_error(self, capsys):
        assert cli.main(["prob", "M1", "--bogus"]) == 2

    def test_no_subcommand_prints_help(self, capsys):
        assert cli.main([]) == 2
        assert "list-models" in capsys.readouterr().err


class TestClassify:
    def test_bell_point(self, capsys):
        code, rec = run_cli(
            capsys, "classify", "M3", "--t1", "1", "--t2", "1", "--t3", "-1"
        )
        assert code == 0
        assert rec["result"]["label"] == "free_entangled"
        assert rec["result"]["ppt"] is False

    def test_bound_entangled_point(self, capsys):
        code, rec = run_cli(
            capsys, "classify", "M1", "--t1", "0.24", "--t2", "0.49", "--t3", "0.24"
        )
        assert code == 0
        assert rec["result"]["label"] == "bound_entangled"


class TestIslands:
    def test_m1_count(self, capsys):
        code, rec = run_cli(capsys, "islands", "M1", "--resolution", "81")
        assert code == 0
        assert rec["result"]["island_count"] == 8

    def test_even_resolution_rejected(self, capsys):
        code = cli.main(["islands", "M1", "--resolution", "40"])
        assert code == 3

    def test_resolution_beyond_memory_refused(self, capsys):
        tracemalloc.start()
        try:
            code = cli.main(["islands", "M1", "--resolution", "100001"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert "physical memory" in capsys.readouterr().err
        assert peak < 2**20


class TestExport:
    def test_csv_file(self, capsys, tmp_path):
        out = tmp_path / "cloud.csv"
        code, rec = run_cli(
            capsys,
            "export",
            "M1",
            "--constraint",
            "multiplicative",
            "--resolution",
            "41",
            "--out",
            str(out),
        )
        assert code == 0
        assert out.exists()
        assert rec["result"]["points"] > 0

    def test_io_error_exit_code(self, capsys, tmp_path):
        out = tmp_path / "no_such_dir" / "cloud.csv"
        code = cli.main(["export", "M1", "--resolution", "41", "--out", str(out)])
        assert code == 4

    def test_both_grid_and_samples_rejected(self, capsys, tmp_path):
        code = cli.main(
            ["export", "M1", "--resolution", "41", "--samples", "100", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2

    def test_both_grid_and_samples_outranks_mode_error(self, capsys, tmp_path):
        out = str(tmp_path / "x.csv")
        argv = ["export", "M1", "--resolution", "41", "--samples", "100", "--out", out]
        assert cli.main([*argv, "--physical-mode", "paper-cube"]) == 2
        assert "not both" in capsys.readouterr().err


class TestVerify:
    def test_passes(self, capsys):
        code, rec = run_cli(capsys, "verify")
        assert code == 0
        assert rec["result"]["all_passed"] is True
        assert all(c["passed"] for c in rec["result"]["checks"])

    @pytest.mark.parametrize("name", ["dilog", "acoth"])
    def test_mutation_fails(self, capsys, monkeypatch, name):
        original = getattr(special, name)
        monkeypatch.setattr(special, name, lambda x: original(x) + 1e-6)
        code, rec = run_cli(capsys, "verify")
        assert code == 3
        assert rec["result"]["all_passed"] is False


class TestBounds:
    def test_m3_octahedron(self, capsys):
        code, rec = run_cli(
            capsys,
            "bounds",
            "M3",
            "--objective",
            "product",
            "--set",
            "ppt",
            "--restarts",
            "16",
        )
        assert code == 0
        assert abs(rec["result"]["best_value"] - 1 / 27) <= 1e-6


class TestConfigFile:
    @pytest.mark.parametrize(
        "argv,values",
        [
            (["prob", "M1"], {"constraint": "bogus"}),
            (["prob", "M1"], {"sample": 5}),  # unknown key, not silently ignored
            (["prob", "M1"], {"samples": "many"}),
            (["prob", "M1"], {"eps_psd": -1}),
            (["export", "M1", "--out", "cloud.csv"], {"format": "xyz"}),
        ],
        ids=["constraint", "unknown_key", "samples_type", "eps_psd_range", "format_choice"],
    )
    def test_invalid_config_value_is_usage_error(
        self, capsys, tmp_path, monkeypatch, argv, values
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(values))
        assert cli.main([*argv, "--config", "cfg.json"]) == 2
        assert next(iter(values)) in capsys.readouterr().err

    def test_negative_eps_psd_flag_is_usage_error(self, capsys):
        assert cli.main(["prob", "M1", "--eps-psd", "-1"]) == 2
        assert "--eps-psd" in capsys.readouterr().err

    def test_infinite_eps_psd_flag_is_usage_error(self, capsys):
        # an infinite tolerance would make every point physical in the oracle mode
        argv = ["prob", "M1", "--physical-mode", "psd-oracle", "--samples", "2000"]
        assert cli.main([*argv, "--eps-psd", "inf"]) == 2
        assert "--eps-psd" in capsys.readouterr().err

    def test_infinite_eps_psd_config_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"eps_psd": 1e999}')  # json reads the overflow as inf
        argv = ["classify", "M1", "--t1", "0.4", "--t2", "0", "--t3", "0.4"]
        assert cli.main([*argv, "--physical-mode", "psd-oracle", "--config", str(cfg)]) == 2
        assert "eps_psd" in capsys.readouterr().err

    def test_config_supplies_defaults_flags_win(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"constraint": "additive", "samples": 50000, "seed": 9}))
        code, rec = run_cli(
            capsys,
            "prob",
            "M3",
            "--config",
            str(cfg),
            "--constraint",
            "multiplicative",
        )
        assert code == 0
        # flag beats config for constraint; config beat default for the rest
        assert rec["config"]["constraint"] == "multiplicative"
        assert rec["config"]["samples"] == 50000
        assert rec["config"]["seed"] == 9


class TestBoundaryValidation:
    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_non_finite_coordinate_is_usage_error(self, capsys, text):
        assert cli.main(["classify", "M1", f"--t1={text}", "--t2", "0", "--t3", "0"]) == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data", [b"{bad json", b'{"constraint": "\xe9"}'], ids=["not_json", "not_utf8"]
    )
    def test_undecodable_config_is_usage_error(self, capsys, tmp_path, data):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(data)
        assert cli.main(["prob", "M1", "--config", str(cfg)]) == 2
        assert "not valid JSON" in capsys.readouterr().err


# Config echoes as the CLI printed them before the option table drove it.
GOLDEN_ECHOES = [
    (["list-models"], None, {}),
    (
        ["prob", "M2", "--samples", "20000", "--seed", "3", "--method", "lds", "--compare-closed-form"],
        None,
        {"chunk": 65536, "compare_closed_form": True, "constraint": "multiplicative", "eps_psd": 1e-12,
         "method": "lds", "model": "M2", "physical_mode": "paper_cube", "samples": 20000, "seed": 3},
    ),
    (
        ["classify", "M1", "--t1", "0.24", "--t2", "0.49", "--t3", "0.24"],
        None,
        {"eps_psd": 1e-12, "model": "M1", "physical_mode": "analytic", "t1": 0.24, "t2": 0.49, "t3": 0.24},
    ),
    (
        ["islands", "M1", "--resolution", "33", "--constraint", "additive"],
        None,
        {"constraint": "additive", "eps_psd": 1e-12, "model": "M1", "physical_mode": "analytic",
         "resolution": 33},
    ),
    (
        ["export", "M3", "--samples", "20000", "--format", "ply", "--out", "cloud.ply"],
        None,
        {"constraint": "multiplicative", "format": "ply", "model": "M3", "out": "cloud.ply",
         "physical_mode": "analytic", "resolution": None, "samples": 20000, "seed": 0},
    ),
    (["verify"], None, {}),
    (
        ["bounds", "M3", "--objective", "l1", "--set", "ppt", "--restarts", "8"],
        None,
        {"feasible_set": "ppt_and_physical", "model": "M3", "objective": "l1_norm", "restarts": 8,
         "seed": 0},
    ),
    (
        ["prob", "M1", "--config", "cfg.json", "--seed", "5"],
        {"constraint": "non-ppt", "physical-mode": "psd-oracle", "eps_psd": 1e-9, "samples": 20000,
         "method": "lds", "chunk": 4096, "seed": 1},
        {"chunk": 4096, "compare_closed_form": False, "constraint": "non_ppt", "eps_psd": 1e-09,
         "method": "lds", "model": "M1", "physical_mode": "psd_oracle", "samples": 20000, "seed": 5},
    ),
    (
        ["export", "M2", "--config", "cfg.json", "--out", "cloud.csv"],
        {"resolution": 33, "constraint": "additive-minus-mult"},
        {"constraint": "additive_minus_mult", "format": "csv", "model": "M2", "out": "cloud.csv",
         "physical_mode": "paper_cube", "resolution": 33, "samples": None, "seed": 0},
    ),
]

# Per option key: a config value and a different flag value, both valid for M1
# and both different from the option's default.
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

# Flags that keep each run small, and each subcommand's required arguments.
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


class TestOptionTable:
    @pytest.mark.parametrize("argv,config,echo", GOLDEN_ECHOES, ids=["-".join(g[0][:2]) for g in GOLDEN_ECHOES])
    def test_echo_matches_recorded(self, capsys, tmp_path, monkeypatch, argv, config, echo):
        monkeypatch.chdir(tmp_path)
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
        code, rec = run_cli(capsys, *argv)
        assert code == 0
        assert rec["config"] == echo

    @pytest.mark.parametrize(
        "command,opt",
        [(command, opt) for command, options in cli.OPTIONS.items() for opt in options],
        ids=[f"{command}-{opt.key}" for command, options in cli.OPTIONS.items() for opt in options],
    )
    def test_flag_beats_config_beats_default(self, capsys, tmp_path, monkeypatch, command, opt):
        monkeypatch.chdir(tmp_path)
        from_config, from_flag = OPTION_VALUES[opt.key]
        cheap = {k: v for k, v in CHEAP_FLAGS[command].items() if k != opt.key}
        if command == "export" and opt.key == "resolution":
            cheap.pop("samples")  # export takes a resolution or a sample count, not both
        base = [command, "M1", *REQUIRED.get(command, [])]
        for key, value in cheap.items():
            base += [f"--{key}", value]
        (tmp_path / "cfg.json").write_text(json.dumps({opt.key: from_config}))
        flag = opt.flag or "--" + opt.key.replace("_", "-")

        def echoed(*extra):
            code, rec = run_cli(capsys, *base, *extra)
            assert code == 0
            return rec["config"][opt.key]

        def library(value):
            return opt.choices[value] if opt.choices else value

        assert echoed("--config", "cfg.json", flag, str(from_flag)) == library(from_flag)
        assert echoed("--config", "cfg.json") == library(from_config)
        assert echoed() != library(from_config)


class TestDeterminism:
    def test_repeat_run_identical_modulo_timestamp(self, capsys):
        argv = ["prob", "M2", "--samples", "100000", "--seed", "5"]
        _, rec1 = run_cli(capsys, *argv)
        _, rec2 = run_cli(capsys, *argv)
        assert canonical(rec1) == canonical(rec2)
