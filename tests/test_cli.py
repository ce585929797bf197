import json

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


class TestDeterminism:
    def test_repeat_run_identical_modulo_timestamp(self, capsys):
        argv = ["prob", "M2", "--samples", "100000", "--seed", "5"]
        _, rec1 = run_cli(capsys, *argv)
        _, rec2 = run_cli(capsys, *argv)
        assert canonical(rec1) == canonical(rec2)
