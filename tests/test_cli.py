"""End-to-end command line checks, run in process; the module entry
points run in a subprocess."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import corrq
from corrq import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDme:
    def test_csv_output_and_determinism(self, capsys):
        argv = ("dme", "--kind", "uniform-mean", "--n", "10", "--d", "4",
                "--trials", "20", "--scheme", "correlated-1bit")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        header, row = out.strip().split("\n")
        assert header.startswith("scheme,n,d,k,sigma_md,trials,")
        assert row.startswith("correlated-1bit,10,4,2,")
        code2, out2, _ = run(capsys, *argv)
        assert code2 == 0 and out2 == out

    def test_out_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.csv"
        code, out, _ = run(
            capsys, "dme", "--n", "10", "--d", "4", "--trials", "5",
            "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("scheme,")

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "dme", "--n", "10", "--d", "4", "--trials", "5",
            "--out", str(tmp_path / "missing" / "report.csv"),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: --out ") and err.count("\n") == 1

    def test_unwritable_out_fails_before_the_run(self, capsys, tmp_path, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("the experiment ran before --out was checked")

        monkeypatch.setattr(cli, "run_dme", no_run)
        for path in (tmp_path / "missing" / "report.csv", tmp_path):
            code, out, err = run(
                capsys, "dme", "--n", "10", "--d", "4", "--out", str(path)
            )
            assert code == 2 and out == ""
            assert err.startswith("error: --out ") and err.count("\n") == 1

    def test_non_finite_sigma_is_usage_error(self, capsys):
        for value in ("nan", "inf"):
            code, _, err = run(
                capsys, "dme", "--n", "10", "--d", "4", "--trials", "5",
                "--sigma-md", value,
            )
            assert code == 2
            assert "sigma_md" in err


    @pytest.mark.parametrize("flag", ["--k=70000", "--bit-trials=0"])
    def test_wire_limit_and_bit_trials_are_usage_errors(self, capsys, flag):
        code, out, err = run(
            capsys, "dme", "--scheme", "correlated-klevel", "--n", "10",
            "--d", "4", "--trials", "5", flag,
        )
        assert code == 2
        assert out == ""
        assert "error:" in err


class TestSweep:
    def test_grid_rows(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--axis", "k", "--grid", "3,5",
            "--schemes", "correlated-klevel", "--n", "10", "--d", "4",
            "--trials", "10",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 3
        assert lines[1].split(",")[3] == "3"
        assert lines[2].split(",")[3] == "5"

    def test_empty_grid_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--axis", "k", "--grid", ",",
            "--n", "10", "--d", "4", "--trials", "5",
        )
        assert code == 2
        assert "grid" in err


class TestBoundsCheck:
    def test_scalar_pass(self, capsys):
        code, out, _ = run(
            capsys, "bounds-check", "--kind", "lower-bound-1bit",
            "--n", "100", "--sigma-md", "0.001", "--trials", "200",
            "--scheme", "correlated-1bit",
        )
        assert code == 0
        assert out.startswith("PASS mse=")

    def test_vector_pass(self, capsys):
        code, out, _ = run(
            capsys, "bounds-check", "--kind", "uniform-mean", "--n", "50",
            "--d", "16", "--k", "8", "--trials", "300",
            "--scheme", "correlated-klevel",
        )
        assert code == 0
        assert out.startswith("PASS")

    def test_forced_failure_exits_one(self, capsys, monkeypatch):
        # a guaranteed ceiling never fails on its own; lower it below zero
        monkeypatch.setattr(cli, "vector_envelope", lambda *args: -1.0)
        code, out, _ = run(
            capsys, "bounds-check", "--kind", "uniform-mean", "--n", "20",
            "--d", "8", "--k", "8", "--trials", "50",
            "--scheme", "correlated-klevel", "--stderr-slack", "0",
        )
        assert code == 1
        assert out.startswith("FAIL")

    @pytest.mark.parametrize("slack", ["nan", "inf", "-5", "-1e18"])
    def test_bad_slack_is_usage_error(self, capsys, slack):
        code, out, err = run(
            capsys, "bounds-check", "--kind", "lower-bound-1bit", "--n", "20",
            "--sigma-md", "0.001", "--trials", "20", f"--stderr-slack={slack}",
        )
        assert code == 2
        assert out == ""
        assert "stderr-slack" in err

    @pytest.mark.parametrize("slack", [float("nan"), -5.0])
    def test_bad_slack_from_config_is_usage_error(self, capsys, tmp_path, slack):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"stderr_slack": slack}))
        code, out, err = run(
            capsys, "bounds-check", "--config", str(config), "--kind",
            "lower-bound-1bit", "--n", "20", "--sigma-md", "0.001",
            "--trials", "20",
        )
        assert code == 2
        assert out == ""
        assert "stderr-slack" in err

    def test_vector_one_bit_has_no_ceiling(self, capsys):
        code, _, err = run(
            capsys, "bounds-check", "--kind", "uniform-mean", "--n", "10",
            "--d", "8", "--trials", "5", "--scheme", "correlated-1bit",
        )
        assert code == 2
        assert "correlated-klevel" in err


class TestConfigResolution:
    def test_flags_beat_config_beats_defaults(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"trials": 5, "n": 12, "d": 4}))
        code, out, _ = run(
            capsys, "dme", "--config", str(config), "--n", "8",
        )
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        assert row[1] == "8"  # flag wins
        assert row[2] == "4"  # config beats the built-in 1024
        assert row[5] == "5"  # config beats the built-in 10

    def test_unknown_config_key_is_usage_error(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"trails": 5}))
        with pytest.raises(SystemExit) as err:
            cli.main(["dme", "--config", str(config)])
        assert err.value.code == 2
        assert "trails" in capsys.readouterr().err

    def test_config_value_of_the_wrong_type_is_usage_error(
        self, capsys, tmp_path
    ):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"trials": 5.5}))
        with pytest.raises(SystemExit) as err:
            cli.main(["dme", "--config", str(config)])
        assert err.value.code == 2
        assert "trials" in capsys.readouterr().err

    def test_config_value_outside_choices_is_usage_error(
        self, capsys, tmp_path
    ):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"scheme": "terngrad"}))
        with pytest.raises(SystemExit) as err:
            cli.main(["bounds-check", "--config", str(config)])
        assert err.value.code == 2
        assert "scheme" in capsys.readouterr().err

    def test_malformed_config_is_usage_error(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text("[1, 2]")
        with pytest.raises(SystemExit) as err:
            cli.main(["dme", "--config", str(config)])
        assert err.value.code == 2

    def test_config_that_is_not_utf8_is_usage_error(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_bytes(b'{"trials": 3, "scheme": "\xff"}')
        with pytest.raises(SystemExit) as err:
            cli.main(["kmeans", "--config", str(config)])
        assert err.value.code == 2
        assert f"error: --config {config}: " in capsys.readouterr().err


class TestTasks:
    def test_kmeans_on_csv_files(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("0,10,10\n0,12,10\n0,11,9\n")
        b.write_text("1,250,250\n1,252,251\n1,249,250\n")
        code, out, _ = run(
            capsys, "kmeans", "--data", str(a), str(b), "--features", "2",
            "--rounds", "3",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "round,metric,bits"
        assert len(lines) == 4

    def test_missing_dataset_exits_two(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "kmeans", "--data", str(tmp_path / "nope.csv"),
        )
        assert code == 2
        assert "error:" in err

    def test_non_finite_feature_exits_two(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("0,1,2\n1,nan,3\n")
        b.write_text("1,3,4\n0,5,6\n")
        code, _, err = run(
            capsys, "kmeans", "--data", str(a), str(b), "--features", "2",
            "--centers", "2",
        )
        assert code == 2
        assert "a.csv: row 2, column 2: not finite" in err

    def test_csv_field_past_the_csv_limit_exits_two(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        a.write_text("0,1,2\n1," + "1" * 200_000 + ",3\n")
        code, _, err = run(capsys, "kmeans", "--data", str(a), "--features", "2")
        assert code == 2
        assert err.startswith(f"error: {a}: row 2: field larger than field limit")
        assert len(err.strip().split("\n")) == 1

    def test_csv_that_is_not_utf8_exits_two_and_names_the_file(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        a.write_bytes(b"0,1,2\n1,\xff,3\n")
        code, _, err = run(capsys, "kmeans", "--data", str(a), "--features", "2")
        assert code == 2
        assert err.startswith(f"error: {a}: not UTF-8 text")
        assert len(err.strip().split("\n")) == 1

    def test_power_on_fixture(self, capsys):
        code, out, _ = run(capsys, "power", "--rounds", "5")
        assert code == 0
        assert out.startswith("round,metric,bits")

    def test_sgd_quadratic(self, capsys):
        code, out, _ = run(capsys, "sgd", "--rounds", "10")
        assert code == 0
        final = float(out.strip().split("\n")[-1].split(",")[1])
        assert final >= 0

    def test_sgd_divergence_exits_three(self, capsys):
        code, _, err = run(
            capsys, "sgd", "--rounds", "50", "--lr", "5.0",
            "--radius-domain", "1e9", "--radius-grad", "1e9",
        )
        assert code == 3
        assert "error:" in err

    def test_fedavg_fixture(self, capsys):
        code, out, _ = run(
            capsys, "fedavg", "--rounds", "2", "--local-lr", "0.5",
            "--radius-grad", "5.0",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 3
        assert 0.0 <= float(lines[-1].split(",")[1]) <= 1.0

    @pytest.mark.parametrize("argv", [
        ("sgd", "--eta", "nan"), ("sgd", "--lr", "nan"), ("sgd", "--lr", "-1"),
        ("sgd", "--radius-domain", "nan"), ("sgd", "--radius-grad", "inf"),
        ("fedavg", "--local-lr", "nan"),
    ])
    def test_bad_optimizer_setting_is_a_usage_error(self, capsys, argv):
        # these once printed NaN trajectories (or ascended) with exit 0
        code, out, err = run(capsys, *argv, "--rounds", "2")
        assert code == 2
        assert out == ""
        assert "must be positive and finite" in err

    @pytest.mark.parametrize("command", ["kmeans", "power", "sgd", "fedavg"])
    def test_one_level_is_a_usage_error(self, capsys, command):
        code, out, err = run(capsys, command, "--k", "1", "--rounds", "1")
        assert code == 2
        assert out == ""
        assert "need k >= 2" in err


def test_entrypoint_raises_system_exit(monkeypatch, capsys):
    monkeypatch.setattr(
        "sys.argv",
        ["corrq", "dme", "--n", "4", "--d", "2", "--trials", "2"],
    )
    with pytest.raises(SystemExit) as err:
        cli.entrypoint()
    assert err.value.code == 0
    capsys.readouterr()


@pytest.mark.parametrize("module", ["corrq", "corrq.cli"])
def test_python_m_runs_the_command_line(module):
    env = dict(os.environ, PYTHONPATH=str(Path(corrq.__file__).resolve().parents[1]))
    argv = [sys.executable, "-m", module, "dme", "--n", "4", "--d", "2"]
    done = subprocess.run(
        [*argv, "--trials", "2"], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    header, row = done.stdout.strip().split("\n")
    assert header.startswith("scheme,n,d,k,sigma_md,trials,")
    assert row.startswith("correlated-1bit,4,2,2,")
    bad = subprocess.run(
        [*argv, "--bogus"], env=env, capture_output=True, text=True, timeout=120
    )
    assert bad.returncode == 2 and bad.stdout == ""
    assert "unrecognized arguments: --bogus" in bad.stderr
