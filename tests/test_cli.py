import subprocess
import sys

import pytest

from decadapt import OscillatorScenario, save_scenario
from decadapt.cli import (
    EXIT_CERT_FAIL,
    EXIT_OK,
    EXIT_SIM_ABORT,
    _parse_grid,
    run_cli,
)

CSV_HEADER = (
    "t,x1,x2,y1,y2,psiX,psiY,uX,uY,thetaHatX1,thetaHatY1,"
    "l2PsiX,l2PsiY,linfPsiX,linfPsiY,l2MismatchX,l2MismatchY,hIntoX,hIntoY"
)


class TestSimulateCommand:
    def test_oscillator_run_writes_csv(self, tmp_path):
        out = tmp_path / "run.csv"
        code = run_cli([
            "simulate", "oscillator", "--k1", "0.4", "--k2", "0.4",
            "--t-final", "2.0", "--out", str(out),
        ])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2002

    def test_deterministic_output(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        args = ["simulate", "oscillator", "--t-final", "1.0"]
        assert run_cli(args + ["--out", str(out_a)]) == EXIT_OK
        assert run_cli(args + ["--out", str(out_b)]) == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_scenario_file_with_overrides(self, tmp_path):
        cfg = tmp_path / "case.cfg"
        save_scenario(OscillatorScenario(k1=0.9, k2=0.9), cfg)
        out = tmp_path / "run.csv"
        code = run_cli([
            "simulate", str(cfg), "--k2", "0.1", "--t-final", "1.0", "--out", str(out),
        ])
        assert code == EXIT_OK

    def test_divergence_maps_to_abort_code(self, tmp_path):
        from decadapt import IntegratorConfig

        cfg = tmp_path / "case.cfg"
        save_scenario(
            OscillatorScenario(
                integrator=IntegratorConfig(step=1e-3, t_final=2.0, divergence_bound=1.5)
            ),
            cfg,
        )
        out = tmp_path / "run.csv"
        code = run_cli(["simulate", str(cfg), "--out", str(out)])
        assert code == EXIT_SIM_ABORT

    def test_step_must_divide_horizon(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["simulate", "oscillator", "--t-final", "1", "--dt", "0.4",
                     "--out", str(tmp_path / "run.csv")])
        assert exc.value.code == 2
        assert "whole number of steps" in capsys.readouterr().err
        assert not (tmp_path / "run.csv").exists()

    def test_step_and_horizon_overrides_validated_together(self, tmp_path):
        # the default step 1e-3 exceeds this horizon; only the pair is checked
        out = tmp_path / "run.csv"
        code = run_cli(["simulate", "oscillator", "--t-final", "0.0005", "--dt", "0.0005",
                        "--out", str(out)])
        assert code == EXIT_OK
        assert len(out.read_text().splitlines()) == 3

    def test_out_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DECADAPT_OUT_DIR", str(tmp_path))
        code = run_cli(["simulate", "oscillator", "--t-final", "1.0", "--out", "env.csv"])
        assert code == EXIT_OK
        assert (tmp_path / "env.csv").exists()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["simulate", "--help"])
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out


class TestCertifyCommand:
    def test_failing_small_gain_gives_exit_one(self, tmp_path, capsys):
        code = run_cli([
            "certify", "oscillator", "--k1", "0.5", "--k2", "0.5",
            "--t-final", "5.0", "--monotonicity-samples", "500",
            "--tail-window", "1.0", "--tail-threshold", "1e6",
            "--out", str(tmp_path / "report"),
        ])
        assert code == EXIT_CERT_FAIL
        out = capsys.readouterr().out
        assert "small-gain  FAIL" in out
        assert (tmp_path / "report.txt").exists()
        import json

        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["all_pass"] is False
        by_name = {e["name"]: e for e in payload["entries"]}
        assert by_name["small-gain"]["status"] == "fail"
        assert by_name["small-gain"]["margin"] == pytest.approx(1.0 - 1.25)

    def test_reference_case_all_pass(self, tmp_path, capsys):
        code = run_cli([
            "certify", "oscillator", "--k1", "0.4", "--k2", "0.4",
            "--monotonicity-samples", "500",
            "--out", str(tmp_path / "report"),
        ])
        assert code == EXIT_OK
        assert "ALL PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_nonpositive_sample_count_is_usage_error(self, tmp_path, capsys, count):
        with pytest.raises(SystemExit) as exc:
            run_cli([
                "certify", "oscillator", "--t-final", "1.0",
                "--monotonicity-samples", count, "--out", str(tmp_path / "report"),
            ])
        assert exc.value.code == 2
        assert "n_samples must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()


class TestTailAndWorkerFlags:
    """Tail and worker flags that cannot be honoured are usage errors before any work."""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_tail_threshold(self, tmp_path, capsys, value):
        with pytest.raises(SystemExit) as exc:
            run_cli(["certify", "oscillator", "--t-final", "1.0", "--monotonicity-samples", "100",
                     f"--tail-threshold={value}", "--out", str(tmp_path / "report")])
        assert exc.value.code == 2
        assert "--tail-threshold" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("command", ["certify", "sweep"])
    @pytest.mark.parametrize("value", ["-5", "-1", "nan", "inf"])
    def test_bad_tail_window(self, tmp_path, capsys, command, value):
        out = tmp_path / "out"
        extra = (["--monotonicity-samples", "100"] if command == "certify"
                 else ["--k1-grid", "0.1", "--k2-grid", "0.1", "--workers", "1"])
        with pytest.raises(SystemExit) as exc:
            run_cli([command, "oscillator", "--t-final", "1.0", *extra,
                     f"--tail-window={value}", "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--tail-window" in err and "zero-size array" not in err
        assert not out.exists() and not out.with_suffix(".json").exists()

    def test_zero_tail_window_is_valid(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(["sweep", "oscillator", "--k1-grid", "0.1", "--k2-grid", "0.1",
                        "--t-final", "1.0", "--tail-window", "0", "--workers", "1",
                        "--out", str(out)])
        assert code == EXIT_OK
        assert len(out.read_text().splitlines()) == 2

    @pytest.mark.parametrize("value", ["-3", "-1"])
    def test_negative_workers(self, tmp_path, capsys, value):
        out = tmp_path / "sweep.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli(["sweep", "oscillator", "--k1-grid", "0.1", "--k2-grid", "0.1",
                     "--t-final", "1.0", f"--workers={value}", "--out", str(out)])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()


class TestSweepCommand:
    def test_grid_table(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli([
            "sweep", "oscillator", "--k1-grid", "0.1,0.5", "--k2-grid", "0.1,0.5",
            "--t-final", "2.0", "--tail-window", "1.0", "--workers", "1",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "k1,k2,smallGainPass,status,tailSupPsiX,tailSupPsiY"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "0.1" and first[1] == "0.1"
        assert first[2] == "1"  # 0.01 < 0.2 passes the small-gain bound

    def test_parallel_matches_serial(self, tmp_path):
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        base = ["sweep", "oscillator", "--k1-grid", "0.1,0.4", "--k2-grid", "0.2,0.5",
                "--t-final", "1.0"]
        assert run_cli(base + ["--workers", "1", "--out", str(serial)]) == EXIT_OK
        assert run_cli(base + ["--workers", "2", "--out", str(parallel)]) == EXIT_OK
        assert serial.read_bytes() == parallel.read_bytes()

    def test_grid_parsing(self):
        assert _parse_grid("0.0:1.0:3") == [0.0, 0.5, 1.0]
        assert _parse_grid("0.25") == [0.25]
        assert _parse_grid("0.1,0.2") == [0.1, 0.2]
        for spec in (",", "", "nan", "0.1,inf", "0:inf:3", "1e308:-1e308:3"):
            with pytest.raises(ValueError, match="at least one value"):
                _parse_grid(spec)

    @pytest.mark.parametrize("grid", [",", "0.1,nan", "1:2"])
    def test_bad_grid_is_usage_error(self, tmp_path, capsys, grid):
        out = tmp_path / "sweep.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli(["sweep", "oscillator", "--k1-grid", grid, "--t-final", "1.0",
                     "--workers", "1", "--out", str(out)])
        assert exc.value.code == 2
        assert "grid" in capsys.readouterr().err
        assert not out.exists()


class TestPlotdataCommand:
    def test_panels_written(self, tmp_path):
        out_dir = tmp_path / "panels"
        code = run_cli([
            "plotdata", "oscillator", "--t-final", "1.0", "--out-dir", str(out_dir),
        ])
        assert code == EXIT_OK
        for panel, column in (("a", "x1"), ("b", "x2"), ("c", "y1"), ("d", "y2")):
            lines = (out_dir / f"panel_{panel}.csv").read_text().splitlines()
            assert lines[0] == f"t,{column}"
            assert len(lines) == 1002


class TestNonFiniteConfiguration:
    """Non-finite values are usage errors (exit 2) that name the field."""

    @pytest.mark.parametrize(
        "flag, value, name",
        [("--t-final", "inf", "t_final"), ("--dt", "nan", "step"), ("--k1", "inf", "k1"),
         ("--lambda-y", "nan", "lambda_y")],
    )
    def test_flag(self, tmp_path, capsys, flag, value, name):
        out = tmp_path / "run.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli(["simulate", "oscillator", flag, value, "--out", str(out)])
        assert exc.value.code == 2
        assert f"{name} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, line, name",
        [("simulate", "gamma = inf", "gamma_x"), ("certify", "init1 = nan", "x1_0")],
    )
    def test_scenario_file(self, tmp_path, capsys, command, line, name):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[subsystem.x]\n{line}\n")
        with pytest.raises(SystemExit) as exc:
            run_cli([command, str(cfg), "--t-final", "1.0"])
        assert exc.value.code == 2
        assert f"{name} must be finite" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_scenario_file(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["simulate", str(tmp_path / "nope.cfg"), "--out",
                     str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    def test_console_script_entry(self):
        proc = subprocess.run(
            [sys.executable, "-m", "decadapt.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "simulate" in proc.stdout and "certify" in proc.stdout
