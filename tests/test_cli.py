import contextlib
import io
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from decadapt import OscillatorScenario, save_scenario
from decadapt.cli import (
    EXIT_CERT_FAIL,
    EXIT_OK,
    EXIT_SIM_ABORT,
    _parse_grid,
    run_cli,
)

REFERENCE = Path(__file__).resolve().parent.parent / "scenarios" / "reference.cfg"
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

    def test_overflowing_divergence_exits_without_warning(self, tmp_path, capsys):
        # the diverged signals' running norms overflow to inf without a numpy warning
        cfg = Path(__file__).resolve().parent.parent / "scenarios" / "reference.cfg"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(["simulate", str(cfg), "--k1", "1e308", "--k2", "1e308",
                            "--t-final", "1", "--out", str(tmp_path / "run.csv")])
        assert code == EXIT_SIM_ABORT
        assert [str(w.message) for w in caught] == []
        assert "Warning" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "certify"])
    def test_overflow_inside_the_run_is_an_abort(self, tmp_path, capsys, command):
        # theta = 1e150 overflows sin()'s argument after the first logged row
        cfg = tmp_path / "big.cfg"
        cfg.write_text(REFERENCE.read_text().replace("theta = 1.0", "theta = 1e150"))
        assert cfg.read_text().count("theta = 1e150") == 2
        code = run_cli([command, str(cfg), "--t-final", "1", "--out", str(tmp_path / "out")])
        assert code == EXIT_SIM_ABORT
        assert "error" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "certify"])
    def test_overflow_at_the_initial_point_is_a_usage_error(self, tmp_path, capsys, command):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(REFERENCE.read_text().replace("theta = 1.0", "theta = 1e308"))
        with pytest.raises(SystemExit) as exc:
            run_cli([command, str(cfg), "--t-final", "1", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "closed-loop maps overflow at t0 = 0.0" in capsys.readouterr().err

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

    def test_non_finite_margin_is_strict_json(self, tmp_path):
        # the overflowing run diverges (exit 3); its small-gain margin is -inf
        code = run_cli([
            "certify", "oscillator", "--k1", "1e300", "--k2", "1e300", "--t-final", "0.01",
            "--monotonicity-samples", "100", "--out", str(tmp_path / "r"),
        ])
        assert code == EXIT_SIM_ABORT
        import json

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        payload = json.loads((tmp_path / "r.json").read_text(), parse_constant=reject)
        by_name = {e["name"]: e for e in payload["entries"]}
        assert by_name["small-gain"]["margin"] == "-inf"
        assert by_name["small-gain"]["witness"]["loop_product"] == "inf"

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

    @pytest.mark.parametrize("flags", [["--k1", "0.9"], ["--k2", "0.9"],
                                       ["--k1", "0.9", "--k2", "0.9"]])
    def test_sweep_rejects_single_couplings(self, tmp_path, capsys, flags):
        # the grid sets both couplings of every cell: --k1/--k2 would be ignored
        out = tmp_path / "sweep.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli(["sweep", "oscillator", *flags, "--k1-grid", "0.1", "--k2-grid", "0.1",
                     "--t-final", "1", "--workers", "1", "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--k1-grid" in err and "--k2-grid" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-3", "-1"])
    def test_negative_workers(self, tmp_path, capsys, value):
        out = tmp_path / "sweep.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli(["sweep", "oscillator", "--k1-grid", "0.1", "--k2-grid", "0.1",
                     "--t-final", "1.0", f"--workers={value}", "--out", str(out)])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()


class TestOversizedRun:
    """A horizon whose log cannot be allocated is a usage error, not a MemoryError."""

    @pytest.mark.parametrize("command, extra", [
        ("simulate", ["--t-final", "1e9"]),
        ("sweep", ["--t-final", "1e9", "--workers", "1", "--k1-grid", "0.1", "--k2-grid", "0.1"]),
        # beyond numpy's largest array dimension: a ValueError, not a MemoryError
        ("simulate", ["--t-final", "1", "--dt", "1e-300"]),
    ])
    def test_exits_two(self, tmp_path, capsys, command, extra):
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli([command, "oscillator", *extra, "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        flags = dict(zip(extra[::2], extra[1::2]))
        rows = round(float(flags["--t-final"]) / float(flags.get("--dt", "1e-3"))) + 1
        for name in ("t_final", "step", "log_every", f"{rows} rows"):
            assert name in err
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

    def test_malformed_scenario_file(self, tmp_path, capsys):
        # exit 1 would read as a failed certificate entry
        cfg = tmp_path / "no-header.cfg"
        cfg.write_text("k1 = 0.4\n")
        with pytest.raises(SystemExit) as exc:
            run_cli(["certify", str(cfg), "--t-final", "1.0", "--monotonicity-samples", "100"])
        assert exc.value.code == 2
        assert f"scenario file {cfg}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flags", [
        ("plotdata", ["--out-dir", "{blocker}"]),
        ("simulate", ["--out", "{blocker}/x.csv"]),
        ("certify", ["--out", "{blocker}/r", "--monotonicity-samples", "100"]),
    ])
    def test_output_path_under_a_file(self, tmp_path, capsys, command, flags):
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        with pytest.raises(SystemExit) as exc:
            run_cli([command, "oscillator", "--t-final", "1.0",
                     *(flag.format(blocker=blocker) for flag in flags)])
        assert exc.value.code == 2
        assert str(blocker) in capsys.readouterr().err

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


def _either(valid, invalid: list):
    """A flag value as (text, is_valid): from `valid` twice as often as one of `invalid`."""
    valid = valid.map(lambda v: (str(v), True))
    return st.one_of(valid, valid, st.sampled_from(invalid).map(lambda v: (v, False)))


_FLOATS = st.floats(-1.0, 1.0).map(repr)
_NON_FINITE = ["nan", "inf", "-inf"]
_GRIDS = _either(
    st.one_of(st.lists(_FLOATS, min_size=1, max_size=2).map(",".join),
              st.tuples(_FLOATS, _FLOATS, st.integers(1, 2)).map(
                  lambda g: f"{g[0]}:{g[1]}:{g[2]}")),
    ["", ",", "a", "1:2", "1:2:0", "1:2:-1", "1:2:1.5", "nan", "0.1,inf", "1e400"],
)
_OPTIONAL = {
    "--log-every": _either(st.integers(1, 50), ["0", "-3", "1.5", "x"]),
    "--k1": _either(_FLOATS, _NON_FINITE),
    "--k2": _either(_FLOATS, _NON_FINITE),
    "--lambda-x": _either(st.floats(0.5, 4.0).map(repr), ["0", "-1", *_NON_FINITE]),
    "--lambda-y": _either(st.floats(0.5, 4.0).map(repr), ["0", "-1", *_NON_FINITE]),
}
_TAIL_WINDOW = _either(st.floats(0.0, 5.0).map(repr), ["-1", *_NON_FINITE])
_BY_COMMAND = {
    "simulate": {},
    "certify": {
        "--tail-window": _TAIL_WINDOW,
        "--tail-threshold": _either(st.floats(1e-3, 1.0).map(repr), _NON_FINITE),
    },
    "sweep": {"--tail-window": _TAIL_WINDOW},
}


@st.composite
def _horizon(draw):
    """(--t-final, --dt) texts and whether they are valid; at most 2 000 steps when valid."""
    step = draw(st.sampled_from([1e-3, 2e-3, 5e-3, 1e-2]))
    n = draw(st.integers(1, 2000))
    t_final = n * step
    kind = draw(st.sampled_from(["ok"] * 4 + ["t_final", "step", "no-divide", "step-exceeds"]))
    if kind == "t_final":
        return draw(st.sampled_from(["0", "-1", *_NON_FINITE])), repr(step), False
    if kind == "step":
        return repr(t_final), draw(st.sampled_from(["0", "-0.001", *_NON_FINITE])), False
    if kind == "no-divide":
        return repr(t_final), repr(t_final / (n + 0.5)), False
    if kind == "step-exceeds":
        return repr(t_final), repr(2.0 * t_final), False
    return repr(t_final), repr(step), True


class TestCliFuzz:
    """Random overrides through run_cli end in an exit code, never in a traceback.

    Every outcome is a return code or SystemExit in {0, 1, 2, 3}, and a
    value that cannot be honoured never exits 0.  Valid draws stay at most
    2 000 steps, 100 monotonicity samples and a 2 x 2 sweep on one worker,
    and no draw asks for a log too large to allocate.
    """

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_exit_codes(self, data):
        command = data.draw(st.sampled_from(sorted(_BY_COMMAND)))
        t_final, step, valid = data.draw(_horizon())
        flags = [f"--t-final={t_final}", f"--dt={step}"]
        options = {**_OPTIONAL, **_BY_COMMAND[command]}
        for flag in data.draw(st.lists(st.sampled_from(sorted(options)), unique=True)):
            text, ok = data.draw(options[flag])
            flags.append(f"{flag}={text}")
            # the sweep grid sets both couplings: --k1/--k2 cannot be honoured there
            valid = valid and ok and not (command == "sweep" and flag in ("--k1", "--k2"))
        if command == "certify":
            text, ok = data.draw(_either(st.integers(1, 100), ["0", "-5"]))
            flags.append(f"--monotonicity-samples={text}")
            valid = valid and ok
        with tempfile.TemporaryDirectory() as out_dir:
            out = Path(out_dir) / "out.csv"
            if command == "sweep":
                for flag in ("--k1-grid", "--k2-grid"):
                    text, ok = data.draw(_GRIDS)
                    flags.append(f"{flag}={text}")
                    valid = valid and ok
                flags.append("--workers=1")
            if command != "certify":
                flags.append(f"--out={out}")
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = run_cli([command, "oscillator", *flags])
                except SystemExit as exc:
                    code = exc.code
        event(f"{command} {'valid' if valid else 'invalid'} exit {code}")
        assert code in (0, 1, 2, 3), (flags, code)
        if not valid:
            assert code != 0, flags
