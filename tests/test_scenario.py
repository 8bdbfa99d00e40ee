import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decadapt import (
    IntegratorConfig,
    OscillatorScenario,
    build_oscillator,
    control,
    load_scenario,
    parameter_estimate,
    save_scenario,
    small_gain_problem,
)
from decadapt.adaptation import REALIZABILITY_POINTS, integral_state_rate, realizability_residual
from decadapt.model import check_gradient
from decadapt.scenario import GROWTH_X, GROWTH_Y, coupling_offsets
from tests.test_model import drawn

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
FLOAT_FIELDS = tuple(f.name for f in fields(OscillatorScenario) if f.name != "integrator")


class TestDefaults:
    def test_case_study_parameters(self, scenario):
        sc = scenario
        assert (sc.gamma_x, sc.gamma_y) == (1.0, 1.0)
        assert (sc.lambda_x, sc.lambda_y) == (2.0, 2.0)
        assert (sc.offset_x, sc.offset_y) == (1.0, 1.0)
        assert (sc.theta_x, sc.theta_y) == (1.0, 1.0)
        assert (sc.x1_0, sc.x2_0, sc.y1_0, sc.y2_0) == (-1.0, 0.0, 1.0, 0.0)
        assert (sc.theta_i_x0, sc.theta_i_y0) == (-1.0, -2.0)

    def test_invariants(self):
        with pytest.raises(ValueError):
            OscillatorScenario(lambda_x=0.0)
        with pytest.raises(ValueError):
            OscillatorScenario(gamma_y=-1.0)

    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_field_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            OscillatorScenario(**{name: value})

    def test_growth_constants(self, oscillator):
        assert (oscillator.loop_x.param.growth_upper,
                oscillator.loop_x.param.growth_lower) == GROWTH_X
        assert (oscillator.loop_y.param.growth_upper,
                oscillator.loop_y.param.growth_lower) == GROWTH_Y


class TestBuildOscillator:
    def test_update_law_matches_closed_form(self, oscillator, rng):
        """Generic integral update against its hand-instantiated expression."""
        loop = oscillator.loop_x
        worst = 0.0
        for _ in range(1000):
            s = tuple(rng.uniform(-4.0, 4.0, size=2))
            u = float(rng.uniform(-10.0, 10.0))
            got = integral_state_rate(loop, s, 0.0, u)[0]
            want = 2.0 * (s[0] + s[1]) * (s[0] - 1.0) - (s[0] + s[1]) * s[1]
            worst = max(worst, abs(got - want))
        assert worst <= 1e-12

    def test_control_matches_closed_form(self, oscillator, rng):
        loop = oscillator.loop_x
        worst = 0.0
        for _ in range(1000):
            s = tuple(rng.uniform(-4.0, 4.0, size=2))
            th = (float(rng.uniform(-2.0, 2.0)),)
            got = control(loop.spec, loop.goal, loop.shaper, s, th, 0.0)
            psi = s[0] + s[1]
            want = -2.0 * psi - s[1] - loop.spec.f2(s, th, 0.0)[0]
            worst = max(worst, abs(got - want))
        assert worst <= 1e-12

    def test_estimate_matches_closed_form(self, oscillator, rng):
        loop = oscillator.loop_y
        for _ in range(100):
            s = tuple(rng.uniform(-4.0, 4.0, size=2))
            ti = (float(rng.uniform(-3.0, 3.0)),)
            got = parameter_estimate(loop, s, 0.0, ti)[0]
            want = (s[0] + s[1]) * (s[0] - 1.0) + ti[0]
            assert got == pytest.approx(want, abs=1e-12)

    def test_zero_coupling_gives_independent_loops(self):
        sc = OscillatorScenario(k1=0.0, k2=0.0)
        sys = build_oscillator(sc)
        y = np.array([5.0, -3.0])
        assert tuple(sys.coupling.into["x"](y, 0.0)) == (0.0,)
        assert tuple(sys.coupling.into["y"](y, 0.0)) == (0.0,)

    def test_true_parameters_live_in_harness(self, oscillator):
        assert oscillator.theta_true_x == (1.0,)
        assert oscillator.theta_true_y == (1.0,)


class TestStoredValidation:
    """Certification reports the validation each loop ran at construction."""

    @pytest.mark.parametrize("tag", ["x", "y"])
    def test_matches_fresh_checks(self, oscillator, tag):
        loop = oscillator.loop_x if tag == "x" else oscillator.loop_y
        box = loop.spec.box
        assert loop.goal_grad_error == check_gradient(loop.goal.psi, loop.goal.grad_state,
                                                      *drawn(box))
        assert loop.alpha_grad_error == check_gradient(
            loop.param.alpha, loop.param.grad_state, *drawn(box)
        )
        assert loop.realizability_residual == realizability_residual(
            loop.potential, loop.goal, loop.param, loop.spec.layout,
            *drawn(box, REALIZABILITY_POINTS)
        )


class TestSmallGainProblem:
    def test_oscillator_instantiation(self, oscillator):
        prob = small_gain_problem(oscillator)
        assert prob.gains[0].slope == 0.5
        assert prob.gains[1].slope == 0.5
        assert prob.ratios[0] == 3.0
        assert prob.ratios[1] == 4.0
        assert prob.betas == (0.4, 0.4)

    @pytest.mark.parametrize("name", ["reference", "strong-weak", "decoupled"])
    def test_matches_built_system_without_rebuilding(self, name):
        # every field is read from the built system it is given; nothing is rebuilt
        sys = build_oscillator(load_scenario(SCENARIO_DIR / f"{name}.cfg"))
        prob = small_gain_problem(sys)
        for got, loop in zip(prob.gains, (sys.loop_x, sys.loop_y)):
            want = loop.shaper.gain_l2_from_l2
            assert (got.kind, got.offset, got.slope, got.table) == (
                want.kind, want.offset, want.slope, want.table
            )
        assert prob.betas == (sys.coupling.beta["x"], sys.coupling.beta["y"])
        assert prob.ratios[0] == sys.loop_x.param.growth_upper / sys.loop_x.param.growth_lower
        assert prob.ratios[1] == sys.loop_y.param.growth_upper / sys.loop_y.param.growth_lower

    def test_coupling_offsets(self, scenario):
        off_x, off_y = coupling_offsets(scenario)
        assert off_x == pytest.approx(0.4 / math.sqrt(2.0))
        assert off_y == pytest.approx(0.4 * 1.0 / math.sqrt(2.0))


class TestScenarioFiles:
    def test_roundtrip_identity(self, tmp_path):
        sc = OscillatorScenario(
            k1=0.123456789012345, k2=0.9, lambda_x=1.7, theta_i_y0=-2.25,
            integrator=IntegratorConfig(step=2e-3, t_final=12.5, log_every=5),
        )
        path = tmp_path / "case.cfg"
        save_scenario(sc, path)
        back = load_scenario(path)
        for field in ("k1", "k2", "lambda_x", "lambda_y", "offset_x", "offset_y",
                      "theta_x", "theta_y", "gamma_x", "gamma_y", "x1_0", "x2_0",
                      "y1_0", "y2_0", "theta_i_x0", "theta_i_y0"):
            assert getattr(back, field) == getattr(sc, field), field
        assert back.integrator.step == sc.integrator.step
        assert back.integrator.t_final == sc.integrator.t_final
        assert back.integrator.log_every == sc.integrator.log_every
        assert back.integrator.divergence_bound == sc.integrator.divergence_bound

    def test_partial_file_uses_defaults(self, tmp_path):
        path = tmp_path / "partial.cfg"
        path.write_text("[coupling]\nk1 = 1.0\nk2 = 0.1\n")
        sc = load_scenario(path)
        assert (sc.k1, sc.k2) == (1.0, 0.1)
        assert sc.lambda_x == 2.0
        assert sc.integrator.t_final == 50.0

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[coupling]\nk3 = 1.0\n")
        with pytest.raises(ValueError, match="unknown key"):
            load_scenario(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[mystery]\na = 1.0\n")
        with pytest.raises(ValueError, match="unknown scenario section"):
            load_scenario(path)

    @pytest.mark.parametrize("text", [
        "k1 = 0.4\n",
        "[coupling]\nk1 = 0.4\nk1 = 0.5\n",
        "[coupling]\nk1 = 50%\n",  # read literally, so not a number
        "[DEFAULT]\nstep = 0.01\n",  # not a section of the format
        "[DEFAULT]\n",
    ], ids=["no-section-header", "duplicate-key", "percent", "default-section", "empty-default"])
    def test_malformed_file_rejected_naming_it(self, tmp_path, text):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            load_scenario(path)
        assert str(exc.value).startswith(f"scenario file {path}: ")
        assert "[DEFAULT]" not in text or "unknown scenario section [DEFAULT]" in str(exc.value)

    @pytest.mark.parametrize("value", ["2.5", "1e-3", "inf", "nan"])
    def test_non_integer_log_every_rejected(self, tmp_path, value):
        path = tmp_path / "bad.cfg"
        path.write_text(f"[integrator]\nlog_every = {value}\n")
        with pytest.raises(ValueError, match="log_every must be an integer"):
            load_scenario(path)

    def test_integral_log_every_accepted(self, tmp_path):
        path = tmp_path / "case.cfg"
        path.write_text("[integrator]\nlog_every = 4.0\n")
        assert load_scenario(path).integrator.log_every == 4

    @pytest.mark.parametrize(
        "section, key, name",
        [("coupling", "k1", "k1"), ("subsystem.x", "gamma", "gamma_x"),
         ("subsystem.y", "init1", "y1_0"), ("integrator", "t_final", "t_final")],
    )
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_value_rejected(self, tmp_path, section, key, name, value):
        path = tmp_path / "bad.cfg"
        path.write_text(f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            load_scenario(path)

    @pytest.mark.parametrize("name", ["reference", "strong-weak", "decoupled"])
    def test_resave_reproduces_shipped_file(self, tmp_path, name):
        src = SCENARIO_DIR / f"{name}.cfg"
        out = tmp_path / f"{name}.cfg"
        save_scenario(load_scenario(src), out)
        assert out.read_bytes() == src.read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_roundtrip_property(self, tmp_path_factory, data):
        finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
        positive = st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False)
        step = data.draw(st.sampled_from([1e-3, 2e-3, 5e-3, 0.01, 0.25]), "step")
        integrator = IntegratorConfig(
            step=step,
            t_final=step * data.draw(st.integers(1, 100000), "n_steps"),
            divergence_bound=data.draw(positive, "divergence_bound"),
            log_every=data.draw(st.integers(1, 1000), "log_every"),
        )
        values = {
            name: data.draw(positive if name.startswith(("lambda", "gamma")) else finite, name)
            for name in FLOAT_FIELDS
        }
        sc = OscillatorScenario(integrator=integrator, **values)
        path = tmp_path_factory.mktemp("roundtrip") / "case.cfg"
        save_scenario(sc, path)
        back = load_scenario(path)
        for name in FLOAT_FIELDS:
            assert getattr(back, name) == getattr(sc, name), name
        for f in fields(IntegratorConfig):
            assert getattr(back.integrator, f.name) == getattr(sc.integrator, f.name), f.name

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_scenario(tmp_path / "absent.cfg")

    def test_shipped_examples_load(self):
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent / "scenarios"
        ref = load_scenario(root / "reference.cfg")
        assert (ref.k1, ref.k2) == (0.4, 0.4)
        strong_weak = load_scenario(root / "strong-weak.cfg")
        assert (strong_weak.k1, strong_weak.k2) == (1.0, 0.1)
        decoupled = load_scenario(root / "decoupled.cfg")
        assert (decoupled.k1, decoupled.k2) == (0.0, 0.0)
