import math

import numpy as np
import pytest

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
from decadapt.adaptation import integral_state_rate
from decadapt.scenario import GROWTH_X, GROWTH_Y, coupling_offsets, damping


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
            want = -2.0 * psi - s[1] - damping(s[0], th[0], 1.0, 0.5)
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
        assert tuple(sys.coupling.into_x2(y, 0.0)) == (0.0,)
        assert tuple(sys.coupling.into_y2(y, 0.0)) == (0.0,)

    def test_true_parameters_live_in_harness(self, oscillator):
        assert oscillator.theta_true_x == (1.0,)
        assert oscillator.theta_true_y == (1.0,)


class TestSmallGainProblem:
    def test_oscillator_instantiation(self, scenario):
        prob = small_gain_problem(scenario)
        assert prob.gain_x22.slope == 0.5
        assert prob.gain_y22.slope == 0.5
        assert prob.ratio_x == 3.0
        assert prob.ratio_y == 4.0
        assert (prob.beta_x, prob.beta_y) == (0.4, 0.4)

    @pytest.mark.parametrize("name", ["reference", "strong-weak", "decoupled"])
    def test_matches_built_system_without_rebuilding(self, name, monkeypatch):
        from pathlib import Path

        import decadapt.scenario as scenario_module

        sc = load_scenario(Path(__file__).resolve().parent.parent / "scenarios" / f"{name}.cfg")
        sys = build_oscillator(sc)

        def rebuild(_sc):
            raise AssertionError("small_gain_problem must not rebuild the system")

        monkeypatch.setattr(scenario_module, "build_oscillator", rebuild)
        prob = small_gain_problem(sc)
        for got, loop in ((prob.gain_x22, sys.loop_x), (prob.gain_y22, sys.loop_y)):
            want = loop.shaper.gain_l2_from_l2
            assert (got.kind, got.offset, got.slope, got.table) == (
                want.kind, want.offset, want.slope, want.table
            )
        assert (prob.beta_x, prob.beta_y) == (sys.coupling.beta_into_x, sys.coupling.beta_into_y)
        assert prob.ratio_x == sys.loop_x.param.growth_upper / sys.loop_x.param.growth_lower
        assert prob.ratio_y == sys.loop_y.param.growth_upper / sys.loop_y.param.growth_lower

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
