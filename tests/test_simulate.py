import math

import numpy as np
import pytest

from decadapt import (
    AdaptiveLoopSpec,
    DomainBox,
    GoalFunction,
    IntegratorConfig,
    OscillatorScenario,
    Parametrization,
    PartitionLayout,
    SubsystemSpec,
    TargetShaper,
    build_oscillator,
    goal_attainment,
    integrate,
    integrate_loop,
    write_trajectory_csv,
    zero_potential,
)
from decadapt.simulate import (
    STATUS_COMPLETED,
    STATUS_DIVERGED,
    STATUS_SINGULAR,
    exponential_disturbance,
    first_attainment_time,
    pulse_disturbance,
    rk4_path,
    running_l2,
    zero_disturbance,
)


class TestIntegratorConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"step": 0.0, "t_final": 1.0},
            {"step": -1e-3, "t_final": 1.0},
            {"step": 1e-3, "t_final": 0.0},
            {"step": 2.0, "t_final": 1.0},
            {"step": 0.4, "t_final": 1.0},
            {"step": 1e-3, "t_final": 1.0, "log_every": 0},
            {"step": 1e-3, "t_final": 1.0, "divergence_bound": 0.0},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            IntegratorConfig(**kwargs)


class TestRk4Core:
    def test_exponential_probe(self):
        times, states = rk4_path(lambda t, y: [-y[0]], [1.0], 0.0, 1e-3, 1000)
        assert times[-1] == pytest.approx(1.0, abs=1e-12)
        assert abs(states[-1, 0] - math.exp(-1.0)) <= 1e-10

    def test_fourth_order_convergence(self):
        e_coarse = abs(rk4_path(lambda t, y: [-y[0]], [1.0], 0.0, 0.1, 10)[1][-1, 0]
                       - math.exp(-1.0))
        e_fine = abs(rk4_path(lambda t, y: [-y[0]], [1.0], 0.0, 0.05, 20)[1][-1, 0]
                     - math.exp(-1.0))
        assert e_coarse / e_fine >= 14.0


class TestRunningNorms:
    def test_constant_signal(self):
        t = np.linspace(0.0, 4.0, 4001)
        vals = np.full_like(t, 3.0)
        l2 = running_l2(t, vals)
        assert l2[-1] == pytest.approx(3.0 * 2.0, rel=1e-6)  # c * sqrt(T)
        assert l2[0] == 0.0

    def test_monotone_nondecreasing(self):
        t = np.linspace(0.0, 1.0, 101)
        vals = np.sin(13 * t)
        l2 = running_l2(t, vals)
        assert (np.diff(l2) >= 0).all()

    def test_trajectory_accumulators_match_helper(self, coupled_traj):
        traj = coupled_traj
        np.testing.assert_allclose(traj.loops["x"].l2_psi, running_l2(traj.t, traj.loops["x"].psi),
                                   rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(traj.loops["y"].l2_eps, running_l2(traj.t, traj.loops["y"].eps),
                                   rtol=1e-12, atol=1e-13)
        assert (np.diff(traj.loops["x"].l2_psi) >= 0).all()
        assert (np.diff(traj.loops["y"].linf_psi) >= 0).all()


class TestTrajectoryGrid:
    def test_uniform_spacing_with_thinning(self):
        sc = OscillatorScenario(
            integrator=IntegratorConfig(step=1e-3, t_final=1.0, log_every=10)
        )
        traj = integrate(build_oscillator(sc), sc.integrator, sc.initial_state())
        assert traj.status == STATUS_COMPLETED
        diffs = np.diff(traj.t)
        np.testing.assert_allclose(diffs, 1e-2, rtol=0, atol=1e-12)
        assert traj.t.shape[0] == 101

    def test_determinism(self):
        sc = OscillatorScenario(integrator=IntegratorConfig(step=1e-3, t_final=1.0))
        a = integrate(build_oscillator(sc), sc.integrator, sc.initial_state())
        b = integrate(build_oscillator(sc), sc.integrator, sc.initial_state())
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.loops["y"].u, b.loops["y"].u)
        assert np.array_equal(a.loops["x"].l2_mismatch, b.loops["x"].l2_mismatch)


class TestTrajectoryRecord:
    def test_loop_view_and_state_blocks(self, coupled_traj):
        traj = coupled_traj
        assert traj.loop_view("x") is traj.loops["x"]
        assert traj.loop_view("y") is traj.loops["y"]
        assert traj.x is traj.loops["x"].state
        assert traj.theta_i_y is traj.loops["y"].theta_i
        assert traj.loops["x"].status == traj.status
        with pytest.raises(ValueError):
            traj.loop_view("z")


class TestTerminationStatuses:
    def test_divergence_detected(self):
        sc = OscillatorScenario(
            integrator=IntegratorConfig(step=1e-3, t_final=1.0, divergence_bound=1.5)
        )
        traj = integrate(build_oscillator(sc), sc.integrator, sc.initial_state())
        # theta_i_y starts at -2.0, beyond the bound, so the first step trips it
        assert traj.status == STATUS_DIVERGED
        assert traj.t.shape[0] == 1
        assert np.max(np.abs(traj.theta_i_y)) <= 2.0

    def test_singularity_detected(self):
        # input gain through the goal function is the position, which crosses zero
        spec = SubsystemSpec(
            layout=PartitionLayout(q=1, p=1),
            f1=lambda s, t: (-1.0,),
            f2=lambda s, th, t: (0.0,),
            g1=lambda s: (0.0,),
            g2=lambda s: (s[0],),
            param_dim=1,
            box=DomainBox((-2.0, -2.0), (2.0, 2.0)),
        )
        goal = GoalFunction(
            psi=lambda s, t: s[0] + s[1],
            grad_state=lambda s, t: (1.0, 1.0),
            d_time=lambda s, t: 0.0,
        )
        param = Parametrization(
            alpha=lambda s, t: (s[0],),
            grad_state=lambda s, t: ((1.0, 0.0),),
            d_time=lambda s, t: (0.0,),
            dim=1, growth_upper=1.0, growth_lower=1.0,
        )
        loop = AdaptiveLoopSpec(
            spec=spec, goal=goal, shaper=TargetShaper.linear(1.0), param=param,
            potential=zero_potential(1, 2), gain=np.array([[1.0]]),
        )
        traj = integrate_loop(loop, (0.0,), zero_disturbance(),
                              IntegratorConfig(step=1e-3, t_final=2.0),
                              (0.5, 0.0), (0.0,))
        assert traj.status == STATUS_SINGULAR
        assert traj.t[-1] < 2.0


class TestDisturbances:
    def test_zero(self):
        assert zero_disturbance().signal(3.7) == 0.0

    def test_exponential(self):
        d = exponential_disturbance(2.0, 0.5)
        assert d.signal(0.0) == 2.0
        assert d.signal(2.0) == pytest.approx(2.0 * math.exp(-1.0))
        with pytest.raises(ValueError):
            exponential_disturbance(1.0, 0.0)

    def test_pulse(self):
        d = pulse_disturbance(3.0, 1.0, 2.0)
        assert d.signal(0.5) == 0.0
        assert d.signal(1.0) == 3.0
        assert d.signal(1.999) == 3.0
        assert d.signal(2.0) == 0.0

    def test_injection_recorded_as_eps(self, oscillator):
        d = exponential_disturbance(1.0, 1.0)
        traj = integrate_loop(oscillator.loop_x, (1.0,), d,
                              IntegratorConfig(step=1e-3, t_final=1.0),
                              (-1.0, 0.0), (-1.0,))
        # goal-gradient second block is one, so eps equals the raw signal
        np.testing.assert_allclose(traj.eps, np.exp(-traj.t), rtol=1e-12)

    def test_direction_length_checked(self):
        from decadapt import Disturbance

        d = Disturbance(signal=lambda t: 0.0, direction=(1.0, 0.0))
        with pytest.raises(ValueError):
            d.resolve_direction(3)
        assert zero_disturbance().resolve_direction(3) == (1.0, 0.0, 0.0)


class TestNoFirstBlock:
    """Layouts with q = 0: the whole state carries the uncertainty."""

    @staticmethod
    def build_loop():
        from decadapt.adaptation import AuxiliaryPotential

        spec = SubsystemSpec(
            layout=PartitionLayout(q=0, p=2),
            f1=lambda s, t: (),
            f2=lambda s, th, t: (s[1], -s[0] - 0.3 * s[1] + th[0] * math.sin(s[0])),
            g1=lambda s: (),
            g2=lambda s: (0.0, 1.0),
            param_dim=1,
            box=DomainBox((-3.0, -3.0), (3.0, 3.0)),
        )
        goal = GoalFunction(
            psi=lambda s, t: s[1],
            grad_state=lambda s, t: (0.0, 1.0),
            d_time=lambda s, t: 0.0,
        )
        param = Parametrization(
            alpha=lambda s, t: (s[1],),
            grad_state=lambda s, t: ((0.0, 1.0),),
            d_time=lambda s, t: (0.0,),
            dim=1, growth_upper=1.0, growth_lower=1.0,
        )
        pot = AuxiliaryPotential(
            value=lambda s, t: (0.5 * s[1] ** 2,),
            grad_state=lambda s, t: ((0.0, s[1]),),
            d_time=lambda s, t: (0.0,),
        )
        return AdaptiveLoopSpec(
            spec=spec, goal=goal, shaper=TargetShaper.linear(2.0), param=param,
            potential=pot, gain=np.array([[1.0]]),
        )

    def test_integrates_with_directional_disturbance(self):
        from decadapt import Disturbance

        loop = self.build_loop()
        dist = Disturbance(signal=lambda t: math.exp(-t), direction=(0.3, 0.7))
        cfg = IntegratorConfig(step=1e-3, t_final=2.0)
        traj = integrate_loop(loop, (0.9,), dist, cfg, (0.4, -0.1), (0.0,))
        assert traj.status == STATUS_COMPLETED
        assert np.abs(traj.state).max() < 3.0
        # the goal gradient projects out the first injection coordinate
        np.testing.assert_allclose(traj.eps, 0.7 * np.exp(-traj.t), atol=1e-14)


class TestGoalAttainment:
    def test_identically_zero_goal_error(self):
        # start on the target set with a matched estimate: psi stays exactly zero
        sc = OscillatorScenario(
            x1_0=0.0, x2_0=0.0, y1_0=0.0, y2_0=0.0,
            theta_i_x0=1.0, theta_i_y0=1.0, k1=0.0, k2=0.0,
            integrator=IntegratorConfig(step=1e-3, t_final=1.0),
        )
        sys = build_oscillator(sc)
        # theta_hat(0) = gain * (psi alpha + theta_i) = 1 * (0 + 1) = theta
        traj = integrate(sys, sc.integrator, sc.initial_state())
        assert np.max(np.abs(traj.loops["x"].psi)) == 0.0
        assert goal_attainment(traj, 1e-9, 1e-9) == 0.0

    def test_monotone_decay_threshold(self):
        t = np.arange(0.0, 5.0 + 1e-12, 1e-3)
        vals = np.exp(-t)
        t_star = first_attainment_time(t, vals, math.exp(-2.0))
        assert t_star == pytest.approx(2.0, abs=1e-9)

    def test_never_attained(self):
        t = np.linspace(0.0, 5.0, 100)
        vals = np.full_like(t, 2.0)
        assert first_attainment_time(t, vals, 1.0) is None

    def test_window_requires_trailing_data(self):
        t = np.linspace(0.0, 5.0, 501)
        vals = np.exp(-t)
        assert first_attainment_time(t, vals, 10.0, window=10.0) is None

    def test_coupled(self, coupled_traj):
        t_star = goal_attainment(coupled_traj, 1e-2, 1e-2)
        assert t_star is not None
        assert 0.0 < t_star < 45.0


class TestCsvExport(object):
    def test_header_and_roundtrip(self, coupled_traj, tmp_path):
        path = tmp_path / "run.csv"
        write_trajectory_csv(coupled_traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "t,x1,x2,y1,y2,psiX,psiY,uX,uY,thetaHatX1,thetaHatY1,"
            "l2PsiX,l2PsiY,linfPsiX,linfPsiY,l2MismatchX,l2MismatchY,hIntoX,hIntoY"
        )
        assert len(lines) == coupled_traj.t.shape[0] + 1
        k = 12345
        fields = [float(v) for v in lines[k + 1].split(",")]
        assert fields[0] == coupled_traj.t[k]  # 17 significant digits round-trip
        assert fields[1] == coupled_traj.x[k, 0]
        assert fields[5] == coupled_traj.loops["x"].psi[k]
        assert fields[18] == coupled_traj.loops["y"].eps[k]
