import numpy as np
import pytest

from decadapt import (
    AdaptiveLoopSpec,
    ControlSingularityError,
    Coupling,
    CoupledClosedLoop,
    DomainBox,
    GoalFunction,
    IntegratorConfig,
    Parametrization,
    PartitionLayout,
    SubsystemSpec,
    TargetShaper,
    augmented_rhs,
    coupling_channels,
    integrate,
    integrate_loop,
    zero_potential,
)
from decadapt.interconnect import zero_coupling
from decadapt.simulate import zero_disturbance


def make_symmetric_loop():
    """Two structurally identical loops for the relabeling test."""

    def build():
        spec = SubsystemSpec(
            layout=PartitionLayout(q=1, p=1),
            f1=lambda s, t: (s[1],),
            f2=lambda s, th, t: (th[0] * (s[0] - 1.0),),
            g1=lambda s: (0.0,),
            g2=lambda s: (1.0,),
            param_dim=1,
            box=DomainBox((-5.0, -5.0), (5.0, 5.0)),
        )
        goal = GoalFunction(
            psi=lambda s, t: s[0] + s[1],
            grad_state=lambda s, t: (1.0, 1.0),
            d_time=lambda s, t: 0.0,
        )
        param = Parametrization(
            alpha=lambda s, t: (s[0] - 1.0,),
            grad_state=lambda s, t: ((1.0, 0.0),),
            d_time=lambda s, t: (0.0,),
            dim=1, growth_upper=1.0, growth_lower=1.0,
        )
        return AdaptiveLoopSpec(
            spec=spec, goal=goal, shaper=TargetShaper.linear(2.0), param=param,
            potential=zero_potential(1, 2), gain=np.array([[1.0]]),
        )

    return build(), build()


class TestCoupling:
    def test_channels_enter_second_block_only(self, oscillator):
        aug = np.array([-1.0, 0.0, -1.0, 1.0, 0.0, -2.0])
        deriv_coupled = augmented_rhs(oscillator, 0.0, aug)
        # recompute with the coupling removed: only x2 / y2 rows may differ
        bare = CoupledClosedLoop(
            loop_x=oscillator.loop_x, loop_y=oscillator.loop_y,
            coupling=zero_coupling(1, 1),
            theta_true_x=(1.0,), theta_true_y=(1.0,),
        )
        deriv_bare = augmented_rhs(bare, 0.0, aug)
        diff = deriv_coupled - deriv_bare
        assert diff[0] == 0.0 and diff[3] == 0.0  # first blocks untouched
        assert diff[1] == pytest.approx(0.4 * 1.0)  # k1 * y1 into x2
        assert diff[4] == pytest.approx(0.4 * -1.0)  # k2 * x1 into y2

    def test_negative_declared_bounds_rejected(self):
        with pytest.raises(ValueError):
            Coupling(into_x2=lambda y, t: (0.0,), into_y2=lambda x, t: (0.0,),
                     beta_into_x=-0.1, beta_into_y=0.0)


class TestAugmentedRhs:
    def test_initial_point_values(self, oscillator, scenario):
        deriv = augmented_rhs(oscillator, 0.0, scenario.initial_state())
        # x1' = x2 = 0; x2' = damping(-1) + k1*y1 + u_x
        assert deriv[0] == 0.0
        assert deriv[1] == pytest.approx(-2.4546487134128405 + 0.4 + 4.4546487134128405,
                                         abs=1e-12)
        assert deriv[2] == pytest.approx(4.0, abs=1e-14)
        assert deriv[3] == 0.0
        assert deriv[5] == pytest.approx(0.0, abs=1e-14)

    def test_singularity_tagged_with_subsystem(self):
        loop_a, loop_b = make_symmetric_loop()
        bad_spec = SubsystemSpec(
            layout=loop_b.spec.layout, f1=loop_b.spec.f1, f2=loop_b.spec.f2,
            g1=lambda s: (0.0,), g2=lambda s: (0.0,),
            param_dim=1, box=loop_b.spec.box,
        )
        bad_loop = AdaptiveLoopSpec(
            spec=bad_spec, goal=loop_b.goal, shaper=loop_b.shaper, param=loop_b.param,
            potential=loop_b.potential, gain=loop_b.gain,
        )
        sys = CoupledClosedLoop(
            loop_x=loop_a, loop_y=bad_loop, coupling=zero_coupling(1, 1),
            theta_true_x=(1.0,), theta_true_y=(1.0,),
        )
        with pytest.raises(ControlSingularityError) as exc:
            augmented_rhs(sys, 0.0, np.zeros(6))
        assert exc.value.subsystem == "y"

    def test_wrong_augmented_length(self, oscillator):
        with pytest.raises(ValueError, match="length"):
            augmented_rhs(oscillator, 0.0, np.zeros(5))


class TestDecoupledEquivalence:
    def test_zero_coupling_matches_single_loops_bitwise(self, oscillator):
        from decadapt import OscillatorScenario, build_oscillator

        sc = OscillatorScenario(k1=0.0, k2=0.0,
                                integrator=IntegratorConfig(step=1e-3, t_final=3.0))
        sys = build_oscillator(sc)
        traj = integrate(sys, sc.integrator, sc.initial_state())
        lx = integrate_loop(sys.loop_x, (1.0,), zero_disturbance(), sc.integrator,
                            (-1.0, 0.0), (-1.0,))
        ly = integrate_loop(sys.loop_y, (1.0,), zero_disturbance(), sc.integrator,
                            (1.0, 0.0), (-2.0,))
        assert np.array_equal(traj.x, lx.state)
        assert np.array_equal(traj.theta_i_x, lx.theta_i)
        assert np.array_equal(traj.theta_hat_x, lx.theta_hat)
        assert np.array_equal(traj.y, ly.state)
        assert np.array_equal(traj.theta_i_y, ly.theta_i)

    def test_label_swap_symmetry(self):
        loop_a, loop_b = make_symmetric_loop()
        cfg = IntegratorConfig(step=1e-3, t_final=2.0)
        k1, k2 = 0.3, 0.7
        forward = CoupledClosedLoop(
            loop_x=loop_a, loop_y=loop_b,
            coupling=Coupling(into_x2=lambda y, t: (k1 * y[0],),
                              into_y2=lambda x, t: (k2 * x[0],),
                              beta_into_x=k1, beta_into_y=k2),
            theta_true_x=(1.0,), theta_true_y=(0.5,),
        )
        swapped = CoupledClosedLoop(
            loop_x=loop_b, loop_y=loop_a,
            coupling=Coupling(into_x2=lambda y, t: (k2 * y[0],),
                              into_y2=lambda x, t: (k1 * x[0],),
                              beta_into_x=k2, beta_into_y=k1),
            theta_true_x=(0.5,), theta_true_y=(1.0,),
        )
        init_f = np.array([-1.0, 0.2, 0.1, 0.8, -0.3, -0.5])
        init_s = np.array([0.8, -0.3, -0.5, -1.0, 0.2, 0.1])
        tf = integrate(forward, cfg, init_f)
        ts = integrate(swapped, cfg, init_s)
        assert np.array_equal(tf.x, ts.y)
        assert np.array_equal(tf.y, ts.x)
        assert np.array_equal(tf.loops["x"].psi, ts.loops["y"].psi)
        assert np.array_equal(tf.loops["x"].eps, ts.loops["y"].eps)


class TestCouplingChannels:
    def test_oscillator_channel_is_scaled_partner_position(self, oscillator):
        aug = np.array([0.3, -0.8, 0.0, 0.9, 0.1, 0.0])
        ch = coupling_channels(oscillator, 0.0, aug)
        assert ch.into_psi_x == pytest.approx(0.4 * 0.9, abs=1e-15)
        assert ch.into_psi_y == pytest.approx(0.4 * 0.3, abs=1e-15)

    def test_zero_partner_position(self, oscillator):
        aug = np.array([0.3, -0.8, 0.0, 0.0, 0.5, 0.0])
        ch = coupling_channels(oscillator, 0.0, aug)
        assert ch.into_psi_x == 0.0

    def test_unit_coupling_passthrough(self):
        loop_a, loop_b = make_symmetric_loop()
        sys = CoupledClosedLoop(
            loop_x=loop_a, loop_y=loop_b,
            coupling=Coupling(into_x2=lambda y, t: (1.0 * y[0],),
                              into_y2=lambda x, t: (0.0,),
                              beta_into_x=1.0, beta_into_y=0.0),
            theta_true_x=(1.0,), theta_true_y=(1.0,),
        )
        aug = np.array([0.0, 0.0, 0.0, 0.37, 0.0, 0.0])
        ch = coupling_channels(sys, 0.0, aug)
        assert ch.into_psi_x == pytest.approx(0.37, abs=1e-15)


class TestErrorModelConsistency:
    @staticmethod
    def _residual(sc_step):
        from decadapt import OscillatorScenario, build_oscillator

        sc = OscillatorScenario(integrator=IntegratorConfig(step=sc_step, t_final=5.0))
        sys = build_oscillator(sc)
        traj = integrate(sys, sc.integrator, sc.initial_state())
        t = traj.t
        h = t[1] - t[0]
        psi_dot = (traj.loops["x"].psi[2:] - traj.loops["x"].psi[:-2]) / (2.0 * h)
        rhs = (-2.0 * traj.loops["x"].psi + traj.loops["x"].mismatch + traj.loops["x"].eps)[1:-1]
        return float(np.max(np.abs(psi_dot - rhs)))

    def test_numeric_derivative_matches_error_model(self):
        res_h = self._residual(1e-3)
        res_h2 = self._residual(5e-4)
        assert res_h < 1e-4
        assert res_h / res_h2 >= 1.9
