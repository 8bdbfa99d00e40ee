import math
import re

import numpy as np
import pytest

from decadapt import (
    AdaptiveLoopSpec,
    ControlSingularityError,
    Coupling,
    CoupledClosedLoop,
    DomainBox,
    GoalFunction,
    Formula,
    IntegratorConfig,
    OscillatorScenario,
    Parametrization,
    PartitionLayout,
    SubsystemSpec,
    TargetShaper,
    build_oscillator,
    certify_closed_loop,
    integrate,
    integrate_loop,
    small_gain_problem,
    verify_coupling_bound,
    zero_potential,
)
from decadapt.interconnect import zero_coupling
from decadapt.scenario import MONOTONICITY_STATE_BOX, MONOTONICITY_THETA_BOX
from decadapt.simulate import STATUS_COMPLETED, zero_disturbance


# One step of a coupled run: its first log row is the initial point.
ONE_STEP = IntegratorConfig(step=1e-3, t_final=1e-3)


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
        # one step of 1e-7 with and without the coupling: (difference) / step is
        # the coupling's share of the state rates, to O(step)
        h = 1e-7
        cfg = IntegratorConfig(step=h, t_final=h)
        bare = CoupledClosedLoop(
            loops=oscillator.loops,
            coupling=zero_coupling(oscillator.loops),
            theta_true={"x": (1.0,), "y": (1.0,)},
        )
        coupled, uncoupled = integrate(oscillator, cfg, aug), integrate(bare, cfg, aug)
        # k1 * y1 enters x2, k2 * x1 enters y2
        for which, into2 in ("x", 0.4 * 1.0), ("y", 0.4 * -1.0):
            diff = (coupled.loops[which].state[1] - uncoupled.loops[which].state[1]) / h
            assert abs(diff[0]) <= 1e-6  # first blocks untouched
            assert diff[1] == pytest.approx(into2, abs=1e-6)
            # decentralized: the input reads only its own loop's state
            assert coupled.loops[which].u[0] == uncoupled.loops[which].u[0]

    def test_negative_declared_bounds_rejected(self):
        with pytest.raises(ValueError):
            Coupling({"x": lambda y, t: (0.0,), "y": lambda x, t: (0.0,)},
                     {"x": -0.1, "y": 0.0})

    @pytest.mark.parametrize("bounds, name", [
        ({"x": math.nan, "y": 0.0}, "beta['x']"),
        ({"x": 0.0, "y": math.inf}, "beta['y']"),
    ], ids=["beta-x", "beta-y"])
    def test_non_finite_declared_bounds_rejected(self, bounds, name):
        # NaN passes the >= 0 test; the small-gain data would reject it only later
        with pytest.raises(ValueError, match=f"{re.escape(name)} must be finite"):
            Coupling({"x": lambda y, t: (0.0,), "y": lambda x, t: (0.0,)}, bounds)


class TestCoupledClosedLoop:
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_theta_true_rejected(self, oscillator, value):
        with pytest.raises(ValueError, match=re.escape("theta_true['y'][0] must be finite")):
            CoupledClosedLoop(oscillator.loops, oscillator.coupling,
                              {"x": (1.0,), "y": (value,)})

    def test_tags_must_agree(self, oscillator):
        with pytest.raises(ValueError, match="name them in order"):
            CoupledClosedLoop(oscillator.loops, oscillator.coupling,
                              {"y": (1.0,), "x": (1.0,)})
        with pytest.raises(ValueError, match="two or more loops"):
            CoupledClosedLoop({"x": oscillator.loop_x},
                              zero_coupling({"x": oscillator.loop_x}), {"x": (1.0,)})


class TestThreeLoops:
    """Three oscillator loops a, b, c: every layer above the runner takes N loops."""

    CFG = IntegratorConfig(step=1e-3, t_final=1.0)
    STARTS = {"a": ((-1.0, 0.0), (-1.0,)), "b": ((1.0, 0.0), (-2.0,)), "c": ((0.5, -0.5), (0.3,))}
    THETAS = {"a": (1.0,), "b": (0.8,), "c": (1.2,)}
    # into each loop: the first other loop's position and the second's velocity, scaled
    FIELD = "lambda first, second, t: (0.1 * first[0] + 0.01 * second[1],)"

    def system(self, into=None):
        x, y = build_oscillator(OscillatorScenario()).loops.values()
        z = build_oscillator(OscillatorScenario(lambda_x=3.0, offset_x=0.5)).loop_x
        loops = {"a": x, "b": y, "c": z}
        return CoupledClosedLoop(loops, Coupling(into) if into else zero_coupling(loops),
                                 self.THETAS)

    def aug0(self):
        return [v for state, ti in self.STARTS.values() for v in (*state, *ti)]

    def test_zero_coupling_matches_single_loops_bitwise(self):
        sys = self.system()
        traj = integrate(sys, self.CFG, self.aug0())
        assert traj.status == STATUS_COMPLETED and list(traj.loops) == ["a", "b", "c"]
        for tag, (state0, ti0) in self.STARTS.items():
            want = integrate_loop(sys.loops[tag], self.THETAS[tag], zero_disturbance(), self.CFG,
                                  state0, ti0)
            for name, value in vars(want).items():
                got = getattr(traj.loops[tag], name)
                if name == "status":
                    assert got == value
                else:
                    assert (got.shape, got.tobytes()) == (value.shape, value.tobytes()), (tag, name)

    def test_fields_read_the_other_loops_in_loop_order(self):
        formula = self.system({tag: Formula(self.FIELD) for tag in "abc"})
        plain = self.system({tag: eval(self.FIELD) for tag in "abc"})
        got, want = (integrate(sys, self.CFG, self.aug0()) for sys in (formula, plain))
        (a, _), (b, _), (c, _) = self.STARTS.values()
        # the goal gradient's second-block entry is 1, so eps at t0 is the field itself
        for tag, first, second in (("a", b, c), ("b", a, c), ("c", a, b)):
            assert got.loops[tag].eps[0] == 0.0 + 1.0 * (0.1 * first[0] + 0.01 * second[1])
            for name, value in vars(want.loops[tag]).items():
                if name != "status":
                    assert getattr(got.loops[tag], name).tobytes() == value.tobytes()
        assert got.status == want.status == STATUS_COMPLETED

    def test_two_loop_checks_reject_three_loops(self):
        sys = self.system()
        with pytest.raises(ValueError, match="two loops, got 3"):
            small_gain_problem(sys)
        boxes = ((MONOTONICITY_STATE_BOX, MONOTONICITY_THETA_BOX),) * 3
        with pytest.raises(ValueError, match="two loops, got 3"):
            certify_closed_loop(sys, self.CFG, self.aug0(), boxes, (0.0,) * 3, 100)
        traj = integrate(sys, IntegratorConfig(step=1e-3, t_final=1e-2), self.aug0())
        with pytest.raises(ValueError, match="two loops, got 3"):
            verify_coupling_bound(traj, "into_a", 0.0)


class TestAugmentedRhs:
    """The coupled system at one point: the first log row of a one-step `integrate`."""

    def test_initial_point_values(self, oscillator, scenario):
        loops = integrate(oscillator, ONE_STEP, scenario.initial_state()).loops
        # u_x cancels damping(-1) = -2.4546487134128405 and installs -2 psi_x = 2
        assert loops["x"].u[0] == 4.4546487134128405
        assert loops["x"].eps[0] == 0.4  # k1 * y1
        assert loops["y"].eps[0] == -0.4  # k2 * x1

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
            loops={"x": loop_a, "y": bad_loop},
            coupling=zero_coupling({"x": loop_a, "y": bad_loop}),
            theta_true={"x": (1.0,), "y": (1.0,)},
        )
        with pytest.raises(ControlSingularityError) as exc:
            integrate(sys, ONE_STEP, np.zeros(6))
        assert exc.value.subsystem == "y"

    def test_wrong_augmented_length(self, oscillator):
        with pytest.raises(ValueError, match="augmented state must have length 6, got 5"):
            integrate(oscillator, ONE_STEP, np.zeros(5))


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
        assert np.array_equal(traj.loops["x"].state, lx.state)
        assert np.array_equal(traj.loops["x"].theta_i, lx.theta_i)
        assert np.array_equal(traj.loops["x"].theta_hat, lx.theta_hat)
        assert np.array_equal(traj.loops["y"].state, ly.state)
        assert np.array_equal(traj.loops["y"].theta_i, ly.theta_i)

    def test_label_swap_symmetry(self):
        loop_a, loop_b = make_symmetric_loop()
        cfg = IntegratorConfig(step=1e-3, t_final=2.0)
        k1, k2 = 0.3, 0.7
        forward = CoupledClosedLoop(
            loops={"x": loop_a, "y": loop_b},
            coupling=Coupling({"x": lambda y, t: (k1 * y[0],),
                               "y": lambda x, t: (k2 * x[0],)},
                              {"x": k1, "y": k2}),
            theta_true={"x": (1.0,), "y": (0.5,)},
        )
        swapped = CoupledClosedLoop(
            loops={"x": loop_b, "y": loop_a},
            coupling=Coupling({"x": lambda y, t: (k2 * y[0],),
                               "y": lambda x, t: (k1 * x[0],)},
                              {"x": k2, "y": k1}),
            theta_true={"x": (0.5,), "y": (1.0,)},
        )
        init_f = np.array([-1.0, 0.2, 0.1, 0.8, -0.3, -0.5])
        init_s = np.array([0.8, -0.3, -0.5, -1.0, 0.2, 0.1])
        tf = integrate(forward, cfg, init_f)
        ts = integrate(swapped, cfg, init_s)
        assert np.array_equal(tf.loops["x"].state, ts.loops["y"].state)
        assert np.array_equal(tf.loops["y"].state, ts.loops["x"].state)
        assert np.array_equal(tf.loops["x"].psi, ts.loops["y"].psi)
        assert np.array_equal(tf.loops["x"].eps, ts.loops["y"].eps)


class TestEpsChannel:
    """The logged eps of a coupled run is the coupling channel into that loop's goal error."""

    def test_oscillator_channel_is_scaled_partner_position(self, oscillator):
        aug = np.array([0.3, -0.8, 0.0, 0.9, 0.1, 0.0])
        loops = integrate(oscillator, ONE_STEP, aug).loops
        assert loops["x"].eps[0] == 0.36000000000000004  # 0.4 * 0.9
        assert loops["y"].eps[0] == 0.12  # 0.4 * 0.3

    def test_zero_partner_position(self, oscillator):
        aug = np.array([0.3, -0.8, 0.0, 0.0, 0.5, 0.0])
        assert integrate(oscillator, ONE_STEP, aug).loops["x"].eps[0] == 0.0

    def test_unit_coupling_passthrough(self):
        loop_a, loop_b = make_symmetric_loop()
        sys = CoupledClosedLoop(
            loops={"x": loop_a, "y": loop_b},
            coupling=Coupling({"x": lambda y, t: (1.0 * y[0],),
                               "y": lambda x, t: (0.0,)},
                              {"x": 1.0, "y": 0.0}),
            theta_true={"x": (1.0,), "y": (1.0,)},
        )
        aug = np.array([0.0, 0.0, 0.0, 0.37, 0.0, 0.0])
        assert integrate(sys, ONE_STEP, aug).loops["x"].eps[0] == 0.37


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
