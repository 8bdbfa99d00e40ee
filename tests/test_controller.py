from dataclasses import replace

import numpy as np
import pytest

from decadapt import (
    ControlSingularityError,
    Disturbance,
    DomainBox,
    IntegratorConfig,
    PartitionLayout,
    SubsystemSpec,
    TargetShaper,
    control,
    integrate,
    integrate_loop,
)
from decadapt.controller import SINGULARITY_FLOOR
from decadapt.simulate import zero_disturbance
from tests.test_adaptation import make_loop
from tests.test_model import GOAL, make_damping_spec

SHAPER = TargetShaper.linear(2.0)


def run_loop(state, theta_i, theta_true=(1.0,), spec=None, disturbance=None, h=1e-7,
             t_final=None):
    """`integrate_loop` of `make_loop` (GOAL, SHAPER, zero potential, unit gain) on spec.

    With the zero potential and unit gain, theta_hat = psi * alpha + theta_i.
    The default is one step of h, whose rows give the goal error's rate to O(h).
    """
    loop = make_loop() if spec is None else replace(make_loop(), spec=spec)
    cfg = IntegratorConfig(step=h, t_final=t_final or h)
    return integrate_loop(loop, theta_true, disturbance or zero_disturbance(), cfg, state,
                          theta_i)


def psi_rate(traj):
    return (traj.psi[1] - traj.psi[0]) / (traj.t[1] - traj.t[0])


class TestControl:
    def test_hand_value(self):
        spec = make_damping_spec()
        u = control(spec, GOAL, SHAPER, (-1.0, 0.0), (0.0,), 0.0)
        assert u == pytest.approx(2.0, abs=1e-14)

    def test_exact_cancellation_at_target(self):
        # perfect estimate on the target set: the goal error does not move
        state = (1.0, -1.0)  # psi = 0, so theta_hat = theta_i
        traj = run_loop(state, (1.3,), theta_true=(1.3,), h=1e-3, t_final=1.0)
        assert traj.psi[0] == 0.0 and traj.mismatch[0] == 0.0
        assert np.max(np.abs(traj.psi)) <= 1e-12
        assert np.max(np.abs(traj.mismatch)) <= 1e-12

    def test_singularity_raises(self):
        spec = SubsystemSpec(
            layout=PartitionLayout(q=1, p=1),
            f1=lambda s, t: (s[1],),
            f2=lambda s, th, t: (th[0] * s[0],),
            g1=lambda s: (0.0,),
            g2=lambda s: (0.0,),
            param_dim=1,
            box=DomainBox((-1.0, -1.0), (1.0, 1.0)),
        )
        with pytest.raises(ControlSingularityError) as exc:
            control(spec, GOAL, SHAPER, (0.5, 0.5), (1.0,), 3.0)
        assert exc.value.t == 3.0
        assert exc.value.state == (0.5, 0.5)

    @staticmethod
    def input_gain_spec(gain):
        return SubsystemSpec(
            layout=PartitionLayout(q=1, p=1),
            f1=lambda s, t: (0.0,),
            f2=lambda s, th, t: (0.0,),
            g1=lambda s: (0.0,),
            g2=lambda s: (gain,),
            param_dim=1,
            box=DomainBox((-1.0, -1.0), (1.0, 1.0)),
        )

    def test_fixed_floor(self):
        assert SINGULARITY_FLOOR == 1e-9
        control(self.input_gain_spec(1e-6), GOAL, SHAPER, (0.0, 0.0), (1.0,), 0.0)  # above
        with pytest.raises(ControlSingularityError):
            control(self.input_gain_spec(1e-10), GOAL, SHAPER, (0.0, 0.0), (1.0,), 0.0)


class TestGoalErrorRate:
    """psi_dot = -phi(psi) + mismatch + eps along `integrate_loop` runs."""

    def test_matched_estimate_reduces_to_target_dynamics(self):
        for state in [(-1.0, 0.0), (0.3, 0.7), (2.0, -1.0)]:
            psi = GOAL.psi(state, 0.0)
            theta_i = (1.0 - psi * (state[0] - 1.0),)  # theta_hat = theta_true = 1
            traj = run_loop(state, theta_i, h=1e-3, t_final=1.0)
            assert np.max(np.abs(traj.mismatch)) <= 1e-12
            np.testing.assert_allclose(traj.psi, psi * np.exp(-2.0 * traj.t), rtol=0, atol=1e-9)

    def test_hand_value(self):
        traj = run_loop((-1.0, 0.0), (-2.0,))  # psi = -1, alpha = -2: theta_hat = 0
        assert traj.theta_hat[0, 0] == 0.0
        assert -2.0 * traj.psi[0] + traj.mismatch[0] == pytest.approx(-0.4546487134128410,
                                                                       abs=1e-12)
        assert psi_rate(traj) == pytest.approx(-0.4546487134128410, rel=1e-5)

    def test_disturbance_passthrough(self):
        state = (1.0, -1.0)  # psi = 0, so theta_hat = theta_i
        traj = run_loop(state, (1.0,), disturbance=Disturbance(signal=lambda t: 5.0))
        assert traj.eps[0] == 5.0 and traj.mismatch[0] == 0.0
        assert psi_rate(traj) == pytest.approx(5.0, rel=1e-5)

    def test_propagates_singularity(self):
        spec = SubsystemSpec(
            layout=PartitionLayout(q=1, p=1),
            f1=lambda s, t: (0.0,),
            f2=lambda s, th, t: (0.0,),
            g1=lambda s: (0.0,),
            g2=lambda s: (0.0,),
            param_dim=1,
            box=DomainBox((-1.0, -1.0), (1.0, 1.0)),
        )
        with pytest.raises(ControlSingularityError):
            run_loop((0.0, 0.0), (1.0,), spec=spec)


class TestClosedLoopConsistency:
    def test_chain_rule_matches_error_rate(self, oscillator, rng):
        """The goal-error equation is the chain rule along the closed loop.

        The goal-error model at the logged initial point, -phi(psi) + mismatch
        + eps, equals the rate of the logged psi over one step of 1e-7.
        """
        h = 1e-7
        cfg = IntegratorConfig(step=h, t_final=h)
        for _ in range(50):
            aug = rng.uniform(-2.0, 2.0, size=6)
            t = float(rng.uniform(0.0, 10.0))
            traj = integrate(oscillator, cfg, aug, t0=t)
            for which in "xy":
                loop = traj.loops[which]
                shaper = getattr(oscillator, f"loop_{which}").shaper
                expected = -shaper.phi(loop.psi[0], t) + loop.mismatch[0] + loop.eps[0]
                chain = (loop.psi[1] - loop.psi[0]) / h
                assert abs(chain - expected) / max(abs(expected), 1.0) <= 1e-5

    def test_control_reads_only_own_state(self, oscillator):
        """Decentralization by signature: the law takes one subsystem's state."""
        import inspect

        params = list(inspect.signature(control).parameters)
        assert params == ["spec", "goal", "shaper", "state", "theta_hat", "t"]
