import math

import numpy as np
import pytest

from decadapt import (
    ControlSingularityError,
    DomainBox,
    GoalFunction,
    PartitionLayout,
    SubsystemSpec,
    TargetShaper,
    augmented_rhs,
    control,
    coupling_channels,
    goal_error_rate,
    parameter_estimate,
)
from decadapt.controller import SINGULARITY_FLOOR
from tests.test_model import GOAL, make_damping_spec

SHAPER = TargetShaper.linear(2.0)


class TestControl:
    def test_hand_value(self):
        spec = make_damping_spec()
        u = control(spec, GOAL, SHAPER, (-1.0, 0.0), (0.0,), 0.0)
        assert u == pytest.approx(2.0, abs=1e-14)

    def test_exact_cancellation_at_target(self):
        # perfect estimate on the target set: the goal error does not move
        spec = make_damping_spec()
        state = (1.0, -1.0)  # psi = 0
        rate = goal_error_rate(spec, GOAL, SHAPER, state, (1.3,), (1.3,), 0.0)
        assert rate == 0.0

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
    def test_matched_estimate_reduces_to_target_dynamics(self):
        spec = make_damping_spec()
        for state in [(-1.0, 0.0), (0.3, 0.7), (2.0, -1.0)]:
            psi = GOAL.psi(state, 0.0)
            rate = goal_error_rate(spec, GOAL, SHAPER, state, (1.0,), (1.0,), 0.0)
            assert rate == pytest.approx(-2.0 * psi, abs=1e-14)

    def test_hand_value(self):
        spec = make_damping_spec()
        rate = goal_error_rate(spec, GOAL, SHAPER, (-1.0, 0.0), (1.0,), (0.0,), 0.0)
        assert rate == pytest.approx(-0.4546487134128410, abs=1e-12)

    def test_disturbance_passthrough(self):
        spec = make_damping_spec()
        state = (1.0, -1.0)  # psi = 0
        rate = goal_error_rate(spec, GOAL, SHAPER, state, (1.0,), (1.0,), 0.0, eps=5.0)
        assert rate == 5.0

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
            goal_error_rate(spec, GOAL, SHAPER, (0.0, 0.0), (1.0,), (1.0,), 0.0)


class TestClosedLoopConsistency:
    def test_chain_rule_matches_error_rate(self, oscillator, rng):
        """The goal-error equation is exactly the chain rule along the closed loop."""
        sys = oscillator
        q = sys.loop_x.spec.layout.q
        for _ in range(50):
            aug = rng.uniform(-2.0, 2.0, size=6)
            t = float(rng.uniform(0.0, 10.0))
            deriv = augmented_rhs(sys, t, aug)
            x = aug[:2]
            theta_hat = parameter_estimate(sys.loop_x, x, t, aug[2:3])
            channels = coupling_channels(sys, t, aug)
            expected = goal_error_rate(
                sys.loop_x.spec, sys.loop_x.goal, sys.loop_x.shaper,
                x, sys.theta_true_x, theta_hat, t, eps=channels.into_psi_x,
            )
            grad = sys.loop_x.goal.grad_state(x, t)
            chain = sys.loop_x.goal.d_time(x, t) + float(np.dot(grad, deriv[:2]))
            scale = max(abs(expected), 1.0)
            assert abs(chain - expected) / scale <= 1e-8

    def test_control_reads_only_own_state(self, oscillator):
        """Decentralization by signature: the law takes one subsystem's state."""
        import inspect

        params = list(inspect.signature(control).parameters)
        assert params == ["spec", "goal", "shaper", "state", "theta_hat", "t"]
