import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decadapt import (
    AdaptiveLoopSpec,
    AuxiliaryPotential,
    DomainBox,
    GoalFunction,
    Parametrization,
    PartitionLayout,
    SubsystemSpec,
    TargetShaper,
    build_potential_single_coordinate,
    check_poincare,
    integral_state_rate,
    parameter_estimate,
    virtual_estimate_rate,
    zero_potential,
)
from decadapt.adaptation import (
    PotentialConstructionError,
    _adaptive_simpson,
    realizability_residual,
)
from decadapt.controller import control
from tests.test_model import GOAL, make_damping_spec


def make_loop(gain=1.0, rate=2.0, growth=(1.5, 0.5)):
    spec = make_damping_spec()
    param = Parametrization(
        alpha=lambda s, t: (s[0] - 1.0,),
        grad_state=lambda s, t: ((1.0, 0.0),),
        d_time=lambda s, t: (0.0,),
        dim=1,
        growth_upper=growth[0],
        growth_lower=growth[1],
    )
    return AdaptiveLoopSpec(
        spec=spec,
        goal=GOAL,
        shaper=TargetShaper.linear(rate),
        param=param,
        potential=zero_potential(1, 2),
        gain=np.array([[gain]]),
    )


class TestParameterEstimate:
    def test_hand_value(self):
        loop = make_loop()
        th = parameter_estimate(loop, (-1.0, 0.0), 0.0, (-1.0,))
        assert th[0] == pytest.approx(1.0, abs=1e-14)

    def test_vanishes_when_all_parts_vanish(self):
        loop = make_loop()
        th = parameter_estimate(loop, (1.0, -1.0), 0.0, (0.0,))  # psi = 0, theta_i = 0
        assert th[0] == 0.0

    def test_linear_in_gain(self):
        single = make_loop(gain=1.0)
        double = make_loop(gain=2.0)
        state, ti = (0.4, -0.6), (0.8,)
        a = parameter_estimate(single, state, 0.0, ti)
        b = parameter_estimate(double, state, 0.0, ti)
        assert b[0] == pytest.approx(2.0 * a[0], rel=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(
        ti1=st.floats(-5, 5), ti2=st.floats(-5, 5),
        x1=st.floats(-2, 2), x2=st.floats(-2, 2), gain=st.floats(0.1, 4.0),
    )
    @example(ti1=0.0, ti2=1e-10, x1=0.0, x2=1.0, gain=1.0)
    @example(ti1=0.0, ti2=5.960464477539063e-08, x1=1.5, x2=0.0, gain=1.9)
    def test_lipschitz_in_integral_part(self, ti1, ti2, x1, x2, gain):
        loop = make_loop(gain=gain)
        a = parameter_estimate(loop, (x1, x2), 0.0, (ti1,))
        b = parameter_estimate(loop, (x1, x2), 0.0, (ti2,))
        # the sums psi * alpha + theta_i and the products with the gain each
        # round once; a purely relative slack cannot absorb that
        psi_alpha = (x1 + x2) * (x1 - 1.0)
        s1, s2 = psi_alpha + ti1, psi_alpha + ti2
        rounding = (gain * (np.spacing(abs(s1)) + np.spacing(abs(s2)))
                    + np.spacing(abs(a[0])) + np.spacing(abs(b[0])))
        assert abs(a[0] - b[0]) <= gain * abs(ti1 - ti2) * (1 + 1e-12) + rounding


class TestIntegralStateRate:
    def test_matches_closed_form(self, rng):
        # lambda (x1+x2)(x1-1) - (x1+x2) x2, the instantiated update law
        loop = make_loop()
        for _ in range(200):
            s = tuple(rng.uniform(-3, 3, size=2))
            u = float(rng.uniform(-5, 5))
            got = integral_state_rate(loop, s, 0.0, u)[0]
            want = 2.0 * (s[0] + s[1]) * (s[0] - 1.0) - (s[0] + s[1]) * s[1]
            assert got == pytest.approx(want, abs=1e-12)

    def test_hand_value(self):
        loop = make_loop()
        u = control(loop.spec, loop.goal, loop.shaper, (-1.0, 0.0), (0.0,), 0.0)
        got = integral_state_rate(loop, (-1.0, 0.0), 0.0, u)
        assert got[0] == pytest.approx(4.0, abs=1e-14)

    def test_no_drive_at_goal_with_zero_velocity(self):
        loop = make_loop()
        got = integral_state_rate(loop, (0.0, 0.0), 0.0, 1.7)
        # psi = 0 and x2 = 0: both the shaped term and the velocity term vanish
        assert got[0] == 0.0

    def test_first_block_only(self):
        """The update never evaluates the parameter-dependent fields."""
        calls = {"f2": 0}

        def f2(s, th, t):
            calls["f2"] += 1
            return (th[0] * s[0],)

        spec = SubsystemSpec(
            layout=PartitionLayout(q=1, p=1),
            f1=lambda s, t: (s[1],),
            f2=f2,
            g1=lambda s: (0.0,),
            g2=lambda s: (1.0,),
            param_dim=1,
            box=DomainBox((-2.0, -2.0), (2.0, 2.0)),
        )
        param = Parametrization(
            alpha=lambda s, t: (s[0],),
            grad_state=lambda s, t: ((1.0, 0.0),),
            d_time=lambda s, t: (0.0,),
            dim=1, growth_upper=1.0, growth_lower=1.0,
        )
        loop = AdaptiveLoopSpec(
            spec=spec, goal=GOAL, shaper=TargetShaper.linear(1.0), param=param,
            potential=zero_potential(1, 2), gain=np.array([[1.0]]),
        )
        calls["f2"] = 0
        integral_state_rate(loop, (0.5, 0.5), 0.0, 1.0)
        assert calls["f2"] == 0


class TestVirtualEstimateRate:
    def test_matched_start_is_stationary(self):
        loop = make_loop()
        state = (0.5, 0.3)
        psi = GOAL.psi(state, 0.0)
        rate = virtual_estimate_rate(loop, state, 0.0, -2.0 * psi)
        assert rate[0] == 0.0

    def test_hand_value(self):
        loop = make_loop()
        rate = virtual_estimate_rate(loop, (-1.0, 0.0), 0.0, -0.45464871341284097)
        assert rate[0] == pytest.approx(4.909297426825682, abs=1e-12)

    def test_scales_with_gain(self):
        a = virtual_estimate_rate(make_loop(gain=1.0), (0.2, 0.4), 0.0, 0.7)
        b = virtual_estimate_rate(make_loop(gain=3.0), (0.2, 0.4), 0.0, 0.7)
        assert b[0] == pytest.approx(3.0 * a[0], rel=1e-14)


class TestAdaptiveLoopValidation:
    def test_gain_must_be_symmetric(self):
        spec = make_damping_spec()
        param = Parametrization(
            alpha=lambda s, t: (s[0], s[1]),
            grad_state=lambda s, t: ((1.0, 0.0), (0.0, 1.0)),
            d_time=lambda s, t: (0.0, 0.0),
            dim=2, growth_upper=1.0, growth_lower=1.0,
        )
        spec2 = SubsystemSpec(
            layout=spec.layout, f1=spec.f1, f2=spec.f2, g1=spec.g1, g2=spec.g2,
            param_dim=2, box=spec.box,
        )
        with pytest.raises(ValueError, match="symmetric"):
            AdaptiveLoopSpec(
                spec=spec2, goal=GOAL, shaper=TargetShaper.linear(1.0), param=param,
                potential=zero_potential(2, 2), gain=np.array([[1.0, 0.5], [0.0, 1.0]]),
            )

    def test_gain_must_be_positive_definite(self):
        with pytest.raises(ValueError, match="positive definite"):
            make_loop(gain=-1.0)

    def test_bad_goal_gradient_rejected(self):
        spec = make_damping_spec()
        bad_goal = GoalFunction(
            psi=lambda s, t: s[0] + s[1],
            grad_state=lambda s, t: (1.0, 0.5),
            d_time=lambda s, t: 0.0,
        )
        param = Parametrization(
            alpha=lambda s, t: (s[0] - 1.0,),
            grad_state=lambda s, t: ((1.0, 0.0),),
            d_time=lambda s, t: (0.0,),
            dim=1, growth_upper=1.5, growth_lower=0.5,
        )
        with pytest.raises(ValueError, match="finite differences"):
            AdaptiveLoopSpec(
                spec=spec, goal=bad_goal, shaper=TargetShaper.linear(1.0), param=param,
                potential=zero_potential(1, 2), gain=np.array([[1.0]]),
            )

    def test_unrealizable_potential_rejected(self):
        spec = make_damping_spec()
        param = Parametrization(
            alpha=lambda s, t: (s[1],),  # depends on the second block
            grad_state=lambda s, t: ((0.0, 1.0),),
            d_time=lambda s, t: (0.0,),
            dim=1, growth_upper=1.0, growth_lower=1.0,
        )
        with pytest.raises(ValueError, match="realizability"):
            AdaptiveLoopSpec(
                spec=spec, goal=GOAL, shaper=TargetShaper.linear(1.0), param=param,
                potential=zero_potential(1, 2), gain=np.array([[1.0]]),
            )


class TestAdaptiveSimpson:
    def test_polynomial_exact(self):
        val = _adaptive_simpson(lambda s: s * s, 0.0, 3.0, 1e-10)
        assert val == pytest.approx(9.0, abs=1e-10)

    def test_oscillatory(self):
        val = _adaptive_simpson(math.sin, 0.0, math.pi, 1e-10)
        assert val == pytest.approx(2.0, abs=1e-9)

    def test_reversed_limits(self):
        val = _adaptive_simpson(lambda s: s, 2.0, 0.0, 1e-10)
        assert val == pytest.approx(-2.0, abs=1e-12)


class TestPotentialConstruction:
    def test_alpha_independent_of_second_block_gives_zero(self):
        layout = PartitionLayout(q=1, p=1)
        box = DomainBox((-2.0, -2.0), (2.0, 2.0))
        param = Parametrization(
            alpha=lambda s, t: (s[0] - 1.0,),
            grad_state=lambda s, t: ((1.0, 0.0),),
            d_time=lambda s, t: (0.0,),
            dim=1, growth_upper=1.5, growth_lower=0.5,
        )
        pot = build_potential_single_coordinate(GOAL, param, layout, box, coord_index=0)
        for state in [(-1.0, 0.5), (2.0, -2.0)]:
            assert tuple(pot.value(state, 0.0)) == (0.0,)
            assert realizability_residual(pot, GOAL, param, layout, box) == 0.0

    def test_quadratic_antiderivative(self):
        # psi = x2, alpha = x2: the potential is x2^2 / 2 up to a constant
        layout = PartitionLayout(q=1, p=1)
        box = DomainBox((-3.0, 0.0), (3.0, 3.0))
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
        pot = build_potential_single_coordinate(goal, param, layout, box, coord_index=0)
        for x2 in (0.0, 0.7, 1.9, 3.0):
            got = pot.value((0.0, x2), 0.0)[0]
            assert got == pytest.approx(0.5 * x2 * x2, abs=1e-9)
        res = realizability_residual(pot, goal, param, layout, box)
        assert res <= 1e-7

    def test_constant_alpha_gives_zero(self):
        layout = PartitionLayout(q=1, p=1)
        box = DomainBox((-2.0, -2.0), (2.0, 2.0))
        goal = GoalFunction(
            psi=lambda s, t: s[1],
            grad_state=lambda s, t: (0.0, 1.0),
            d_time=lambda s, t: 0.0,
        )
        param = Parametrization(
            alpha=lambda s, t: (3.0,),
            grad_state=lambda s, t: ((0.0, 0.0),),
            d_time=lambda s, t: (0.0,),
            dim=1, growth_upper=1.0, growth_lower=1.0,
        )
        pot = build_potential_single_coordinate(goal, param, layout, box, coord_index=0)
        assert tuple(pot.value((1.0, 1.5), 0.0)) == (0.0,)

    def test_rejects_multi_coordinate_dependence(self):
        layout = PartitionLayout(q=0, p=2)
        box = DomainBox((-1.0, -1.0), (1.0, 1.0))
        goal = GoalFunction(
            psi=lambda s, t: s[0] + s[1],
            grad_state=lambda s, t: (1.0, 1.0),
            d_time=lambda s, t: 0.0,
        )
        param = Parametrization(
            alpha=lambda s, t: (s[1],),
            grad_state=lambda s, t: ((0.0, 1.0),),
            d_time=lambda s, t: (0.0,),
            dim=1, growth_upper=1.0, growth_lower=1.0,
        )
        with pytest.raises(PotentialConstructionError, match="check_poincare"):
            build_potential_single_coordinate(goal, param, layout, box, coord_index=1)


class TestMatrixGainLoop:
    """Two-parameter loop with a matrix gain, nonzero potential, and input
    entering both blocks: exercises every correction term of the update law."""

    @staticmethod
    def build():
        spec = SubsystemSpec(
            layout=PartitionLayout(q=1, p=1),
            f1=lambda s, t: (0.2 * s[1],),
            f2=lambda s, th, t: (
                -0.5 * s[1] + th[0] * (s[0] - 1.0) + 0.3 * math.sin(th[1] * s[0]),
            ),
            g1=lambda s: (1.0,),
            g2=lambda s: (1.0,),
            param_dim=2,
            box=DomainBox((-3.0, -3.0), (3.0, 3.0)),
        )
        goal = GoalFunction(
            psi=lambda s, t: s[0] + s[1],
            grad_state=lambda s, t: (1.0, 1.0),
            d_time=lambda s, t: 0.0,
        )
        param = Parametrization(
            alpha=lambda s, t: (s[1] + 0.1 * t, math.sin(s[1])),
            grad_state=lambda s, t: ((0.0, 1.0), (0.0, math.cos(s[1]))),
            d_time=lambda s, t: (0.1, 0.0),
            dim=2, growth_upper=2.0, growth_lower=0.5,
        )
        pot = AuxiliaryPotential(
            value=lambda s, t: (
                s[0] * s[1] + 0.5 * s[1] ** 2,
                s[0] * math.sin(s[1]) + s[1] * math.sin(s[1]) + math.cos(s[1]),
            ),
            grad_state=lambda s, t: (
                (s[1], s[0] + s[1]),
                (math.sin(s[1]), (s[0] + s[1]) * math.cos(s[1])),
            ),
            d_time=lambda s, t: (0.0, 0.0),
        )
        return AdaptiveLoopSpec(
            spec=spec, goal=goal, shaper=TargetShaper.linear(1.5), param=param,
            potential=pot, gain=np.array([[2.0, 0.5], [0.5, 1.0]]),
        )

    def test_construction_validates(self):
        loop = self.build()
        assert loop.gain.shape == (2, 2)

    def test_realizable_equals_virtual(self):
        from decadapt import IntegratorConfig
        from decadapt.simulate import integrate_loop, integrate_virtual, zero_disturbance

        loop = self.build()
        theta = (0.8, 1.2)
        x0, ti0 = (0.5, -0.2), (0.0, 0.0)
        th0 = parameter_estimate(loop, x0, 0.0, ti0)
        cfg = IntegratorConfig(step=1e-3, t_final=2.0)
        real = integrate_loop(loop, theta, zero_disturbance(), cfg, x0, ti0)
        virt = integrate_virtual(loop, theta, zero_disturbance(), cfg, x0, th0)
        assert real.status == "completed" and virt.status == "completed"
        disc = np.max(np.abs(real.theta_hat - virt.theta_hat))
        assert disc <= 1e-10  # agreement is structural, down to rounding

    def test_gain_weighted_lipschitz(self, rng):
        loop = self.build()
        op_norm = float(np.linalg.norm(loop.gain, 2))
        for _ in range(50):
            s = tuple(rng.uniform(-2, 2, size=2))
            a = rng.uniform(-3, 3, size=2)
            b = rng.uniform(-3, 3, size=2)
            da = parameter_estimate(loop, s, 0.0, a) - parameter_estimate(loop, s, 0.0, b)
            assert np.linalg.norm(da) <= op_norm * np.linalg.norm(a - b) * (1 + 1e-12)


class TestQuadraturePotentialClosedForms:
    """Quadrature against hand antiderivatives for a two-component direction."""

    A = -1.0  # lower end of the integrated coordinate's box

    def build_potential(self):
        layout = PartitionLayout(q=1, p=1)
        box = DomainBox((-3.0, self.A), (3.0, 2.0))
        goal = GoalFunction(
            psi=lambda s, t: s[0] + s[1],
            grad_state=lambda s, t: (1.0, 1.0),
            d_time=lambda s, t: 0.0,
        )
        param = Parametrization(
            alpha=lambda s, t: (s[1], math.sin(s[1])),
            grad_state=lambda s, t: ((0.0, 1.0), (0.0, math.cos(s[1]))),
            d_time=lambda s, t: (0.0, 0.0),
            dim=2, growth_upper=1.0, growth_lower=1.0,
        )
        return build_potential_single_coordinate(goal, param, layout, box, coord_index=0)

    def closed_value(self, x1, x2):
        a = self.A
        v1 = x1 * (x2 - a) + 0.5 * (x2 * x2 - a * a)
        v2 = (x1 * (math.sin(x2) - math.sin(a))
              + (x2 * math.sin(x2) + math.cos(x2)) - (a * math.sin(a) + math.cos(a)))
        return v1, v2

    def test_values_match(self, rng):
        pot = self.build_potential()
        for _ in range(20):
            x1 = float(rng.uniform(-3, 3))
            x2 = float(rng.uniform(self.A, 2))
            got = pot.value((x1, x2), 0.0)
            want = self.closed_value(x1, x2)
            assert got[0] == pytest.approx(want[0], abs=1e-9)
            assert got[1] == pytest.approx(want[1], abs=1e-9)

    def test_gradients_match(self, rng):
        pot = self.build_potential()
        a = self.A
        for _ in range(10):
            x1 = float(rng.uniform(-3, 3))
            x2 = float(rng.uniform(a, 2))
            g = np.asarray(pot.grad_state((x1, x2), 0.0))
            want = np.array([
                [x2 - a, x1 + x2],
                [math.sin(x2) - math.sin(a), (x1 + x2) * math.cos(x2)],
            ])
            np.testing.assert_allclose(g[:, 0], want[:, 0], atol=1e-6)  # differentiated quadrature
            np.testing.assert_allclose(g[:, 1], want[:, 1], atol=1e-12)  # closed form by construction

    def test_time_partial_vanishes(self):
        pot = self.build_potential()
        dt = pot.d_time((0.3, 0.4), 0.0)
        assert np.max(np.abs(dt)) <= 1e-9


class TestPoincare:
    def test_alpha_independent_of_second_block_passes(self):
        layout = PartitionLayout(q=1, p=1)
        box = DomainBox((-2.0, -2.0), (2.0, 2.0))
        param = Parametrization(
            alpha=lambda s, t: (s[0] - 1.0,),
            grad_state=lambda s, t: ((1.0, 0.0),),
            d_time=lambda s, t: (0.0,),
            dim=1, growth_upper=1.5, growth_lower=0.5,
        )
        entry = check_poincare(GOAL, param, layout, box)
        assert entry.passed
        assert entry.margin >= 0

    def test_single_coordinate_dependence_passes(self):
        layout = PartitionLayout(q=0, p=2)
        box = DomainBox((-2.0, -2.0), (2.0, 2.0))
        goal = GoalFunction(
            psi=lambda s, t: s[1] ** 2,
            grad_state=lambda s, t: (0.0, 2.0 * s[1]),
            d_time=lambda s, t: 0.0,
        )
        param = Parametrization(
            alpha=lambda s, t: (math.sin(s[1]),),
            grad_state=lambda s, t: ((0.0, math.cos(s[1])),),
            d_time=lambda s, t: (0.0,),
            dim=1, growth_upper=1.0, growth_lower=1.0,
        )
        entry = check_poincare(goal, param, layout, box)
        assert entry.passed

    def test_asymmetric_case_fails_with_unit_residual(self):
        layout = PartitionLayout(q=0, p=2)
        box = DomainBox((-2.0, -2.0), (2.0, 2.0))
        goal = GoalFunction(
            psi=lambda s, t: s[0] + s[1],
            grad_state=lambda s, t: (1.0, 1.0),
            d_time=lambda s, t: 0.0,
        )
        param = Parametrization(
            alpha=lambda s, t: (s[1],),
            grad_state=lambda s, t: ((0.0, 1.0),),
            d_time=lambda s, t: (0.0,),
            dim=1, growth_upper=1.0, growth_lower=1.0,
        )
        entry = check_poincare(goal, param, layout, box)
        assert not entry.passed
        assert entry.witness["residual"] == pytest.approx(1.0, abs=1e-6)
