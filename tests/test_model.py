import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decadapt import (
    DomainBox,
    GainDescriptor,
    GoalFunction,
    Parametrization,
    PartitionLayout,
    SubsystemSpec,
    TargetShaper,
    goal_drift,
    input_gain,
    lie_derivative,
)
from decadapt.model import (
    DimensionMismatchError,
    GainRangeError,
    GradientCheckError,
    NonFiniteValueError,
    check_gradient,
    check_time_derivative,
    joint_sample,
)


def make_damping_spec(wobble=0.5, offset=1.0, box=None):
    """Oscillator-style subsystem: position-velocity pair with damped second block."""
    return SubsystemSpec(
        layout=PartitionLayout(q=1, p=1),
        f1=lambda s, t: (s[1],),
        f2=lambda s, th, t: (th[0] * (s[0] - offset) + wobble * math.sin(th[0] * (s[0] - offset)),),
        g1=lambda s: (0.0,),
        g2=lambda s: (1.0,),
        param_dim=1,
        box=box or DomainBox((-5.0, -5.0), (5.0, 5.0)),
    )


GOAL = GoalFunction(
    psi=lambda s, t: s[0] + s[1],
    grad_state=lambda s, t: (1.0, 1.0),
    d_time=lambda s, t: 0.0,
)


class TestPartitionLayout:
    def test_dimensions(self):
        layout = PartitionLayout(q=2, p=3)
        assert layout.n == 5
        first, second = layout.split([1.0, 2.0, 3.0, 4.0, 5.0])
        assert list(first) == [1.0, 2.0]
        assert list(second) == [3.0, 4.0, 5.0]

    def test_q_zero_allowed(self):
        assert PartitionLayout(q=0, p=2).n == 2

    @pytest.mark.parametrize("q,p", [(-1, 1), (0, 0), (3, -1)])
    def test_invalid(self, q, p):
        with pytest.raises(ValueError):
            PartitionLayout(q=q, p=p)

    def test_wrong_state_length(self):
        with pytest.raises(DimensionMismatchError):
            PartitionLayout(q=1, p=1).check_state([1.0, 2.0, 3.0])


class TestDomainBox:
    def test_sampling_inside(self):
        box = DomainBox((-1.0, 2.0), (1.0, 5.0))
        pts = box.sample(64)
        assert pts.shape == (64, 2)
        assert (pts >= [-1.0, 2.0]).all() and (pts <= [1.0, 5.0]).all()

    def test_sampling_is_prefix_stable(self):
        box = DomainBox((0.0,), (1.0,))
        small = box.sample(10)
        large = box.sample(40)
        np.testing.assert_array_equal(small, large[:10])

    def test_joint_sample_prefix_stable(self):
        boxes = [DomainBox((0.0,), (1.0,)), DomainBox((-2.0, 0.0), (2.0, 1.0))]
        a_small, b_small = joint_sample(boxes, 8)
        a_large, b_large = joint_sample(boxes, 32)
        np.testing.assert_array_equal(a_small, a_large[:8])
        np.testing.assert_array_equal(b_small, b_large[:8])

    @pytest.mark.parametrize("count", [0, -1])
    def test_joint_sample_rejects_empty_count(self, count):
        boxes = [DomainBox((0.0,), (1.0,)), DomainBox((-2.0, 0.0), (2.0, 1.0))]
        with pytest.raises(ValueError, match="count must be >= 1"):
            joint_sample(boxes, count)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            DomainBox((1.0,), (0.0,))


class TestLieDerivative:
    def test_zero_field(self):
        val = lie_derivative(
            lambda s, t: (0.0, 0.0), lambda s, t: (3.0, -7.0), (1.0, 2.0), 0.0
        )
        assert val == 0.0

    def test_oscillator_first_block(self):
        # psi = x1 + x2, first-block field is the velocity: derivative is x2
        val = lie_derivative(
            lambda s, t: (s[1],), lambda s, t: (1.0,), (3.0, -2.0), 0.0
        )
        assert val == -2.0

    def test_unit_input_gain(self):
        spec = make_damping_spec()
        for state in [(-1.0, 0.0), (2.0, 3.0), (0.0, 0.0)]:
            assert input_gain(spec, GOAL, state, 0.0) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            lie_derivative(lambda s, t: (1.0, 2.0), lambda s, t: (1.0,), (0.0,), 0.0)

    @settings(max_examples=50, deadline=None)
    @given(
        a=st.floats(-10, 10), b=st.floats(-10, 10),
        f1=st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
        f2=st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
        g=st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
    )
    def test_bilinear(self, a, b, f1, f2, g):
        grad = lambda s, t: g
        combo = lie_derivative(
            lambda s, t: tuple(a * u + b * v for u, v in zip(f1, f2)), grad, (0.0, 0.0), 0.0
        )
        parts = a * lie_derivative(lambda s, t: f1, grad, (0.0, 0.0), 0.0) + b * lie_derivative(
            lambda s, t: f2, grad, (0.0, 0.0), 0.0
        )
        assert combo == pytest.approx(parts, rel=1e-12, abs=1e-12)


class TestGoalDrift:
    def test_oscillator_origin(self):
        spec = make_damping_spec()
        val = goal_drift(spec, GOAL, (0.0, 0.0), (1.0,), 0.0)
        assert val == pytest.approx(-1.4207354924039484, abs=1e-12)

    def test_identical_parameters_cancel(self):
        spec = make_damping_spec()
        a = goal_drift(spec, GOAL, (0.7, -0.3), (1.3,), 0.0)
        b = goal_drift(spec, GOAL, (0.7, -0.3), (1.3,), 0.0)
        assert a - b == 0.0

    def test_linear_variant(self):
        spec = make_damping_spec(wobble=0.0)
        val = goal_drift(spec, GOAL, (2.0, 0.0), (2.0,), 0.0)
        assert val == pytest.approx(2.0, abs=1e-14)

    def test_wrong_theta_length(self):
        spec = make_damping_spec()
        with pytest.raises(DimensionMismatchError):
            goal_drift(spec, GOAL, (0.0, 0.0), (1.0, 2.0), 0.0)

    def test_non_finite_field(self):
        spec = SubsystemSpec(
            layout=PartitionLayout(q=1, p=1),
            f1=lambda s, t: (s[1],),
            f2=lambda s, th, t: (float("nan"),),
            g1=lambda s: (0.0,),
            g2=lambda s: (1.0,),
            param_dim=1,
            box=DomainBox((-1.0, -1.0), (1.0, 1.0)),
        )
        with pytest.raises(NonFiniteValueError) as exc:
            goal_drift(spec, GOAL, (0.0, 0.0), (1.0,), 0.0)
        assert exc.value.index == 0

    def test_theta_excluded_from_first_block_by_signature(self):
        # decentralized structure: f1 and g1 cannot read parameters at all
        import inspect

        spec = make_damping_spec()
        assert len(inspect.signature(spec.f1).parameters) == 2
        assert len(inspect.signature(spec.g1).parameters) == 1
        assert len(inspect.signature(spec.f2).parameters) == 3


class TestGradientChecks:
    def test_accepts_correct_gradient(self):
        box = DomainBox((-2.0, -2.0), (2.0, 2.0))
        worst = check_gradient(
            lambda s, t: s[0] ** 2 + math.sin(s[1]),
            lambda s, t: (2.0 * s[0], math.cos(s[1])),
            box,
        )
        assert worst <= 1e-5

    def test_rejects_wrong_gradient(self):
        box = DomainBox((-2.0, -2.0), (2.0, 2.0))
        with pytest.raises(GradientCheckError):
            check_gradient(
                lambda s, t: s[0] ** 2 + math.sin(s[1]),
                lambda s, t: (2.0 * s[0], -math.cos(s[1])),
                box,
            )

    def test_vector_valued(self):
        box = DomainBox((-1.0, -1.0), (1.0, 1.0))
        worst = check_gradient(
            lambda s, t: (s[0] * s[1], s[0] ** 3),
            lambda s, t: ((s[1], s[0]), (3 * s[0] ** 2, 0.0)),
            box,
        )
        assert worst <= 1e-5

    def test_time_partial(self):
        box = DomainBox((-1.0,), (1.0,))
        worst = check_time_derivative(
            lambda s, t: s[0] * math.exp(-t), lambda s, t: -s[0] * math.exp(-t), box
        )
        assert worst <= 1e-5


class TestGainDescriptor:
    def test_linear_evaluation(self):
        g = GainDescriptor.linear(0.5, 2.0)
        assert g.evaluate(3.0) == 6.5
        assert g.is_linear

    def test_linear_validation(self):
        with pytest.raises(ValueError):
            GainDescriptor.linear(-0.1, 1.0)
        with pytest.raises(ValueError):
            GainDescriptor.linear(0.0, -1.0)

    def test_tabulated_interpolation(self):
        g = GainDescriptor.tabulated([(0.0, 0.0), (1.0, 2.0), (2.0, 2.5)])
        assert g.evaluate(0.5) == pytest.approx(1.0)
        assert g.evaluate(2.0) == 2.5
        with pytest.raises(GainRangeError):
            g.evaluate(2.1)

    def test_tabulated_must_start_at_zero(self):
        with pytest.raises(ValueError):
            GainDescriptor.tabulated([(0.5, 0.0), (1.0, 1.0)])

    def test_tabulated_monotonicity_enforced(self):
        with pytest.raises(ValueError):
            GainDescriptor.tabulated([(0.0, 0.0), (1.0, 2.0), (1.0, 3.0)])
        with pytest.raises(ValueError):
            GainDescriptor.tabulated([(0.0, 1.0), (1.0, 0.5)])

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(0.01, 10.0), min_size=1, max_size=6))
    def test_tabulated_evaluation_monotone(self, increments):
        xs = np.concatenate([[0.0], np.cumsum(increments)])
        ys = np.sqrt(xs)
        g = GainDescriptor.tabulated(list(zip(xs, ys)))
        queries = np.linspace(0.0, xs[-1], 17)
        vals = [g.evaluate(v) for v in queries]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestTargetShaper:
    def test_linear_shaper_zero_at_origin(self):
        shaper = TargetShaper.linear(2.0)
        for t in (0.0, 1.5, 100.0):
            assert shaper.phi(0.0, t) == 0.0

    def test_linear_shaper_energy_gain_slope_exact(self):
        for rate in (0.5, 2.0, 7.0):
            shaper = TargetShaper.linear(rate)
            assert shaper.gain_l2_from_l2.slope == 1.0 / rate

    def test_linear_shaper_peak_gain(self):
        shaper = TargetShaper.linear(2.0, psi0_bound=1.0)
        assert shaper.gain_inf_from_l2.offset == 1.0
        assert shaper.gain_inf_from_l2.slope == pytest.approx(0.5)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            TargetShaper.linear(0.0)


class TestParametrization:
    def test_growth_constants_validated(self):
        with pytest.raises(ValueError):
            Parametrization(
                alpha=lambda s, t: (s[0],),
                grad_state=lambda s, t: ((1.0, 0.0),),
                d_time=lambda s, t: (0.0,),
                dim=1,
                growth_upper=0.5,
                growth_lower=1.5,
            )
