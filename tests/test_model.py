import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decadapt import (
    Constant,
    DomainBox,
    Formula,
    GainDescriptor,
    GoalFunction,
    Parametrization,
    PartitionLayout,
    SubsystemSpec,
    TargetShaper,
    goal_drift,
    input_gain,
)
from decadapt.adaptation import GRAD_SAMPLE_POINTS
from decadapt.model import (
    DimensionMismatchError,
    GainRangeError,
    GradientCheckError,
    NonFiniteValueError,
    check_gradient,
    check_time_derivative,
    joint_sample,
)


def drawn(box, n=GRAD_SAMPLE_POINTS, times=0.0):
    """(states, times) of an n-point draw of box, the arguments of a sampled check.

    `times` is one time for every sample or one per sample.
    """
    return box.sample(n), np.full(n, times)


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


class TestFormula:
    """`Formula` construction checks the text once; a call runs math, then numpy on columns."""

    DAMPING = "lambda state, theta, t: ((s := theta[0] * (state[0] - c)) + w * sin(s),)"

    @pytest.mark.parametrize("text,constants", [
        ("lambda state, t: (state[0] + c,)", {}),  # a name outside everything
        ("lambda state, t: (math.sin(state[0]),)", {}),  # attribute access
        ("lambda state, t: (state.real,)", {}),
        ("lambda state, t: (state[i],)", {"i": 0.0}),  # a non-literal subscript
        ("lambda state, t: (state[-1],)", {}),
        ("lambda state, t: (state[0:1],)", {}),
        ("lambda state, t: (c[0],)", {"c": 1.0}),  # a subscript of a constant
        ("lambda state, t: (abs(state[0]),)", {}),  # any other call
        ("lambda state, t: (log(state[0]),)", {}),
        ("lambda state, t: (sin(state[0], 2.0),)", {}),
        ("lambda state, t: (sin,)", {}),  # a function not called
        ("lambda sin, t: (sin(t),)", {}),  # a parameter shadowing a function
        ("lambda state, t: ((state := 1.0),)", {}),  # `:=` rebinding a parameter
        ("lambda state, t: (state[0] if t else 0.0,)", {}),
        ("lambda state, t: (state[0] < t,)", {}),
        ("lambda state, t: [state[0]]", {}),
        ("lambda state, t: (True,)", {}),
        ("lambda state, t: ('a',)", {}),
        ("lambda state, t=0.0: (state[0],)", {}),
        ("state[0] + 1.0", {}),
        ("lambda state, t: (c * state[0],)", {"c": math.nan}),  # a non-finite constant
        ("lambda state, t: (c * state[0],)", {"c": math.inf}),
        ("lambda state, t: (c * state[0],)", {"c": 1.0, "d": -math.inf}),
    ])
    def test_rejects(self, text, constants):
        with pytest.raises(ValueError, match=f"formula {re.escape(repr(text))}"):
            Formula(text, **constants)

    def test_floats_and_columns(self):
        f2 = Formula(self.DAMPING, c=1.0, w=0.5)
        assert f2.params == ["state", "theta", "t"] and f2.free == ["c", "w"] and f2.reads
        assert f2((0.5, 2.0), (3.0,), 0.0) == (-1.5 + 0.5 * math.sin(-1.5),)
        states, thetas = np.linspace(-3.0, 3.0, 101), np.linspace(0.2, 2.0, 101)
        (got,) = f2((states, states), (thetas,), 0.0)  # math.sin raised TypeError on columns
        want = [f2((x, x), (th,), 0.0)[0] for x, th in zip(states.tolist(), thetas.tolist())]
        assert np.array_equal(got, want)

    def test_constant(self):
        for value in (0.0, (), (1.0, -0.0), ((1.0, 0.0), (2.0, 3.0))):
            const = Constant(value)
            assert const([1.0], 0.0) == const() == value and not const.reads
        assert Constant([[1, 2]])("any", "args") == ((1.0, 2.0),)
        with pytest.raises(ValueError, match="must be finite"):
            Constant((1.0, math.nan))

    def test_pickles(self):
        for fn in (Formula(self.DAMPING, c=1.0, w=0.5), Constant(((1.0, -0.0),))):
            copy = pickle.loads(pickle.dumps(fn))
            assert type(copy) is type(fn) and copy.constants == fn.constants
            assert copy((0.5, 1.0), (2.0,), 0.0) == fn((0.5, 1.0), (2.0,), 0.0)

    def test_compiled_once_per_text(self):
        a, b = Formula(self.DAMPING, c=1.0, w=0.5), Formula(self.DAMPING, c=2.0, w=0.6)
        assert a.tree is b.tree and a((0.5, 0.0), (1.0,), 0.0) != b((0.5, 0.0), (1.0,), 0.0)


class TestPartitionLayout:
    def test_dimensions(self):
        layout = PartitionLayout(q=2, p=3)
        assert layout.n == 5

    def test_q_zero_allowed(self):
        assert PartitionLayout(q=0, p=2).n == 2

    @pytest.mark.parametrize("q,p", [(-1, 1), (0, 0), (3, -1)])
    def test_invalid(self, q, p):
        with pytest.raises(ValueError):
            PartitionLayout(q=q, p=p)

    def test_wrong_state_length(self):
        # the declared state box must have the layout's q + p coordinates
        with pytest.raises(DimensionMismatchError, match="state box: expected length 2, got 3"):
            make_damping_spec(box=DomainBox((-1.0,) * 3, (1.0,) * 3))


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

    @pytest.mark.parametrize("lower, upper, name", [
        ((-math.inf,), (math.inf,), "lower"),
        ((0.0, 0.0), (1.0, math.inf), "upper"),
        ((math.nan,), (1.0,), "lower"),
    ])
    def test_non_finite_bounds_rejected(self, lower, upper, name):
        # an infinite box samples NaN points, which every sampled check misreports
        with pytest.raises(ValueError, match=f"box {name} bound must be finite"):
            DomainBox(lower, upper)


class TestLieDerivative:
    def test_unit_input_gain(self):
        spec = make_damping_spec()
        for state in [(-1.0, 0.0), (2.0, 3.0), (0.0, 0.0)]:
            assert input_gain(spec, GOAL, state, 0.0) == 1.0


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

    def test_oscillator_on_sample_columns(self, oscillator):
        # the certify pass calls the loop's own drift on sample columns: finite
        # columns give the per-sample drifts, a non-finite one names its first bad element
        spec, goal = oscillator.loop_x.spec, oscillator.loop_x.goal
        states = (np.array([0.0, 0.7, -2.0]), np.array([0.0, -0.3, 1.5]))
        thetas = (np.array([1.0, 1.3, 0.4]),)
        got = goal_drift(spec, goal, states, thetas, 0.0)
        want = [goal_drift(spec, goal, (a, b), (c,), 0.0) for a, b, c in zip(*states, *thetas)]
        assert got.tolist() == want
        bad = (states[0], np.array([0.0, math.inf, math.nan]))
        with pytest.raises(NonFiniteValueError, match="f1 .* value inf at coordinate 0"):
            goal_drift(spec, goal, bad, thetas, 0.0)

    def test_theta_excluded_from_first_block_by_signature(self):
        # decentralized structure: f1 and g1 cannot read parameters at all
        import inspect

        spec = make_damping_spec()
        assert len(inspect.signature(spec.f1).parameters) == 2
        assert len(inspect.signature(spec.g1).parameters) == 1
        assert len(inspect.signature(spec.f2).parameters) == 3


RAMP = np.linspace(0.0, 1.0, GRAD_SAMPLE_POINTS)  # the time-partial checks' times


class TestGradientChecks:
    def test_accepts_correct_gradient(self):
        box = DomainBox((-2.0, -2.0), (2.0, 2.0))
        worst = check_gradient(
            lambda s, t: s[0] ** 2 + math.sin(s[1]),
            lambda s, t: (2.0 * s[0], math.cos(s[1])),
            *drawn(box),
        )
        assert worst <= 1e-5

    def test_rejects_wrong_gradient(self):
        box = DomainBox((-2.0, -2.0), (2.0, 2.0))
        with pytest.raises(GradientCheckError):
            check_gradient(
                lambda s, t: s[0] ** 2 + math.sin(s[1]),
                lambda s, t: (2.0 * s[0], -math.cos(s[1])),
                *drawn(box),
            )

    def test_vector_valued(self):
        box = DomainBox((-1.0, -1.0), (1.0, 1.0))
        worst = check_gradient(
            lambda s, t: (s[0] * s[1], s[0] ** 3),
            lambda s, t: ((s[1], s[0]), (3 * s[0] ** 2, 0.0)),
            *drawn(box),
        )
        assert worst <= 1e-5

    def test_time_partial(self):
        box = DomainBox((-1.0,), (1.0,))
        worst = check_time_derivative(
            lambda s, t: s[0] * math.exp(-t), lambda s, t: -s[0] * math.exp(-t),
            *drawn(box, times=RAMP),
        )
        assert worst <= 1e-5

    def test_rejects_wrong_time_partial(self):
        box = DomainBox((-1.0, -1.0), (1.0, 1.0))
        with pytest.raises(GradientCheckError, match="time partial"):
            check_time_derivative(lambda s, t: s[0] + s[1] + math.sin(t), lambda s, t: 0.0,
                                  *drawn(box, times=RAMP))

    def test_vector_time_partial(self):
        box = DomainBox((-1.0,), (1.0,))
        worst = check_time_derivative(
            lambda s, t: (s[0] * t, t * t), lambda s, t: (s[0], 2.0 * t),
            *drawn(box, times=RAMP),
        )
        assert worst <= 1e-5


NAN, INF = float("nan"), float("inf")


class TestNonFiniteGradients:
    """A non-finite value is the worst error, never skipped, and warns nothing."""

    BOX = DomainBox((-2.0, -2.0), (2.0, 2.0))

    @pytest.mark.parametrize("partial", [NAN, INF, -INF])
    def test_non_finite_partial_fails(self, partial):
        args = (lambda s, t: s[0] ** 2 + s[1], lambda s, t: (partial, 1.0), *drawn(self.BOX))
        with pytest.raises(GradientCheckError, match="relative error inf"):
            check_gradient(*args)
        assert check_gradient(*args, raise_on_fail=False) == INF

    def test_nan_valued_function_fails(self):
        with pytest.raises(GradientCheckError, match="relative error inf"):
            check_gradient(lambda s, t: NAN, lambda s, t: (0.0, 0.0), *drawn(self.BOX))

    def test_nan_time_partial_fails(self):
        with pytest.raises(GradientCheckError, match="relative error inf"):
            check_time_derivative(lambda s, t: s[0], lambda s, t: NAN,
                                  *drawn(self.BOX, times=RAMP))

    def test_first_non_finite_sample_is_the_witness(self):
        # finite errors everywhere except a NaN partial on part of the box
        def grad(s, t):
            return (NAN if s[0] > 1.0 else 2.0 * s[0], 1.0)

        first = next(row for row in self.BOX.sample(100) if row[0] > 1.0)
        with pytest.raises(GradientCheckError) as exc:
            check_gradient(lambda s, t: s[0] ** 2 + s[1], grad, *drawn(self.BOX))
        assert str(first.tolist()) in str(exc.value)


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

    @pytest.mark.parametrize("offset, slope", [
        (math.nan, 0.5), (0.0, math.nan), (math.inf, 0.5), (0.0, math.inf), (math.nan, math.nan),
    ])
    def test_linear_rejects_non_finite(self, offset, slope):
        with pytest.raises(ValueError, match="finite"):
            GainDescriptor.linear(offset, slope)

    @pytest.mark.parametrize("table", [
        [(0.0, 0.0), (1e-3, 0.0), (1.0, math.nan), (1000.0, 1.0)],  # min() would skip the NaN
        [(0.0, math.nan), (1.0, 1.0)],
        [(0.0, 0.0), (math.nan, 1.0)],
        [(0.0, 0.0), (1.0, math.inf)],
        [(0.0, 0.0), (math.inf, 1.0)],
    ])
    def test_tabulated_rejects_non_finite(self, table):
        with pytest.raises(ValueError, match="finite"):
            GainDescriptor.tabulated(table)

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

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            TargetShaper.linear(0.0)

    @pytest.mark.parametrize("rate, psi0_bound, name", [
        (math.inf, 0.0, "rate"), (math.nan, 0.0, "rate"), (2.0, math.inf, "psi0_bound"),
    ])
    def test_non_finite_arguments_rejected(self, rate, psi0_bound, name):
        # an infinite rate would declare the zero gain slope 1/inf
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            TargetShaper.linear(rate, psi0_bound)


class TestParametrization:
    @pytest.mark.parametrize("growth, name", [
        ((math.inf, 0.5), "growth_upper"), ((math.nan, 0.5), "growth_upper"),
        ((1.5, math.nan), "growth_lower"),
    ])
    def test_non_finite_growth_constants_rejected(self, growth, name):
        # an infinite growth_upper would pass the monotonicity check vacuously
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            Parametrization(alpha=lambda s, t: (s[0],), grad_state=lambda s, t: ((1.0, 0.0),),
                            d_time=lambda s, t: (0.0,), dim=1,
                            growth_upper=growth[0], growth_lower=growth[1])

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
