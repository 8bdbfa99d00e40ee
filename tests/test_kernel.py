"""The compiled closed-loop kernel against the numpy reference path.

The integrators never call `controller.control`, `adaptation.parameter_estimate`
/ `integral_state_rate` or `interconnect.augmented_rhs`; they run a compiled
per-loop closure instead.  These properties pin that closure to the
reference operations at random points of the domain box, so the two
implementations of the closed-loop law cannot drift apart.  A further
property pins the scalar kernels used for q = p = d = 1 loops to the
general ones bit for bit.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tests.test_adaptation as adaptation_tests
import tests.test_simulate as simulate_tests
from decadapt import (
    OscillatorScenario,
    augmented_rhs,
    build_oscillator,
    coupling_channels,
    goal_drift,
    integral_state_rate,
    parameter_estimate,
    virtual_estimate_rate,
)
from decadapt.controller import DEFAULT_CONTROL_CONFIG, control
from decadapt.simulate import _compile_loop, _general_kernels, _scalar_kernels

REL_TOL = 1e-12
VALUES = st.floats(-5.0, 5.0)
TIMES = st.floats(0.0, 10.0)


@functools.lru_cache(maxsize=None)
def _oscillator():
    return build_oscillator(OscillatorScenario())


@functools.lru_cache(maxsize=None)
def _loop(name: str):
    """(loop, theta_true) for each layout the kernel must handle."""
    if name == "oscillator-x":
        return _oscillator().loop_x, _oscillator().theta_true_x
    if name == "oscillator-y":
        return _oscillator().loop_y, _oscillator().theta_true_y
    if name == "no-first-block":
        return simulate_tests.TestNoFirstBlock.build_loop(), (0.9,)
    return adaptation_tests.TestMatrixGainLoop.build(), (0.8, 1.2)


LOOP_NAMES = ("oscillator-x", "oscillator-y", "no-first-block", "matrix-gain")


def _assert_close(got, want):
    got = np.atleast_1d(np.asarray(got, dtype=float))
    want = np.atleast_1d(np.asarray(want, dtype=float))
    assert got.shape == want.shape
    for g, w in zip(got, want):
        assert abs(g - w) <= REL_TOL * max(1.0, abs(w)), (got, want)


def _draw_point(data, loop):
    """A state in the loop's domain box, an integral state, a time and an injection."""
    box = loop.spec.box
    state = tuple(data.draw(st.floats(lo, hi)) for lo, hi in zip(box.lower, box.upper))
    theta_i = tuple(data.draw(VALUES) for _ in range(loop.spec.param_dim))
    inject = tuple(data.draw(VALUES) for _ in range(loop.spec.layout.p))
    return state, theta_i, data.draw(TIMES), inject


def _reference_state_rate(loop, theta, state, t, inject, u):
    spec = loop.spec
    f1 = np.asarray(spec.f1(state, t), dtype=float)
    f2 = np.asarray(spec.f2(state, theta, t), dtype=float)
    g1 = np.asarray(spec.g1(state), dtype=float)
    g2 = np.asarray(spec.g2(state), dtype=float)
    return np.concatenate([f1 + g1 * u, f2 + np.asarray(inject, dtype=float) + g2 * u])


def _realizable(loop, theta, tag):
    """Kernel rates as (derivative, psi, u, mismatch, eps, theta_hat)."""
    rates, _ = _compile_loop(loop, theta, DEFAULT_CONTROL_CONFIG, tag)

    def evaluate(state, theta_i, t, inject):
        deriv, (psi, u, mismatch, eps, *theta_hat) = rates(state, theta_i, t, inject)
        return deriv, psi, u, mismatch, eps, theta_hat

    return evaluate


@pytest.mark.parametrize("name", LOOP_NAMES)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_realizable_rates_match_reference(name, data):
    loop, theta = _loop(name)
    state, theta_i, t, inject = _draw_point(data, loop)
    deriv, psi, u, mismatch, eps, theta_hat = _realizable(loop, theta, "x")(
        state, theta_i, t, inject
    )

    ref_theta_hat = parameter_estimate(loop, state, t, theta_i)
    ref_u = control(loop.spec, loop.goal, loop.shaper, state, ref_theta_hat, t)
    ref_deriv = np.concatenate([
        _reference_state_rate(loop, theta, state, t, inject, ref_u),
        integral_state_rate(loop, state, t, ref_u),
    ])
    q = loop.spec.layout.q
    grad = loop.goal.grad_state(state, t)
    _assert_close(theta_hat, ref_theta_hat)
    _assert_close(u, ref_u)
    _assert_close(deriv, ref_deriv)
    _assert_close(psi, loop.goal.psi(state, t))
    _assert_close(mismatch, goal_drift(loop.spec, loop.goal, state, theta, t)
                  - goal_drift(loop.spec, loop.goal, state, ref_theta_hat, t))
    _assert_close(eps, np.dot(np.asarray(grad[q:], dtype=float), inject))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_coupled_rates_match_augmented_rhs(data):
    sys = _oscillator()
    x, ti_x, _, _ = _draw_point(data, sys.loop_x)
    y, ti_y, t, _ = _draw_point(data, sys.loop_y)
    kernel_x = _realizable(sys.loop_x, sys.theta_true_x, "x")
    kernel_y = _realizable(sys.loop_y, sys.theta_true_y, "y")
    deriv_x, _, _, _, eps_x, _ = kernel_x(x, ti_x, t, sys.coupling.into_x2(y, t))
    deriv_y, _, _, _, eps_y, _ = kernel_y(y, ti_y, t, sys.coupling.into_y2(x, t))

    aug = sys.join_state(x, ti_x, y, ti_y)
    _assert_close(list(deriv_x) + list(deriv_y), augmented_rhs(sys, t, aug))
    channels = coupling_channels(sys, t, aug)
    _assert_close(eps_x, channels.into_psi_x)
    _assert_close(eps_y, channels.into_psi_y)


@pytest.mark.parametrize("name", LOOP_NAMES)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_virtual_rates_match_reference(name, data):
    loop, theta = _loop(name)
    state, _, t, inject = _draw_point(data, loop)
    theta_hat = tuple(data.draw(VALUES) for _ in range(loop.spec.param_dim))
    _, virtual_rates = _compile_loop(loop, theta, DEFAULT_CONTROL_CONFIG, "virtual")
    deriv, (psi, u) = virtual_rates(state, theta_hat, t, inject)

    ref_u = control(loop.spec, loop.goal, loop.shaper, state, theta_hat, t)
    ref_state_dot = _reference_state_rate(loop, theta, state, t, inject, ref_u)
    grad = np.asarray(loop.goal.grad_state(state, t), dtype=float)
    psi_dot = loop.goal.d_time(state, t) + float(grad @ ref_state_dot)
    ref_deriv = np.concatenate([
        ref_state_dot, virtual_estimate_rate(loop, state, t, psi_dot)
    ])
    _assert_close(u, ref_u)
    _assert_close(psi, loop.goal.psi(state, t))
    _assert_close(deriv, ref_deriv)


def _values(lo, hi):
    """Floats in [lo, hi], with the integers in range drawn often, in both signs.

    The oscillator callables are affine in the state with integer offsets,
    so integer points hit their zeros: there a product or sum is a signed
    zero, and a kernel that drops a `0.0 +` returns the other sign.
    """
    integers = st.integers(math.ceil(lo), math.floor(hi)).map(float)
    return st.one_of(integers, integers.map(lambda v: -v), st.floats(lo, hi))


def _assert_same_bits(got, want):
    got, want = list(got), list(want)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w and math.copysign(1.0, g) == math.copysign(1.0, w), (got, want)


@pytest.mark.parametrize("name", ("oscillator-x", "oscillator-y"))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_scalar_kernels_match_general_bitwise(name, data):
    loop, theta = _loop(name)
    box = loop.spec.box
    state = tuple(data.draw(_values(lo, hi)) for lo, hi in zip(box.lower, box.upper))
    estimate = (data.draw(_values(-5.0, 5.0)),)
    inject = (data.draw(_values(-5.0, 5.0)),)
    t = data.draw(TIMES)
    floor = DEFAULT_CONTROL_CONFIG.singularity_floor
    scalar = _scalar_kernels(loop, theta, floor, "x")
    general = _general_kernels(loop, theta, floor, "x")
    for kernel, reference in zip(scalar, general):
        deriv, diag = kernel(state, estimate, t, inject)
        ref_deriv, ref_diag = reference(state, estimate, t, inject)
        _assert_same_bits(deriv, ref_deriv)
        _assert_same_bits(diag, ref_diag)
