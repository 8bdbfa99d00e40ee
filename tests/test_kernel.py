"""The per-point reference kernels against the paper's equations, and the runners against them.

The integrators run generated RK4 runners (`simulate._runner`) that never
call `controller.control` or `adaptation.parameter_estimate` /
`integral_state_rate`.  `TestGeneratedRunners` pins every runner kind bit
for bit to `reference_rk4` on `_general_kernels`, the hand-written per-point
kernel pair.  These properties pin that pair to the per-point equations at
random points of the domain box, so the chain from the runners to the
equations has one link per step, and run the four loop layouts below through
the runners from integer points, where signed zeros show.
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
    ControlSingularityError,
    Disturbance,
    IntegratorConfig,
    OscillatorScenario,
    build_oscillator,
    control,
    goal_drift,
    integral_state_rate,
    integrate_loop,
    integrate_virtual,
    parameter_estimate,
)
from decadapt.controller import SINGULARITY_FLOOR
from tests.test_simulate import _general_kernels, reference_rk4, same_bits

REL_TOL = 1e-12
VALUES = st.floats(-5.0, 5.0)
TIMES = st.floats(0.0, 10.0)


@functools.lru_cache(maxsize=None)
def _oscillator():
    return build_oscillator(OscillatorScenario())


@functools.lru_cache(maxsize=None)
def _loop(name: str):
    """(loop, theta_true) for each layout the reference and the runners must handle."""
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


def _kernels(loop, theta, tag):
    """`_general_kernels` of the loop: (rates, virtual_rates)."""
    return _general_kernels(loop, theta, SINGULARITY_FLOOR, tag)


def _realizable(loop, theta, tag):
    """Reference rates as (derivative, psi, u, mismatch, eps, theta_hat)."""
    rates, _ = _kernels(loop, theta, tag)

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


@pytest.mark.parametrize("name", LOOP_NAMES)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_virtual_rates_match_reference(name, data):
    loop, theta = _loop(name)
    state, _, t, inject = _draw_point(data, loop)
    theta_hat = tuple(data.draw(VALUES) for _ in range(loop.spec.param_dim))
    _, virtual_rates = _kernels(loop, theta, "virtual")
    deriv, (psi, u, mismatch, eps, *_) = virtual_rates(state, theta_hat, t, inject)

    ref_u = control(loop.spec, loop.goal, loop.shaper, state, theta_hat, t)
    ref_state_dot = _reference_state_rate(loop, theta, state, t, inject, ref_u)
    grad = np.asarray(loop.goal.grad_state(state, t), dtype=float)
    psi_dot = loop.goal.d_time(state, t) + float(grad @ ref_state_dot)
    ref_psi = loop.goal.psi(state, t)
    alpha = np.asarray(loop.param.alpha(state, t), dtype=float)
    ref_deriv = np.concatenate([  # the reduced update law gain @ ((psi_dot + phi) * alpha)
        ref_state_dot, loop.gain @ ((psi_dot + loop.shaper.phi(ref_psi, t)) * alpha)
    ])
    _assert_close(u, ref_u)
    _assert_close(psi, ref_psi)
    _assert_close(deriv, ref_deriv)
    _assert_close(mismatch, goal_drift(loop.spec, loop.goal, state, theta, t)
                  - goal_drift(loop.spec, loop.goal, state, theta_hat, t))
    _assert_close(eps, np.dot(grad[loop.spec.layout.q:], inject))


def _values(lo, hi):
    """Floats in [lo, hi], with the integers in range drawn often, in both signs.

    The oscillator callables are affine in the state with integer offsets,
    so integer points hit their zeros: there a product or sum is a signed
    zero, and a kernel that drops a `0.0 +` returns the other sign.
    """
    integers = st.integers(math.ceil(lo), math.floor(hi)).map(float)
    return st.one_of(integers, integers.map(lambda v: -v), st.floats(lo, hi))


@pytest.mark.parametrize("name", LOOP_NAMES)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_generated_kernels_match_general_bitwise(name, data):
    """2-step `integrate_loop` and `integrate_virtual` runs equal `reference_rk4` on
    `_general_kernels` bit for bit, signed zeros included, from integer-rich points."""
    loop, theta = _loop(name)
    box, n = loop.spec.box, loop.spec.layout.n
    state = [data.draw(_values(lo, hi)) for lo, hi in zip(box.lower, box.upper)]
    estimate = [data.draw(_values(-5.0, 5.0)) for _ in range(loop.spec.param_dim)]
    signal, t0 = data.draw(_values(-5.0, 5.0)), data.draw(TIMES)
    disturbance = Disturbance(signal=lambda t: signal)
    inject = [signal * v for v in disturbance.resolve_direction(loop.spec.layout.p)]
    cfg = IntegratorConfig(step=0.05, t_final=0.1)
    args = (state + estimate, t0, cfg.step, cfg.n_steps, 1, cfg.divergence_bound)
    for integrator, kernel in zip((integrate_loop, integrate_virtual), _kernels(loop, theta, "x")):
        def rhs(t, z, kernel=kernel):
            return kernel(z[:n], z[n:], t, inject)

        try:
            t, y, diag, status = reference_rk4(rhs, *args)
        except ControlSingularityError:  # at the initial point
            with pytest.raises(ControlSingularityError):
                integrator(loop, theta, disturbance, cfg, state, estimate, t0)
            continue
        got = integrator(loop, theta, disturbance, cfg, state, estimate, t0)
        assert got.status == status
        assert same_bits(got.t, t)
        assert same_bits(np.column_stack((got.state, got.theta_i)), y)
        assert same_bits(np.column_stack((got.psi, got.u, got.mismatch, got.eps, got.theta_hat)),
                         diag)
