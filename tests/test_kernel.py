"""The compiled closed-loop kernel against the numpy reference path.

The integrators never call `controller.control`, `adaptation.parameter_estimate`
/ `integral_state_rate` or `interconnect.augmented_rhs`; they run a compiled
per-loop closure instead.  These properties pin that closure to the
reference operations at random points of the domain box, so the two
implementations of the closed-loop law cannot drift apart.  A further
property pins the kernels generated per loop layout bit for bit to
`_general_kernels`, the hand-written general kernel pair they replaced,
kept here verbatim as the reference.
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
from decadapt.adaptation import AdaptiveLoopSpec
from decadapt.controller import SINGULARITY_FLOOR, ControlSingularityError, control
from decadapt.model import _dot
from decadapt.simulate import _compile_loop

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
    rates, _ = _compile_loop(loop, theta, tag)

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
    _, virtual_rates = _compile_loop(loop, theta, "virtual")
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


# The general kernel pair the generated kernels replaced, verbatim.
def _general_kernels(loop: AdaptiveLoopSpec, theta_true: tuple, floor: float, tag: str):
    """(rates, virtual_rates) of `_compile_loop` for any layout.

    Both closures run one shared evaluation of the certainty-equivalent
    control input and the true plant rate (`closed_loop`).  The arithmetic
    matches the reference operations in `controller` and `adaptation` term
    for term; the closures only share sub-expressions.
    """
    spec, goal, shaper, param, pot = loop.spec, loop.goal, loop.shaper, loop.param, loop.potential
    q = spec.layout.q
    gamma_rows = [tuple(r) for r in np.atleast_2d(loop.gain).tolist()]
    psi_fn, grad_fn, dpsidt_fn = goal.psi, goal.grad_state, goal.d_time
    alpha_fn, dalpha_fn, dalphadt_fn = param.alpha, param.grad_state, param.d_time
    pot_fn, dpot_fn, dpotdt_fn = pot.value, pot.grad_state, pot.d_time
    f1_fn, f2_fn, g1_fn, g2_fn = spec.f1, spec.f2, spec.g1, spec.g2
    phi = shaper.phi

    def closed_loop(state, psi, theta_hat, t, inject2):
        """Control input at the estimate theta_hat and the true plant rate.

        Returns (grad, dpsidt, phi, u, f1, g1, state_dot, mismatch), with
        mismatch the true drift of the goal function minus the estimated one.
        """
        grad = grad_fn(state, t)
        gq = grad[:q]
        gp = grad[q:]
        f1v = f1_fn(state, t)
        g1v = g1_fn(state)
        g2v = g2_fn(state)
        lf1 = _dot(gq, f1v)
        drift_hat = lf1 + _dot(gp, f2_fn(state, theta_hat, t))
        gain_u = _dot(gq, g1v) + _dot(gp, g2v)
        if abs(gain_u) < floor:
            raise ControlSingularityError(state, t, gain_u, subsystem=tag)
        phiv = phi(psi, t)
        dpsidt = dpsidt_fn(state, t)
        u = (-drift_hat - phiv - dpsidt) / gain_u

        f2v = f2_fn(state, theta_true, t)
        state_dot = [fv + gv * u for fv, gv in zip(f1v, g1v)]
        state_dot += [fv + iv + gv * u for fv, iv, gv in zip(f2v, inject2, g2v)]
        drift_true = lf1 + _dot(gp, f2v)
        return grad, dpsidt, phiv, u, f1v, g1v, state_dot, drift_true - drift_hat

    def rates(state, theta_i, t, inject2):
        psi = psi_fn(state, t)
        alpha = alpha_fn(state, t)
        v = [psi * a - pv + ti for a, pv, ti in zip(alpha, pot_fn(state, t), theta_i)]
        theta_hat = [_dot(row, v) for row in gamma_rows]
        grad, _, phiv, u, f1v, g1v, state_dot, mismatch = closed_loop(
            state, psi, theta_hat, t, inject2
        )

        theta_i_dot = []
        for a, da, dadt, dp, dpdt in zip(alpha, dalpha_fn(state, t), dalphadt_fn(state, t),
                                         dpot_fn(state, t), dpotdt_fn(state, t)):
            corr = dpdt - psi * (dadt + _dot(da[:q], f1v)) + _dot(dp[:q], f1v)
            corr -= (psi * _dot(da[:q], g1v) - _dot(dp[:q], g1v)) * u
            theta_i_dot.append(phiv * a + corr)
        return state_dot + theta_i_dot, (psi, u, mismatch, _dot(grad[q:], inject2), *theta_hat)

    def virtual_rates(state, theta_hat, t, inject2):
        psi = psi_fn(state, t)
        grad, dpsidt, phiv, u, _, _, state_dot, _ = closed_loop(state, psi, theta_hat, t, inject2)
        psi_dot = dpsidt + _dot(grad, state_dot)
        w = psi_dot + phiv
        incr = [w * a for a in alpha_fn(state, t)]
        return state_dot + [_dot(row, incr) for row in gamma_rows], (psi, u)

    return rates, virtual_rates


@pytest.mark.parametrize("name", LOOP_NAMES)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_generated_kernels_match_general_bitwise(name, data):
    loop, theta = _loop(name)
    box = loop.spec.box
    state = tuple(data.draw(_values(lo, hi)) for lo, hi in zip(box.lower, box.upper))
    estimate = tuple(data.draw(_values(-5.0, 5.0)) for _ in range(loop.spec.param_dim))
    inject = tuple(data.draw(_values(-5.0, 5.0)) for _ in range(loop.spec.layout.p))
    t = data.draw(TIMES)
    generated = _compile_loop(loop, theta, "x")
    general = _general_kernels(loop, tuple(float(v) for v in theta), SINGULARITY_FLOOR, "x")
    for kernel, reference in zip(generated, general):
        deriv, diag = kernel(state, estimate, t, inject)
        ref_deriv, ref_diag = reference(state, estimate, t, inject)
        _assert_same_bits(deriv, ref_deriv)
        _assert_same_bits(diag, ref_diag)
