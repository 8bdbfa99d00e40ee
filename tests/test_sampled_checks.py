"""The sampled checks on sample columns, on the per-sample walk, and per row.

Every sampled check runs its per-sample arithmetic through one evaluator:
one call on the sample columns, kept when a plain-float call agrees bit for
bit at row 0 and at every reported row, else one plain-float call per
sample.  The earlier per-row numpy loops of `check_gradient`,
`check_time_derivative`, `realizability_residual` and `check_poincare` are
kept below as oracles, as `reference_monotonicity` is in test_certify.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tests.test_adaptation as adaptation_tests
from decadapt import (
    DomainBox,
    GoalFunction,
    OscillatorScenario,
    Parametrization,
    PartitionLayout,
    build_oscillator,
    check_poincare,
)
from decadapt.adaptation import (
    GRAD_SAMPLE_POINTS,
    POINCARE_POINTS,
    POINCARE_TOL,
    REALIZABILITY_POINTS,
    realizability_residual,
)
from decadapt.model import (
    DEFAULT_SAMPLE_SEED,
    GRAD_ABS_TOL,
    GRAD_REL_TOL,
    GradientCheckError,
    check_gradient,
    check_time_derivative,
)
from decadapt.report import entry_from_margin
from tests.test_certify import counting


def fd_state_partial(fn, state, j, t, h):
    """Five-point central difference of fn(state, t) along state coordinate j (oracle helper)."""
    p = state.astype(float).copy()
    vals = []
    for offset in (2 * h, h, -h, -2 * h):
        p[j] = state[j] + offset
        vals.append(np.asarray(fn(p, t), dtype=float))
    return (-vals[0] + 8 * vals[1] - 8 * vals[2] + vals[3]) / (12.0 * h)


def reference_gradient(fn, grad_fn, states, times, raise_on_fail=True):
    """The earlier per-row loop of check_gradient, kept as an oracle."""
    worst = 0.0
    worst_at = None
    for row, t in zip(states, times):
        analytic = np.atleast_2d(np.asarray(grad_fn(row, t), dtype=float))
        for j in range(states.shape[1]):
            h = 1e-3 * max(1.0, abs(row[j]))
            fd = np.atleast_1d(fd_state_partial(fn, row, j, t, h))
            for i in range(analytic.shape[0]):
                scale = max(abs(fd[i]), abs(analytic[i, j]), GRAD_ABS_TOL / GRAD_REL_TOL)
                err = abs(analytic[i, j] - fd[i]) / scale
                if err > worst:
                    worst = err
                    worst_at = (row.copy(), i, j)
    if worst > GRAD_REL_TOL and raise_on_fail:
        row, i, j = worst_at
        raise GradientCheckError(
            f"analytic partial ({i},{j}) disagrees with finite differences by relative "
            f"error {worst:.3e} (tolerance {GRAD_REL_TOL:.1e}) at state {row.tolist()}"
        )
    return worst


def reference_time_derivative(fn, dt_fn, states, times):
    """The earlier per-row loop of check_time_derivative, kept as an oracle."""
    worst = 0.0
    h = 1e-3
    for row, t in zip(states, times):
        analytic = np.atleast_1d(np.asarray(dt_fn(row, t), dtype=float))
        fd = (
            -np.asarray(fn(row, t + 2 * h), dtype=float)
            + 8 * np.asarray(fn(row, t + h), dtype=float)
            - 8 * np.asarray(fn(row, t - h), dtype=float)
            + np.asarray(fn(row, t - 2 * h), dtype=float)
        ) / (12.0 * h)
        fd = np.atleast_1d(fd)
        for i, (a, b) in enumerate(zip(analytic, fd)):
            scale = max(abs(a), abs(b), GRAD_ABS_TOL / GRAD_REL_TOL)
            err = abs(a - b) / scale
            if err > worst:
                worst = err
    if worst > GRAD_REL_TOL:
        raise GradientCheckError(
            f"analytic time partial disagrees with finite differences by relative "
            f"error {worst:.3e} (tolerance {GRAD_REL_TOL:.1e})"
        )
    return worst


def reference_realizability(potential, goal, param, layout, states, times):
    """The earlier per-row loop of realizability_residual, kept as an oracle."""
    q = layout.q
    worst = 0.0
    for row, t in zip(states, times):
        psi = goal.psi(row, t)
        ga = np.asarray(param.grad_state(row, t), dtype=float)
        gp = np.asarray(potential.grad_state(row, t), dtype=float)
        res = np.max(np.abs(gp[:, q:] - psi * ga[:, q:]))
        if res > worst:
            worst = float(res)
    return worst


def reference_poincare(goal, param, layout, states, times, fd_step=1e-4):
    """The earlier per-row loop of check_poincare, kept as an oracle."""
    q, p = layout.q, layout.p
    worst = 0.0
    witness = {}

    def field_component(i):
        def comp(state, t):
            gs = np.asarray(param.grad_state(state, t), dtype=float)
            return goal.psi(state, t) * gs[i, q:]

        return comp

    for row, t in zip(states, times):
        row = row.astype(float)
        for i in range(param.dim):
            comp = field_component(i)
            jac = np.empty((p, p))
            for l in range(p):
                h = fd_step * max(1.0, abs(row[q + l]))
                plus = row.copy()
                plus[q + l] += h
                minus = row.copy()
                minus[q + l] -= h
                jac[:, l] = (comp(plus, t) - comp(minus, t)) / (2.0 * h)
            res = float(np.max(np.abs(jac - jac.T)))
            if res > worst:
                worst = res
                witness = {
                    "state": row.tolist(),
                    "component": i,
                    "residual": res,
                }
    return entry_from_margin("poincare-symmetry", POINCARE_TOL - worst, witness, POINCARE_TOL)


def scalar_only(f):
    """f that raises TypeError on array arguments, which forces the walk."""
    def plain(*args):
        for a in args:
            if isinstance(a, np.ndarray) or (
                    isinstance(a, tuple) and any(isinstance(v, np.ndarray) for v in a)):
                raise TypeError("plain floats only")
        return f(*args)

    return plain


def outcome(check, *args):
    """A check's result as comparable data: value bits, entry fields or error text."""
    try:
        got = check(*args)
    except GradientCheckError as err:
        return "raised", str(err)
    if isinstance(got, float):
        return "value", got.hex()
    return "entry", got.status, got.margin.hex(), got.witness


def counted_args(check, args):
    """args with the callable the check evaluates most wrapped in `counting`, and that wrapper."""
    if check in ("gradient", "time"):
        fn = counting(args[0])
        return (fn, *args[1:]), fn
    i = 1 if check == "realizability" else 0  # the goal's position
    psi = counting(args[i].psi)
    return (*args[:i], replace(args[i], psi=psi), *args[i + 1:]), psi


BOX = DomainBox((-2.0, -2.0), (2.0, 2.0))
OSC = build_oscillator(OscillatorScenario())
MATRIX = adaptation_tests.TestMatrixGainLoop.build()


# (fn, grad_fn, box) and the path the column call takes
GRADIENT_CASES = {
    "oscillator-goal-x": ((OSC.loop_x.goal.psi, OSC.loop_x.goal.grad_state, OSC.loop_x.spec.box),
                          "columns"),
    "oscillator-alpha-y": ((OSC.loop_y.param.alpha, OSC.loop_y.param.grad_state,
                            OSC.loop_y.spec.box), "columns"),
    "product-vector": ((lambda s, t: (s[0] * s[1], s[0] * s[0] * s[0]),
                        lambda s, t: ((s[1], s[0]), (3.0 * s[0] * s[0], 0.0)), BOX), "columns"),
    "wrong-gradient": ((lambda s, t: s[0] * s[0] + s[1],
                        lambda s, t: (2.1 * s[0], 1.0), BOX), "columns"),
    "math-sin": ((lambda s, t: s[0] ** 2 + math.sin(s[1]),
                  lambda s, t: (2.0 * s[0], math.cos(s[1])), BOX), "walk"),
    "math-wrong": ((lambda s, t: s[0] ** 2 + math.sin(s[1]),
                    lambda s, t: (2.0 * s[0], -math.cos(s[1])), BOX), "walk"),
    "matrix-alpha": ((MATRIX.param.alpha, MATRIX.param.grad_state, MATRIX.spec.box), "walk"),
}

TIME_CASES = {
    "oscillator-goal": ((OSC.loop_x.goal.psi, OSC.loop_x.goal.d_time, OSC.loop_x.spec.box),
                        "columns"),
    "oscillator-alpha": ((OSC.loop_y.param.alpha, OSC.loop_y.param.d_time, OSC.loop_y.spec.box),
                         "columns"),
    "product-vector": ((lambda s, t: (s[0] * t, t * t), lambda s, t: (s[0], 2.0 * t), BOX),
                       "columns"),
    "math-exp": ((lambda s, t: s[0] * math.exp(-t), lambda s, t: -s[0] * math.exp(-t), BOX),
                 "walk"),
    "math-wrong": ((lambda s, t: s[0] + math.sin(t), lambda s, t: 0.0, BOX), "walk"),
}


def loop_args(loop):
    return loop.potential, loop.goal, loop.param, loop.spec.layout, loop.spec.box


REALIZABILITY_CASES = {
    "oscillator-x": (loop_args(OSC.loop_x), "columns"),
    "matrix-gain": (loop_args(MATRIX), "walk"),
}

_SINGLE_LAYOUT = PartitionLayout(q=0, p=2)
POINCARE_CASES = {
    "oscillator-y": ((OSC.loop_y.goal, OSC.loop_y.param, OSC.loop_y.spec.layout,
                      OSC.loop_y.spec.box), "columns"),
    "single-coordinate": ((
        GoalFunction(psi=lambda s, t: s[1] ** 2, grad_state=lambda s, t: (0.0, 2.0 * s[1]),
                     d_time=lambda s, t: 0.0),
        Parametrization(alpha=lambda s, t: (math.sin(s[1]),),
                        grad_state=lambda s, t: ((0.0, math.cos(s[1])),),
                        d_time=lambda s, t: (0.0,), dim=1, growth_upper=1.0, growth_lower=1.0),
        _SINGLE_LAYOUT, BOX), "walk"),
    "asymmetric": ((
        GoalFunction(psi=lambda s, t: s[0] + s[1], grad_state=lambda s, t: (1.0, 1.0),
                     d_time=lambda s, t: 0.0),
        Parametrization(alpha=lambda s, t: (s[1],), grad_state=lambda s, t: ((0.0, 1.0),),
                        d_time=lambda s, t: (0.0,), dim=1, growth_upper=1.0, growth_lower=1.0),
        _SINGLE_LAYOUT, BOX), "columns"),
    "matrix-gain": ((MATRIX.goal, MATRIX.param, MATRIX.spec.layout, MATRIX.spec.box), "walk"),
}


def scalar_goal(goal):
    return replace(goal, psi=scalar_only(goal.psi), grad_state=scalar_only(goal.grad_state),
                   d_time=scalar_only(goal.d_time))


def scalar_param(param):
    return replace(param, alpha=scalar_only(param.alpha),
                   grad_state=scalar_only(param.grad_state), d_time=scalar_only(param.d_time))


def walked_realizability_args(potential, goal, param, layout, box):
    pot = replace(potential, grad_state=scalar_only(potential.grad_state))
    return pot, scalar_goal(goal), scalar_param(param), layout, box


def walked_poincare_args(goal, param, layout, box):
    return scalar_goal(goal), scalar_param(param), layout, box


# (check, oracle, cases, forced-walk arguments)
CHECKS = {
    "gradient": (check_gradient, reference_gradient, GRADIENT_CASES,
                 lambda fn, grad, box: (scalar_only(fn), scalar_only(grad), box)),
    "time": (check_time_derivative, reference_time_derivative, TIME_CASES,
             lambda fn, dt, box: (scalar_only(fn), scalar_only(dt), box)),
    "realizability": (realizability_residual, reference_realizability, REALIZABILITY_CASES,
                      walked_realizability_args),
    "poincare": (check_poincare, reference_poincare, POINCARE_CASES, walked_poincare_args),
}
CASE_IDS = [(check, case) for check, spec in CHECKS.items() for case in spec[2]]
# the sample counts of the library's draws, in AdaptiveLoopSpec and in the certify pass
POINTS = {"gradient": GRAD_SAMPLE_POINTS, "time": GRAD_SAMPLE_POINTS,
          "realizability": REALIZABILITY_POINTS, "poincare": POINCARE_POINTS}


def sampled(check, args, n=None, seed=DEFAULT_SAMPLE_SEED, times=None):
    """A case's arguments with its box replaced by the (states, times) of an n-point draw.

    By default n and the times are those of the library's own draw: the
    time partial over [0, 1], every other check at t = 0.
    """
    *head, box = args
    n = POINTS[check] if n is None else n
    if times is None:
        times = np.linspace(0.0, 1.0, n) if check == "time" else np.zeros(n)
    return (*head, box.sample(n, seed=seed), times)


def drawn_times(check, n, draw):
    """Drawn times for an n-point check, in [-1, 1] where the time step is 1e-3.

    The time partial takes an evenly spaced range, every other check one
    time for all samples.
    """
    if check == "time":
        a, b = sorted((draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))))
        return np.linspace(a, b, n)
    return np.full(n, draw(st.floats(-1.0, 1.0)))


class TestMatchesRowLoop:
    """Each check reproduces its earlier per-row loop: value, witness, message."""

    @pytest.mark.parametrize("check, case", CASE_IDS, ids=[f"{c}-{k}" for c, k in CASE_IDS])
    def test_default_settings(self, check, case):
        fn, oracle, cases, _ = CHECKS[check]
        args = sampled(check, cases[case][0])
        assert outcome(fn, *args) == outcome(oracle, *args)

    def test_gradient_witness_without_raising(self):
        args = sampled("gradient", GRADIENT_CASES["wrong-gradient"][0])
        got = check_gradient(*args, raise_on_fail=False)
        assert got == reference_gradient(*args, raise_on_fail=False) > GRAD_REL_TOL


class TestColumnsMatchWalk:
    """The column path and the forced walk give the same bits, and so does the row loop."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_bitwise_equal(self, data):
        check, case = data.draw(st.sampled_from(CASE_IDS))
        fn, oracle, cases, walked = CHECKS[check]
        args, _ = cases[case]
        n, seed = data.draw(st.integers(1, 120)), data.draw(st.integers(0, 2**32 - 1))
        times = drawn_times(check, n, data.draw)
        got = outcome(fn, *sampled(check, args, n, seed, times))
        assert got == outcome(fn, *sampled(check, walked(*args), n, seed, times))
        assert got == outcome(oracle, *sampled(check, args, n, seed, times))

    @pytest.mark.parametrize("check, case", CASE_IDS, ids=[f"{c}-{k}" for c, k in CASE_IDS])
    def test_path(self, check, case):
        # oscillator and product fixtures take the columns: a few calls on
        # columns and on the spot-checked rows; fixtures built on math.*
        # walk, at least one call per sample
        fn, _, cases, _ = CHECKS[check]
        args, path = cases[case]
        args, counted = counted_args(check, args)
        outcome(fn, *sampled(check, args, 100))
        assert (counted.calls < 100) == (path == "columns"), counted.calls


class TestOscillatorOnColumns:
    def test_build_oscillator_checks_run_on_columns(self):
        # a silent fall back to the walk keeps every value right but calls
        # psi eight times per gradient sample, 800 times at the default 100
        # points; count the calls of every callable the checks evaluate
        for loop in (OSC.loop_x, OSC.loop_y):
            goal = replace(loop.goal, psi=counting(loop.goal.psi),
                           grad_state=counting(loop.goal.grad_state),
                           d_time=counting(loop.goal.d_time))
            param = replace(loop.param, alpha=counting(loop.param.alpha),
                            grad_state=counting(loop.param.grad_state),
                            d_time=counting(loop.param.d_time))
            potential = replace(loop.potential,
                                grad_state=counting(loop.potential.grad_state))
            rebuilt = replace(loop, goal=goal, param=param, potential=potential)
            check_poincare(*sampled("poincare", (goal, param, loop.spec.layout, loop.spec.box)))
            assert rebuilt.goal_grad_error == loop.goal_grad_error
            assert rebuilt.alpha_grad_error == loop.alpha_grad_error
            counted = (goal.psi, goal.grad_state, goal.d_time, param.alpha,
                       param.grad_state, param.d_time, potential.grad_state)
            assert all(1 <= f.calls <= 64 for f in counted), [f.calls for f in counted]
