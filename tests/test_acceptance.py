"""Acceptance suite: one test per release criterion, each printing a verdict line.

Tolerances are fixed here, not configurable: they are the contract.  The
tail thresholds of criterion 2 were confirmed beforehand by a step-1e-5
reference integration of both coupling cases (tail suprema come out near
5e-12, ten orders below the 1e-2 threshold used here).
"""

import math
import time

import numpy as np
import pytest

from decadapt import (
    DomainBox,
    GainDescriptor,
    GoalFunction,
    IntegratorConfig,
    OscillatorScenario,
    Parametrization,
    PartitionLayout,
    SmallGainProblem,
    build_oscillator,
    check_poincare,
    check_small_gain,
    integrate,
    integrate_loop,
    integrate_virtual,
    monitor_loop_bounds,
    monotonicity_sample,
    verify_monotonicity,
)
from decadapt.adaptation import POINCARE_POINTS
from decadapt.model import check_gradient
from decadapt.simulate import STATUS_COMPLETED, zero_disturbance
from tests.test_model import drawn
from tests.test_simulate import decay_error


def verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{criterion}: {detail}"


def oscillator_small_gain(k1: float, k2: float) -> SmallGainProblem:
    return SmallGainProblem(
        gains=(GainDescriptor.linear(0.0, 0.5), GainDescriptor.linear(0.0, 0.5)),
        betas=(k1, k2), ratios=(1.5 / 0.5, 1.6 / 0.4),
    )


def test_criterion_1_small_gain_arithmetic():
    """Boundary-exact product rule: passes iff k1 k2 < 0.2, in under a millisecond."""
    cases = [
        ((0.4, 0.4), True),       # product 0.16
        ((1.0, 0.1), True),       # product 0.1
        ((0.199999, 1.0), True),
        ((0.2, 1.0), False),      # boundary: strict inequality fails
        ((0.25, 1.0), False),
    ]
    problems = [oscillator_small_gain(k1, k2) for (k1, k2), _ in cases]
    start = time.perf_counter()
    entries = [check_small_gain(p) for p in problems]
    elapsed = time.perf_counter() - start
    outcomes = [e.passed for e in entries]
    expected = [want for _, want in cases]
    per_call = elapsed / len(cases)
    ok = outcomes == expected and per_call < 1e-3
    verdict(
        "criterion-1 small-gain arithmetic", ok,
        f"verdicts {outcomes} expected {expected}, {per_call * 1e6:.0f} us/call",
    )


@pytest.mark.parametrize("k1,k2", [(0.4, 0.4), (1.0, 0.1)])
def test_criterion_2_case_study_reproduction(k1, k2):
    """Both coupling cases settle: bounded by 10, trailing 5 units within 1e-2."""
    sc = OscillatorScenario(k1=k1, k2=k2,
                            integrator=IntegratorConfig(step=1e-3, t_final=50.0))
    sys = build_oscillator(sc)
    start = time.perf_counter()
    traj = integrate(sys, sc.integrator, sc.initial_state())
    elapsed = time.perf_counter() - start

    completed = traj.status == STATUS_COMPLETED
    lx, ly = traj.loops["x"], traj.loops["y"]
    bound = max(
        np.abs(lx.state).max(), np.abs(ly.state).max(),
        np.abs(lx.theta_i).max(), np.abs(ly.theta_i).max(),
        np.abs(lx.theta_hat).max(), np.abs(ly.theta_hat).max(),
    )
    tail = traj.t >= 45.0
    tail_sup = max(
        np.abs(lx.state[tail, 0]).max(), np.abs(lx.state[tail, 1]).max(),
        np.abs(ly.state[tail, 0]).max(), np.abs(ly.state[tail, 1]).max(),
    )
    ok = completed and bound <= 10.0 and tail_sup <= 1e-2 and elapsed < 5.0
    verdict(
        f"criterion-2 case study k1={k1} k2={k2}", ok,
        f"status={traj.status}, bound={bound:.3f}, tail={tail_sup:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_runtime_bound_monitors():
    """Coupled-run mismatch and parameter-error bounds hold; sabotage is caught."""
    sc = OscillatorScenario(integrator=IntegratorConfig(step=1e-3, t_final=50.0))
    sys = build_oscillator(sc)
    traj = integrate(sys, sc.integrator, sc.initial_state())
    entries = []
    for tag, loop, theta in (("x", sys.loop_x, (1.0,)), ("y", sys.loop_y, (1.0,))):
        entries += monitor_loop_bounds(traj.loops[tag], loop, theta, tol=1e-4)
    clean_ok = all(e.passed for e in entries)

    sabotaged = build_oscillator(sc)
    object.__setattr__(sabotaged.loop_x, "gain", -sabotaged.loop_x.gain)
    object.__setattr__(sabotaged.loop_y, "gain", -sabotaged.loop_y.gain)
    bad_traj = integrate(sabotaged, sc.integrator, sc.initial_state())
    bad_entries = []
    for tag, loop, theta in (("x", sys.loop_x, (1.0,)), ("y", sys.loop_y, (1.0,))):
        bad_entries += monitor_loop_bounds(bad_traj.loops[tag], loop, theta, tol=1e-4)
    sabotage_caught = any(not e.passed for e in bad_entries)

    ok = clean_ok and sabotage_caught
    worst = min(e.margin for e in entries)
    verdict(
        "criterion-3 runtime bound monitors", ok,
        f"clean margins >= {worst:.2e} all pass={clean_ok}, "
        f"sabotage violations={sum(not e.passed for e in bad_entries)}",
    )


def test_criterion_4_parameter_error_monotonicity():
    """Along each decoupled loop the weighted parameter error never grows."""
    sc = OscillatorScenario(k1=0.0, k2=0.0,
                            integrator=IntegratorConfig(step=1e-3, t_final=50.0))
    sys = build_oscillator(sc)
    worst_increase = -np.inf
    for loop, theta, state0, ti0 in (
        (sys.loop_x, 1.0, (-1.0, 0.0), (-1.0,)),
        (sys.loop_y, 1.0, (1.0, 0.0), (-2.0,)),
    ):
        traj = integrate_loop(loop, (theta,), zero_disturbance(), sc.integrator,
                              state0, ti0)
        assert traj.status == STATUS_COMPLETED
        gamma_inv = loop.gain_inverse[0, 0]
        v = 0.5 * gamma_inv * (traj.theta_hat[:, 0] - theta) ** 2
        worst_increase = max(worst_increase, float(np.max(np.diff(v))))
    ok = worst_increase <= 1e-8
    verdict(
        "criterion-4 parameter-error monotonicity", ok,
        f"worst per-step increase {worst_increase:.2e} <= 1e-8",
    )


def test_criterion_5_realizable_virtual_equivalence():
    """The implementable update reproduces the reduced-form oracle.

    The agreement bound is checked at the stated step 1e-4.  The halving
    ratio is demonstrated at steps 1e-2 -> 5e-3, where the discrepancy
    (fourth-order, observed ratio near 16) is still far above the
    double-precision rounding floor it reaches below step 1e-3.
    """
    from decadapt import parameter_estimate

    sc = OscillatorScenario()
    sys = build_oscillator(sc)
    loop, theta, state0, ti0 = sys.loop_y, (1.0,), (1.0, 0.0), (-2.0,)
    theta_hat0 = parameter_estimate(loop, state0, 0.0, ti0)  # consistent initial data

    def discrepancy(step):
        cfg = IntegratorConfig(step=step, t_final=20.0)
        real = integrate_loop(loop, theta, zero_disturbance(), cfg, state0, ti0)
        virt = integrate_virtual(loop, theta, zero_disturbance(), cfg, state0, theta_hat0)
        assert real.status == STATUS_COMPLETED and virt.status == STATUS_COMPLETED
        return float(np.max(np.abs(real.theta_hat - virt.theta_hat)))

    disc_stated = discrepancy(1e-4)
    disc_coarse = discrepancy(1e-2)
    disc_half = discrepancy(5e-3)
    ratio = disc_coarse / disc_half
    ok = disc_stated <= 1e-4 and ratio >= 1.9
    verdict(
        "criterion-5 realizable/virtual equivalence", ok,
        f"max discrepancy {disc_stated:.2e} <= 1e-4 at step 1e-4; "
        f"halving ratio {ratio:.1f} >= 1.9",
    )


def test_criterion_6_monotonicity_certification():
    """Growth-constant estimates land in the declared brackets; sabotage fails."""
    sc = OscillatorScenario()
    sys = build_oscillator(sc)
    state_box = DomainBox((-3.0, -3.0), (3.0, 3.0))
    theta_box = DomainBox((0.2,), (2.0,))

    def drift_x(state, theta, t):
        s = theta[0] * (state[0] - 1.0)
        return state[1] + s + 0.5 * math.sin(s)

    cert = verify_monotonicity(
        sys.loop_x.param, drift_x, monotonicity_sample(state_box, theta_box, 10000)
    )
    d_hat, d1_hat = cert.witness["d_hat"], cert.witness["d1_hat"]
    in_brackets = (1.0 < d_hat <= 1.5 + 1e-6) and (0.5 - 1e-6 <= d1_hat < 1.0)

    anti_box = DomainBox((0.5, -1.0), (2.0, 1.0))
    anti_param = Parametrization(
        alpha=lambda s, t: (s[0],),
        grad_state=lambda s, t: ((1.0, 0.0),),
        d_time=lambda s, t: (0.0,),
        dim=1, growth_upper=1.0, growth_lower=1.0,
    )
    anti = verify_monotonicity(
        anti_param, lambda s, th, t: -th[0] * s[0], monotonicity_sample(anti_box, theta_box, 2000)
    )
    ok = cert.passed and in_brackets and not anti.passed
    verdict(
        "criterion-6 monotonicity certification", ok,
        f"estimates ({d_hat:.6f}, {d1_hat:.6f}) in ((1,1.5], [0.5,1)); "
        f"anti-monotone fails={not anti.passed}",
    )


def test_criterion_7_poincare_checker():
    """Symmetry check: two passing patterns, one failing with residual >= 0.9."""
    sc = OscillatorScenario()
    sys = build_oscillator(sc)
    osc = check_poincare(sys.loop_x.goal, sys.loop_x.param, sys.loop_x.spec.layout,
                         *drawn(sys.loop_x.spec.box, POINCARE_POINTS))

    layout2 = PartitionLayout(q=0, p=2)
    box2 = DomainBox((-2.0, -2.0), (2.0, 2.0))
    single_goal = GoalFunction(
        psi=lambda s, t: s[1] ** 2,
        grad_state=lambda s, t: (0.0, 2.0 * s[1]),
        d_time=lambda s, t: 0.0,
    )
    single_param = Parametrization(
        alpha=lambda s, t: (math.sin(s[1]),),
        grad_state=lambda s, t: ((0.0, math.cos(s[1])),),
        d_time=lambda s, t: (0.0,),
        dim=1, growth_upper=1.0, growth_lower=1.0,
    )
    single = check_poincare(single_goal, single_param, layout2, *drawn(box2, POINCARE_POINTS))

    asym_goal = GoalFunction(
        psi=lambda s, t: s[0] + s[1],
        grad_state=lambda s, t: (1.0, 1.0),
        d_time=lambda s, t: 0.0,
    )
    asym_param = Parametrization(
        alpha=lambda s, t: (s[1],),
        grad_state=lambda s, t: ((0.0, 1.0),),
        d_time=lambda s, t: (0.0,),
        dim=1, growth_upper=1.0, growth_lower=1.0,
    )
    asym = check_poincare(asym_goal, asym_param, layout2, *drawn(box2, POINCARE_POINTS))

    residual = asym.witness["residual"]
    ok = osc.passed and single.passed and (not asym.passed) and residual >= 0.9
    verdict(
        "criterion-7 mixed-partial symmetry checker", ok,
        f"oscillator pass={osc.passed}, single-coordinate pass={single.passed}, "
        f"asymmetric residual={residual:.3f}",
    )


def test_criterion_8_integrator_order_and_gradients():
    """Fourth-order probe convergence of `integrate_loop` on dx/dt = -x, and gradient fidelity."""
    ratio = decay_error(integrate_loop, 0.1) / decay_error(integrate_loop, 0.05)

    sc = OscillatorScenario()
    sys = build_oscillator(sc)
    worst = 0.0
    for loop in (sys.loop_x, sys.loop_y):
        worst = max(worst, check_gradient(loop.goal.psi, loop.goal.grad_state,
                                          *drawn(loop.spec.box), raise_on_fail=False))
        worst = max(worst, check_gradient(loop.param.alpha, loop.param.grad_state,
                                          *drawn(loop.spec.box), raise_on_fail=False))
    ok = ratio >= 14.0 and worst <= 1e-5
    verdict(
        "criterion-8 integrator order and gradient fidelity", ok,
        f"halving ratio {ratio:.1f} >= 14; worst gradient error {worst:.2e} <= 1e-5",
    )
