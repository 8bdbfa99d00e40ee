"""Fixed-step integration of adaptive loops with trajectory logging.

Classical fourth-order Runge-Kutta on a fixed grid: certificate monitors
and the realizable-versus-virtual equivalence tests need a deterministic,
shared time grid, so reproducibility outranks solver efficiency here.

Every integrator in this module runs the same two pieces: one compiled
closed-loop kernel per loop (`_compile_loop`), which evaluates the
certainty-equivalent control law, and one RK4 driver (`_rk4`), which logs
raw samples of the state and of the kernel's diagnostics on the thinned
grid.  Loops with one coordinate per block and one parameter get scalar
forms of both kernels (`_scalar_kernels`), bit-identical to the general
ones (`_general_kernels`) and several times cheaper per evaluation.  The
scalar reduced-form kernel behind `integrate_virtual` computes its own
estimate rate and never calls into the realizable one, so it stays an
independent oracle for the PI estimator.  Running signal
norms are computed after the run from the logged samples by trapezoidal
quadrature (`running_l2`); their quadrature error is folded into the
tolerances of the checks that consume them.

Integration stops at the horizon, on divergence (a state component exceeds
the configured bound), or on a controller singularity; the outcome is a
status on the trajectory, never an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .adaptation import AdaptiveLoopSpec
from .controller import DEFAULT_CONTROL_CONFIG, ControlLawConfig, ControlSingularityError
from .interconnect import CoupledClosedLoop
from .model import _dot

STATUS_COMPLETED = "completed"
STATUS_DIVERGED = "diverged"
STATUS_SINGULAR = "singular"


@dataclass(frozen=True, eq=False)
class IntegratorConfig:
    step: float = 1e-3
    t_final: float = 1.0
    divergence_bound: float = 1e6
    log_every: int = 1

    def __post_init__(self):
        if not self.step > 0:
            raise ValueError("step must be > 0")
        if not self.t_final > 0:
            raise ValueError("t_final must be > 0")
        if self.step > self.t_final:
            raise ValueError("step must not exceed t_final")
        if abs(self.n_steps * self.step - self.t_final) > 1e-9 * self.t_final:
            raise ValueError("step must divide t_final into a whole number of steps")
        if self.log_every < 1 or int(self.log_every) != self.log_every:
            raise ValueError("log_every must be a positive integer")
        if not self.divergence_bound > 0:
            raise ValueError("divergence_bound must be > 0")

    @property
    def n_steps(self) -> int:
        return max(1, round(self.t_final / self.step))


@dataclass(frozen=True, eq=False)
class Disturbance:
    """Exogenous perturbation of a single loop's second state block.

    The scalar signal(t) is injected along `direction` (length p, default
    the first second-block coordinate).  The induced disturbance of the
    goal-error equation is the derivative of the goal function along the
    injected field, which the integrator logs as the eps channel.
    """

    signal: Callable
    direction: Optional[tuple] = None

    def resolve_direction(self, p: int) -> tuple:
        if self.direction is None:
            return tuple(1.0 if i == 0 else 0.0 for i in range(p))
        if len(self.direction) != p:
            raise ValueError(f"direction must have length {p}")
        return tuple(float(v) for v in self.direction)


def zero_disturbance() -> Disturbance:
    return Disturbance(signal=lambda t: 0.0)


def exponential_disturbance(scale: float, rate: float) -> Disturbance:
    """signal(t) = scale * exp(-rate * t); square-integrable for rate > 0."""
    if rate <= 0:
        raise ValueError("rate must be > 0 for a square-integrable signal")
    return Disturbance(signal=lambda t: scale * math.exp(-rate * t))


def pulse_disturbance(amplitude: float, t_on: float, t_off: float) -> Disturbance:
    """Rectangular pulse on [t_on, t_off); truncated, hence square-integrable."""
    if not t_off > t_on:
        raise ValueError("t_off must exceed t_on")
    return Disturbance(signal=lambda t: amplitude if t_on <= t < t_off else 0.0)


@dataclass(eq=False)
class LoopTrajectory:
    """Logged record of one adaptive loop, with running norms.

    eps is the disturbance entering the goal-error equation (for coupled
    runs, the coupling channel into this loop).  l2_* arrays hold the
    running norms over [t0, t_k]; linf_psi the running peak of |psi|.
    """

    t: np.ndarray
    state: np.ndarray
    theta_hat: np.ndarray
    theta_i: np.ndarray
    psi: np.ndarray
    u: np.ndarray
    eps: np.ndarray
    mismatch: np.ndarray
    l2_psi: np.ndarray
    l2_eps: np.ndarray
    l2_mismatch: np.ndarray
    linf_psi: np.ndarray
    status: str

    @property
    def t0(self) -> float:
        return float(self.t[0])

    @property
    def t_end(self) -> float:
        return float(self.t[-1])


def _loop_field(which: str, name: str) -> property:
    """Read-only accessor for one array of one loop of a coupled run."""
    return property(lambda self: getattr(self.loops[which], name))


@dataclass(eq=False)
class Trajectory:
    """Logged record of a coupled run: one LoopTrajectory per subsystem.

    loops["x"] and loops["y"] share the time grid and the status; each
    loop's eps is the coupling channel into that loop.
    """

    t: np.ndarray
    loops: dict
    status: str

    x = _loop_field("x", "state")
    y = _loop_field("y", "state")
    theta_hat_x = _loop_field("x", "theta_hat")
    theta_hat_y = _loop_field("y", "theta_hat")
    theta_i_x = _loop_field("x", "theta_i")
    theta_i_y = _loop_field("y", "theta_i")

    @property
    def t0(self) -> float:
        return float(self.t[0])

    @property
    def t_end(self) -> float:
        return float(self.t[-1])

    def loop_view(self, which: str) -> LoopTrajectory:
        """Per-loop record with the coupling channel into that loop as eps."""
        if which not in ("x", "y"):
            raise ValueError("which must be 'x' or 'y'")
        return self.loops[which]


def running_l2(t: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Running L2 norm of a sampled signal by trapezoidal quadrature."""
    t = np.asarray(t, dtype=float)
    v = np.asarray(values, dtype=float)
    sq = v * v
    increments = 0.5 * (sq[1:] + sq[:-1]) * np.diff(t)
    out = np.empty_like(t)
    out[0] = 0.0
    np.cumsum(increments, out=out[1:])
    return np.sqrt(out)


def _compile_loop(loop: AdaptiveLoopSpec, theta_true, control_cfg: ControlLawConfig, tag: str):
    """Bind one loop's callables into fast per-point rate evaluators.

    Returns (rates, virtual_rates):

    - rates(state, theta_i, t, inject2) -> (state_dot + theta_i_dot, diag)
      is the realizable PI estimator, with the flat
      diag = (psi, u, mismatch, eps, *theta_hat);
    - virtual_rates(state, theta_hat, t, inject2) ->
      (state_dot + theta_hat_dot, (psi, u)) is the reduced update law
      gain @ ((psi_dot + phi) * alpha), with psi_dot the chain-rule
      derivative along the closed loop.  It keeps its own estimator
      arithmetic so that it stays an independent oracle for `rates`.

    inject2 is the additive second-block contribution (coupling or an
    exogenous disturbance).  Loops with q = p = d = 1 get the scalar pair
    of `_scalar_kernels`, any other layout the general pair of
    `_general_kernels`; both pairs compute the same bits.  In either pair
    the virtual kernel shares with `rates` at most the evaluation of the
    control input and the true plant rate, never the PI estimate or its
    integral-state rate, which is what keeps it an independent oracle.
    """
    theta_true = tuple(float(v) for v in theta_true)
    floor = control_cfg.singularity_floor
    if (loop.spec.layout.q, loop.spec.layout.p, loop.param.dim) == (1, 1, 1):
        return _scalar_kernels(loop, theta_true, floor, tag)
    return _general_kernels(loop, theta_true, floor, tag)


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


def _scalar_kernels(loop: AdaptiveLoopSpec, theta_true: tuple, floor: float, tag: str):
    """(rates, virtual_rates) of `_compile_loop` for a loop with q = p = d = 1.

    Each closure performs the same operations in the same order as its
    general counterpart in `_general_kernels`, with the one-term dot
    products written out as `0.0 + a * b` (what `_dot` computes for length
    one) and the two-term one as `(0.0 + a1 * b1) + a2 * b2`, so the results
    are bit-identical; they skip the per-call slicing, list building and
    `_dot` calls that dominate the run time of small loops.  The closures
    share no code: each evaluates the control input and the plant rate
    inline, and `virtual_rates` forms its estimate rate
    `0.0 + gamma * (w * a)` without the PI estimate or its integral state.
    """
    spec, goal, param, pot = loop.spec, loop.goal, loop.param, loop.potential
    psi_fn, grad_fn, dpsidt_fn = goal.psi, goal.grad_state, goal.d_time
    alpha_fn, dalpha_fn, dalphadt_fn = param.alpha, param.grad_state, param.d_time
    pot_fn, dpot_fn, dpotdt_fn = pot.value, pot.grad_state, pot.d_time
    f1_fn, f2_fn, g1_fn, g2_fn = spec.f1, spec.f2, spec.g1, spec.g2
    phi = loop.shaper.phi
    gamma = float(np.atleast_2d(loop.gain)[0, 0])

    def rates(state, theta_i, t, inject2):
        psi = psi_fn(state, t)
        (a,) = alpha_fn(state, t)
        theta_hat = 0.0 + gamma * (psi * a - pot_fn(state, t)[0] + theta_i[0])
        gq, gp = grad_fn(state, t)
        (f1,) = f1_fn(state, t)
        (g1,) = g1_fn(state)
        (g2,) = g2_fn(state)
        lf1 = 0.0 + gq * f1
        drift_hat = lf1 + (0.0 + gp * f2_fn(state, (theta_hat,), t)[0])
        gain_u = (0.0 + gq * g1) + (0.0 + gp * g2)
        if abs(gain_u) < floor:
            raise ControlSingularityError(state, t, gain_u, subsystem=tag)
        phiv = phi(psi, t)
        u = (-drift_hat - phiv - dpsidt_fn(state, t)) / gain_u

        (f2,) = f2_fn(state, theta_true, t)
        (inj,) = inject2
        mismatch = lf1 + (0.0 + gp * f2) - drift_hat

        (da,) = dalpha_fn(state, t)
        (dp,) = dpot_fn(state, t)
        da1, dp1 = da[0], dp[0]
        corr = dpotdt_fn(state, t)[0] - psi * (dalphadt_fn(state, t)[0] + (0.0 + da1 * f1)) \
            + (0.0 + dp1 * f1)
        corr -= (psi * (0.0 + da1 * g1) - (0.0 + dp1 * g1)) * u
        return ([f1 + g1 * u, f2 + inj + g2 * u, phiv * a + corr],
                (psi, u, mismatch, 0.0 + gp * inj, theta_hat))

    def virtual_rates(state, theta_hat, t, inject2):
        psi = psi_fn(state, t)
        gq, gp = grad_fn(state, t)
        (f1,) = f1_fn(state, t)
        (g1,) = g1_fn(state)
        (g2,) = g2_fn(state)
        drift_hat = (0.0 + gq * f1) + (0.0 + gp * f2_fn(state, theta_hat, t)[0])
        gain_u = (0.0 + gq * g1) + (0.0 + gp * g2)
        if abs(gain_u) < floor:
            raise ControlSingularityError(state, t, gain_u, subsystem=tag)
        phiv = phi(psi, t)
        dpsidt = dpsidt_fn(state, t)
        u = (-drift_hat - phiv - dpsidt) / gain_u

        s1 = f1 + g1 * u
        s2 = f2_fn(state, theta_true, t)[0] + inject2[0] + g2 * u
        w = dpsidt + ((0.0 + gq * s1) + gp * s2) + phiv
        (a,) = alpha_fn(state, t)
        return [s1, s2, 0.0 + gamma * (w * a)], (psi, u)

    return rates, virtual_rates


def _rk4(rhs_full, y0, t0: float, step: float, n_steps: int, every: int, bound: float):
    """Fixed-step RK4 shared by every integrator; logs raw samples every `every` steps.

    rhs_full(t, y) -> (derivative list, diag sequence).  A sample is the
    time, the state and the diag at a grid point; the diag comes from the
    stage-one evaluation the step needs anyway.  The run stops early when a
    state component leaves [-bound, bound] (a NaN does too) or when the
    control law is undefined; an undefined law at the initial point is a
    caller error and propagates.  Returns (t, y, diag, status), one row per
    logged sample.
    """
    h = step
    half = 0.5 * h
    sixth = h / 6.0
    y = [float(v) for v in y0]

    k1, diag = rhs_full(t0, y)
    n_logs = n_steps // every + 1
    t_log = np.empty(n_logs)
    y_log = np.empty((n_logs, len(y)))
    diag_log = np.empty((n_logs, len(diag)))
    logged = 0

    def log(t, y, diag):
        nonlocal logged
        t_log[logged] = t
        y_log[logged] = y
        diag_log[logged] = diag
        logged += 1

    log(t0, y, diag)
    status = STATUS_COMPLETED
    for k in range(n_steps):
        t = t0 + k * h
        try:
            if k:
                k1, diag = rhs_full(t, y)
                if k % every == 0:
                    log(t, y, diag)
            k2, _ = rhs_full(t + half, [a + half * b for a, b in zip(y, k1)])
            k3, _ = rhs_full(t + half, [a + half * b for a, b in zip(y, k2)])
            k4, _ = rhs_full(t + h, [a + h * b for a, b in zip(y, k3)])
        except ControlSingularityError:
            status = STATUS_SINGULAR
            break
        y = [a + sixth * (b + 2.0 * (c + d) + e)
             for a, b, c, d, e in zip(y, k1, k2, k3, k4)]
        for v in y:
            if not -bound <= v <= bound:
                status = STATUS_DIVERGED
                break
        if status == STATUS_DIVERGED:
            break
    else:
        if n_steps % every == 0:
            tf = t0 + n_steps * h
            try:
                _, diag = rhs_full(tf, y)
            except ControlSingularityError:
                status = STATUS_SINGULAR
            else:
                log(tf, y, diag)
    return t_log[:logged], y_log[:logged], diag_log[:logged], status


def rk4_path(rhs: Callable, y0, t0: float, step: float, n_steps: int) -> tuple:
    """Bare fixed-step RK4 on a plain vector field rhs(t, y) -> sequence.

    Returns (times, states) as numpy arrays, one row per step.  This runs
    the closed-loop integrators' driver with no divergence bound (a NaN
    state still ends the path); the entry point exists for probing
    integrator accuracy directly.
    """
    times, states, _, _ = _rk4(lambda t, y: (rhs(t, y), ()), y0, t0, step, n_steps, 1, math.inf)
    return times, states


def _loop_record(t, state, theta_i, diag, status: str) -> LoopTrajectory:
    """LoopTrajectory from the logged rows of one loop; diag as `_compile_loop` rates."""
    psi, u, mismatch, eps = diag[:, 0], diag[:, 1], diag[:, 2], diag[:, 3]
    return LoopTrajectory(
        t=t, state=state, theta_hat=diag[:, 4:], theta_i=theta_i,
        psi=psi, u=u, eps=eps, mismatch=mismatch,
        l2_psi=running_l2(t, psi), l2_eps=running_l2(t, eps),
        l2_mismatch=running_l2(t, mismatch),
        linf_psi=np.maximum.accumulate(np.abs(psi)), status=status,
    )


def integrate(
    sys: CoupledClosedLoop,
    cfg: IntegratorConfig,
    aug0,
    t0: float = 0.0,
    control_cfg: ControlLawConfig = DEFAULT_CONTROL_CONFIG,
) -> Trajectory:
    """Simulate the coupled closed loop from an augmented initial state.

    aug0 concatenates x, theta_i_x, y, theta_i_y.  The result is logged
    every cfg.log_every steps on the uniform grid, with running norms of
    the goal errors, coupling channels, and drift mismatches.
    """
    n_x, d_x, n_y, _ = sys.dims
    aug0 = np.asarray(aug0, dtype=float)
    sys.split_state(aug0)  # rejects a wrong length
    rates_x, _ = _compile_loop(sys.loop_x, sys.theta_true_x, control_cfg, "x")
    rates_y, _ = _compile_loop(sys.loop_y, sys.theta_true_y, control_cfg, "y")
    into_x2 = sys.coupling.into_x2
    into_y2 = sys.coupling.into_y2
    ax, bx = n_x, n_x + d_x
    ay = bx + n_y

    def rhs_full(t, aug):
        x = aug[:ax]
        y = aug[bx:ay]
        xd, diag_x = rates_x(x, aug[ax:bx], t, into_x2(y, t))
        yd, diag_y = rates_y(y, aug[ay:], t, into_y2(x, t))
        return xd + yd, diag_x + diag_y

    t, aug, diag, status = _rk4(rhs_full, aug0, t0, cfg.step, cfg.n_steps, cfg.log_every,
                                cfg.divergence_bound)
    split = 4 + d_x
    loops = {
        "x": _loop_record(t, aug[:, :ax], aug[:, ax:bx], diag[:, :split], status),
        "y": _loop_record(t, aug[:, bx:ay], aug[:, ay:], diag[:, split:], status),
    }
    return Trajectory(t=t, loops=loops, status=status)


def _disturbed(kernel, n: int, p: int, disturbance: Disturbance):
    """rhs_full(t, z) of one loop kernel with z = state + estimator state."""
    direction = disturbance.resolve_direction(p)
    signal = disturbance.signal

    def rhs_full(t, z):
        s = signal(t)
        return kernel(z[:n], z[n:], t, [s * dv for dv in direction])

    return rhs_full


def integrate_loop(
    loop: AdaptiveLoopSpec,
    theta_true,
    disturbance: Disturbance,
    cfg: IntegratorConfig,
    state0,
    theta_i0,
    t0: float = 0.0,
    control_cfg: ControlLawConfig = DEFAULT_CONTROL_CONFIG,
) -> LoopTrajectory:
    """Simulate a single adaptive loop under an exogenous disturbance.

    With a zero disturbance the per-subsystem arithmetic is identical to a
    coupled run whose coupling vanishes, so the two produce bit-identical
    subsystem trajectories on the same grid.
    """
    layout = loop.spec.layout
    n, d = layout.n, loop.spec.param_dim
    rates, _ = _compile_loop(loop, theta_true, control_cfg, "loop")
    z0 = list(np.asarray(state0, dtype=float)) + list(np.asarray(theta_i0, dtype=float))
    if len(z0) != n + d:
        raise ValueError(f"initial data must have total length {n + d}")
    t, z, diag, status = _rk4(_disturbed(rates, n, layout.p, disturbance), z0, t0, cfg.step,
                              cfg.n_steps, cfg.log_every, cfg.divergence_bound)
    return _loop_record(t, z[:, :n], z[:, n:], diag, status)


@dataclass(eq=False)
class VirtualTrajectory:
    """Record of the reduced-form oracle integration: estimates evolve directly."""

    t: np.ndarray
    state: np.ndarray
    theta_hat: np.ndarray
    psi: np.ndarray
    status: str


def integrate_virtual(
    loop: AdaptiveLoopSpec,
    theta_true,
    disturbance: Disturbance,
    cfg: IntegratorConfig,
    state0,
    theta_hat0,
    t0: float = 0.0,
    control_cfg: ControlLawConfig = DEFAULT_CONTROL_CONFIG,
) -> VirtualTrajectory:
    """Integrate the reduced update law as an oracle for the realizable one.

    The estimate is itself a state: its rate is gain @ ((psi_dot + phi) *
    alpha) with psi_dot the true chain-rule derivative of the goal function
    along the closed loop.  That requires the true parameters, so it is not
    realizable online; from consistent initial data it must reproduce the
    estimates of `integrate_loop` up to integration error.
    """
    layout = loop.spec.layout
    n = layout.n
    _, virtual_rates = _compile_loop(loop, theta_true, control_cfg, "virtual")
    z0 = list(np.asarray(state0, dtype=float)) + list(np.asarray(theta_hat0, dtype=float))
    t, z, diag, status = _rk4(_disturbed(virtual_rates, n, layout.p, disturbance), z0, t0,
                              cfg.step, cfg.n_steps, cfg.log_every, cfg.divergence_bound)
    return VirtualTrajectory(t=t, state=z[:, :n], theta_hat=z[:, n:], psi=diag[:, 0],
                             status=status)


def first_attainment_time(t: np.ndarray, values: np.ndarray, threshold: float,
                          window: float = 0.0):
    """Earliest logged time from which |values| stays within threshold.

    Requires at least `window` time units of trailing data to support the
    claim; returns None when no suffix qualifies.
    """
    t = np.asarray(t, dtype=float)
    v = np.abs(np.asarray(values, dtype=float))
    suffix_max = np.maximum.accumulate(v[::-1])[::-1]
    ok = (suffix_max <= threshold) & (t <= t[-1] - window + 1e-15)
    idx = np.nonzero(ok)[0]
    return float(t[idx[0]]) if idx.size else None


def goal_attainment(traj: Trajectory, eps_x: float, eps_y: float, window: float = 0.0):
    """Earliest logged time from which both goal errors stay within bounds.

    Returns None if the trajectory never settles (or did not complete with
    enough trailing data).
    """
    tx = first_attainment_time(traj.t, traj.loops["x"].psi, eps_x, window)
    ty = first_attainment_time(traj.t, traj.loops["y"].psi, eps_y, window)
    if tx is None or ty is None:
        return None
    return max(tx, ty)


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Export a coupled trajectory as CSV with 17-significant-digit floats."""
    lx, ly = traj.loops["x"], traj.loops["y"]
    header = (
        ["t"]
        + [f"x{i + 1}" for i in range(lx.state.shape[1])]
        + [f"y{i + 1}" for i in range(ly.state.shape[1])]
        + ["psiX", "psiY", "uX", "uY"]
        + [f"thetaHatX{i + 1}" for i in range(lx.theta_hat.shape[1])]
        + [f"thetaHatY{i + 1}" for i in range(ly.theta_hat.shape[1])]
        + ["l2PsiX", "l2PsiY", "linfPsiX", "linfPsiY",
           "l2MismatchX", "l2MismatchY", "hIntoX", "hIntoY"]
    )
    columns = np.column_stack([
        traj.t, lx.state, ly.state, lx.psi, ly.psi, lx.u, ly.u, lx.theta_hat, ly.theta_hat,
        lx.l2_psi, ly.l2_psi, lx.linf_psi, ly.linf_psi, lx.l2_mismatch, ly.l2_mismatch,
        lx.eps, ly.eps,
    ])
    np.savetxt(path, columns, fmt="%.17g", delimiter=",", header=",".join(header), comments="")
