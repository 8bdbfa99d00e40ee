"""Fixed-step integration of adaptive loops with trajectory logging.

Classical fourth-order Runge-Kutta on a fixed grid: certificate monitors
and the realizable-versus-virtual equivalence tests need a deterministic,
shared time grid, so reproducibility outranks solver efficiency here.

Every integrator in this module runs the same two pieces: one compiled
closed-loop kernel per loop (`_compile_loop`), which evaluates the
certainty-equivalent control law, and one RK4 driver (`_rk4`), which logs
raw samples of the state and of the kernel's diagnostics on the thinned
grid.  Both are generated from templates on first use (as `dataclasses`
generates `__init__`): the driver once per block layout of the state, with
the state in float locals and the stages unrolled, and the kernel once per
(q, p, d) loop layout, with every callable result unpacked to its declared
length and every dot product written out.  Running signal norms are
computed after the run from the logged samples by trapezoidal quadrature
(`running_l2`); their quadrature error is folded into the tolerances of the
checks that consume them.

Integration stops at the horizon, on divergence (a state component exceeds
the configured bound), or on a controller singularity; the outcome is a
status on the trajectory, never an exception.
"""

from __future__ import annotations

import linecache
import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .adaptation import AdaptiveLoopSpec
from .controller import SINGULARITY_FLOOR, ControlSingularityError
from .interconnect import CoupledClosedLoop
from .model import DimensionMismatchError

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
        if not 0 < self.step < math.inf:
            raise ValueError(f"step must be finite and > 0, got {self.step!r}")
        if not 0 < self.t_final < math.inf:
            raise ValueError(f"t_final must be finite and > 0, got {self.t_final!r}")
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


def _compile_loop(loop: AdaptiveLoopSpec, theta_true, tag: str):
    """Bind one loop's callables into fast per-point rate evaluators.

    Returns (rates, virtual_rates):

    - rates(state, theta_i, t, inject2) -> (state_dot + theta_i_dot, diag)
      is the realizable PI estimator, with the flat
      diag = (psi, u, mismatch, eps, *theta_hat);
    - virtual_rates(state, theta_hat, t, inject2) ->
      (state_dot + theta_hat_dot, (psi, u)) is the reduced update law
      gain @ ((psi_dot + phi) * alpha), with psi_dot the chain-rule
      derivative along the closed loop.

    inject2 is the additive second-block contribution (coupling or an
    exogenous disturbance).  Both closures come from `_KERNEL_TEMPLATE`,
    generated once per (q, p, d) layout; they share only the text of the
    control input and the plant rate, so `virtual_rates` stays an
    independent oracle for the PI estimator.  A theta_true or a callable
    output of the wrong length is a ValueError.
    """
    theta_true = tuple(float(v) for v in theta_true)
    if len(theta_true) != loop.spec.param_dim:
        raise DimensionMismatchError("theta_true", loop.spec.param_dim, len(theta_true))
    layout = (loop.spec.layout.q, loop.spec.layout.p, loop.param.dim)
    kernels = _generate("kernels", layout, _kernel_source)
    return kernels(loop, theta_true, SINGULARITY_FLOOR, tag)


# The closed-loop kernels of one loop layout.  Every callable result is
# unpacked into float locals and every dot product is written out in
# `model._dot`'s order, so the arithmetic is that of the reference operations
# in `controller` and `adaptation`, term for term.  {control} is
# `_CONTROL_TEMPLATE`: the control input at theta_hat and the plant rate s.
_KERNEL_TEMPLATE = """\
def kernels(loop, theta_true, floor, tag):
    spec, goal, param, pot = loop.spec, loop.goal, loop.param, loop.potential
    psi_fn, grad_fn, dpsidt_fn = goal.psi, goal.grad_state, goal.d_time
    alpha_fn, dalpha_fn, dalphadt_fn = param.alpha, param.grad_state, param.d_time
    pot_fn, dpot_fn, dpotdt_fn = pot.value, pot.grad_state, pot.d_time
    f1_fn, f2_fn, g1_fn, g2_fn = spec.f1, spec.f2, spec.g1, spec.g2
    phi = loop.shaper.phi
    ({gain}) = np.atleast_2d(loop.gain).tolist()

    def rates(state, theta_i, t, inject2):
        psi = psi_fn(state, t)
        ({a}) = alpha_fn(state, t)
        ({pv}) = pot_fn(state, t)
        ({ti}) = theta_i
        {v}
        {th_eqs}
        theta_hat = ({th})
{control}
        ({da}) = dalpha_fn(state, t)
        ({dadt}) = dalphadt_fn(state, t)
        ({dp}) = dpot_fn(state, t)
        ({dpdt}) = dpotdt_fn(state, t)
        return ([{s}{theta_i_dot}],
                (psi, u, lf1 + {gp_f2} - drift_hat, {gp_inj}, {th}))

    def virtual_rates(state, theta_hat, t, inject2):
        psi = psi_fn(state, t)
{control}
        w = dpsidt + {grad_s} + phiv
        ({a}) = alpha_fn(state, t)
        return [{s}{theta_hat_dot}], (psi, u)

    return rates, virtual_rates
"""
_CONTROL_TEMPLATE = """\
        ({gq}{gp}) = grad_fn(state, t)
        ({f1}) = f1_fn(state, t)
        ({g1}) = g1_fn(state)
        ({g2}) = g2_fn(state)
        lf1 = {gq_f1}
        ({fh}) = f2_fn(state, theta_hat, t)
        drift_hat = lf1 + {gp_fh}
        gain_u = {gq_g1} + {gp_g2}
        if abs(gain_u) < floor:
            raise ControlSingularityError(state, t, gain_u, subsystem=tag)
        phiv = phi(psi, t)
        dpsidt = dpsidt_fn(state, t)
        u = (-drift_hat - phiv - dpsidt) / gain_u
        ({f2}) = f2_fn(state, theta_true, t)
        ({inj}) = inject2
        {s_eqs}"""


def _kernel_source(q: int, p: int, d: int) -> str:
    """Source of the (rates, virtual_rates) factory for blocks of q and p and d parameters."""
    n = q + p
    lines = "\n        ".join  # statements of a kernel body, one per line

    def seq(prefix, m):  # ["a0", "a1"] for prefix a
        return [f"{prefix}{i}" for i in range(m)]

    def tup(items):  # "a0, a1, " for items a0, a1; "(a0, ), (a1, ), " for rows
        return "".join(f"{x}, " if isinstance(x, str) else f"({tup(x)}), " for x in items)

    def dot(a, b):  # `_dot(a, b)` written out: ((0.0 + a0 * (b0)) + a1 * (b1))
        s = "0.0"
        for x, y in zip(a, b):
            s = f"({s} + {x} * ({y}))"
        return s

    gq, gp, f1, g1, g2 = seq("gq", q), seq("gp", p), seq("f1_", q), seq("g1_", q), seq("g2_", p)
    fh, f2, inj, s = seq("fh", p), seq("f2_", p), seq("inj", p), seq("s", n)
    a, pv, ti, v, th = seq("a", d), seq("pv", d), seq("ti", d), seq("v", d), seq("th", d)
    gain = [seq(f"G{r}_", d) for r in range(d)]
    da, dp = [seq(f"da{j}_", n) for j in range(d)], [seq(f"dp{j}_", n) for j in range(d)]
    fields = dict(
        gq=tup(gq), gp=tup(gp), f1=tup(f1), g1=tup(g1), g2=tup(g2), fh=tup(fh), f2=tup(f2),
        inj=tup(inj), gq_f1=dot(gq, f1), gp_fh=dot(gp, fh), gq_g1=dot(gq, g1), gp_g2=dot(gp, g2),
        s_eqs=lines([f"s{i} = f1_{i} + g1_{i} * u" for i in range(q)]
                    + [f"s{q + i} = f2_{i} + inj{i} + g2_{i} * u" for i in range(p)]),
        gain=tup(gain), a=tup(a), pv=tup(pv), ti=tup(ti), th=tup(th), s=tup(s),
        v=lines(f"v{j} = psi * a{j} - pv{j} + ti{j}" for j in range(d)),
        th_eqs=lines(f"th{r} = {dot(gain[r], v)}" for r in range(d)),
        da=tup(da), dadt=tup(seq("dadt", d)), dp=tup(dp), dpdt=tup(seq("dpdt", d)),
        theta_i_dot=tup(
            f"phiv * a{j} + (dpdt{j} - psi * (dadt{j} + {dot(da[j][:q], f1)}) "
            f"+ {dot(dp[j][:q], f1)} - (psi * {dot(da[j][:q], g1)} - {dot(dp[j][:q], g1)}) * u)"
            for j in range(d)),
        gp_f2=dot(gp, f2), gp_inj=dot(gp, inj), grad_s=dot(gq + gp, s),
        theta_hat_dot=tup(dot(gain[r], [f"w * a{j}" for j in range(d)]) for r in range(d)),
    )
    return _KERNEL_TEMPLATE.format(control=_CONTROL_TEMPLATE.format(**fields), **fields)


# The body of every RK4 run, compiled once per block layout by `_rk4`.  Only
# integers derived from the block sizes are formatted into it.
_RK4_TEMPLATE = """\
def run(rhs, y_init, t0, h, n_steps, every, bound):
    half = 0.5 * h
    sixth = h / 6.0
    lo = -bound
    ({y}) = [float(v) for v in y_init]
    k1, diag = rhs(t0, {at_y})
    if len(k1) != {n}:
        raise ValueError("rhs returned %d rates for a state of length {n}" % len(k1))
    ({k1}) = k1
    log = _log_buffer(n_steps, every, h, {n1} + len(diag))
    log[0] = (t0, {y}*diag)
    logged = 1
    status = STATUS_COMPLETED
    t = t0
    for k in range(1, n_steps + 1):
        try:
            ({k2}), _ = rhs(t + half, {at_k1})
            ({k3}), _ = rhs(t + half, {at_k2})
            ({k4}), _ = rhs(t + h, {at_k3})
            {update}
            if not ({in_bounds}):
                status = STATUS_DIVERGED
                break
            t = t0 + k * h
            if k < n_steps or k % every == 0:
                ({k1}), diag = rhs(t, {at_y})
                if k % every == 0:
                    log[logged] = (t, {y}*diag)
                    logged += 1
        except ControlSingularityError:
            status = STATUS_SINGULAR
            break
    log = log[:logged]
    return log[:, 0], log[:, 1:{n1}], log[:, {n1}:], status
"""


def _rk4(sizes: tuple):
    """The fixed-step RK4 driver of every integrator, for a state in blocks of `sizes`.

    run(rhs, y0, t0, step, n_steps, every, bound) -> (t, y, diag, status),
    one row per sample logged every `every` steps.  rhs(t, *blocks) ->
    (rates, diag) gets the state blocks as fresh lists.  A sample is the
    time, the state and the diag at a grid point; the diag comes from the
    stage-one evaluation the step needs anyway.  The run stops early when a
    state component leaves [-bound, bound] (a NaN does too) or when the
    control law is undefined; an undefined law at the initial point is a
    caller error and propagates, as does a rate vector of the wrong length.
    The runner, generated from `_RK4_TEMPLATE` once per layout, keeps the
    state in float locals with the stages unrolled.
    """
    return _generate("run", sizes, _rk4_source)


def _rk4_source(*sizes: int) -> str:
    """Source of the RK4 runner for a state in blocks of `sizes`."""
    n = sum(sizes)
    starts = [sum(sizes[:j]) for j in range(len(sizes))]

    def blocks(expr):  # one list per block of `expr` over its coordinates i
        return ", ".join("[" + ", ".join(expr.format(i=i) for i in range(a, a + m)) + "]"
                         for a, m in zip(starts, sizes))

    def names(prefix):  # "y0, y1, " for prefix y
        return "".join(f"{prefix}{i}, " for i in range(n))

    return _RK4_TEMPLATE.format(
        n=n, n1=n + 1, y=names("y"),
        k1=names("k1_"), k2=names("k2_"), k3=names("k3_"), k4=names("k4_"),
        at_y=blocks("y{i}"), at_k1=blocks("y{i} + half * k1_{i}"),
        at_k2=blocks("y{i} + half * k2_{i}"), at_k3=blocks("y{i} + h * k3_{i}"),
        update="\n            ".join(
            f"y{i} = y{i} + sixth * (k1_{i} + 2.0 * (k2_{i} + k3_{i}) + k4_{i})"
            for i in range(n)),
        in_bounds=" and ".join(f"lo <= y{i} <= bound" for i in range(n)) or "True",
    )


_GENERATED: dict = {}


def _generate(name: str, layout: tuple, source_of: Callable[..., str]):
    """Function `name` of source_of(*layout), compiled on first use and cached per layout.

    Only the integers of the layout reach the generated source.  It is
    registered with `linecache`, so tracebacks through it show its lines.
    """
    layout = tuple(operator.index(m) for m in layout)
    filename = f"<generated {name} {layout}>"
    if filename not in _GENERATED:
        source = source_of(*layout)
        linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
        namespace = {}
        exec(compile(source, filename, "exec"), globals(), namespace)
        _GENERATED[filename] = namespace[name]
    return _GENERATED[filename]


def _log_buffer(n_steps: int, every: int, step: float, width: int):
    """Empty log of a run, one row of `width` per sample; too large for numpy is a ValueError."""
    rows = n_steps // every + 1
    try:
        return np.empty((rows, width))
    except (MemoryError, ValueError):
        raise ValueError(f"t_final = {n_steps * step:g}, step = {step:g} and log_every = "
                         f"{every} ask for a log of {rows} rows, more than fits in memory"
                         ) from None


def rk4_path(rhs: Callable, y0, t0: float, step: float, n_steps: int) -> tuple:
    """Bare fixed-step RK4 on a plain vector field rhs(t, y) -> sequence.

    Returns (times, states) as numpy arrays, one row per step.  This runs
    the closed-loop integrators' driver with no divergence bound (a NaN
    state still ends the path); the entry point exists for probing
    integrator accuracy directly.
    """
    run = _rk4((len(y0),))
    times, states, _, _ = run(lambda t, y: (rhs(t, y), ()), y0, t0, step, n_steps, 1, math.inf)
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
) -> Trajectory:
    """Simulate the coupled closed loop from an augmented initial state.

    aug0 concatenates x, theta_i_x, y, theta_i_y.  The result is logged
    every cfg.log_every steps on the uniform grid, with running norms of
    the goal errors, coupling channels, and drift mismatches.
    """
    n_x, d_x, n_y, _ = sys.dims
    aug0 = np.asarray(aug0, dtype=float)
    sys.split_state(aug0)  # rejects a wrong length
    rates_x, _ = _compile_loop(sys.loop_x, sys.theta_true_x, "x")
    rates_y, _ = _compile_loop(sys.loop_y, sys.theta_true_y, "y")
    into_x2 = sys.coupling.into_x2
    into_y2 = sys.coupling.into_y2
    ax, bx = n_x, n_x + d_x
    ay = bx + n_y

    def rhs_full(t, x, theta_i_x, y, theta_i_y):
        xd, diag_x = rates_x(x, theta_i_x, t, into_x2(y, t))
        yd, diag_y = rates_y(y, theta_i_y, t, into_y2(x, t))
        return xd + yd, diag_x + diag_y

    t, aug, diag, status = _rk4(sys.dims)(rhs_full, aug0, t0, cfg.step, cfg.n_steps,
                                          cfg.log_every, cfg.divergence_bound)
    split = 4 + d_x
    loops = {
        "x": _loop_record(t, aug[:, :ax], aug[:, ax:bx], diag[:, :split], status),
        "y": _loop_record(t, aug[:, bx:ay], aug[:, ay:], diag[:, split:], status),
    }
    return Trajectory(t=t, loops=loops, status=status)


def _run_single(kernel, loop: AdaptiveLoopSpec, disturbance: Disturbance, cfg: IntegratorConfig,
                state0, est0, t0: float):
    """(t, state, estimator state, diag, status) of one loop kernel run from state0 + est0."""
    n, d = loop.spec.layout.n, loop.spec.param_dim
    state0, est0 = list(np.asarray(state0, dtype=float)), list(np.asarray(est0, dtype=float))
    if (len(state0), len(est0)) != (n, d):
        raise ValueError(f"initial data must have lengths {n} (state) and {d} (estimator), "
                         f"got {len(state0)} and {len(est0)}")
    direction = disturbance.resolve_direction(loop.spec.layout.p)
    d0, one = direction[0], len(direction) == 1  # p = 1 needs no comprehension
    signal = disturbance.signal

    def rhs_full(t, state, est):
        s = signal(t)
        return kernel(state, est, t, [s * d0] if one else [s * dv for dv in direction])

    t, z, diag, status = _rk4((n, d))(rhs_full, state0 + est0, t0, cfg.step, cfg.n_steps,
                                      cfg.log_every, cfg.divergence_bound)
    return t, z[:, :n], z[:, n:], diag, status


def integrate_loop(
    loop: AdaptiveLoopSpec,
    theta_true,
    disturbance: Disturbance,
    cfg: IntegratorConfig,
    state0,
    theta_i0,
    t0: float = 0.0,
) -> LoopTrajectory:
    """Simulate a single adaptive loop under an exogenous disturbance.

    With a zero disturbance the per-subsystem arithmetic is identical to a
    coupled run whose coupling vanishes, so the two produce bit-identical
    subsystem trajectories on the same grid.
    """
    rates, _ = _compile_loop(loop, theta_true, "loop")
    return _loop_record(*_run_single(rates, loop, disturbance, cfg, state0, theta_i0, t0))


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
) -> VirtualTrajectory:
    """Integrate the reduced update law as an oracle for the realizable one.

    The estimate is itself a state: its rate is gain @ ((psi_dot + phi) *
    alpha) with psi_dot the true chain-rule derivative of the goal function
    along the closed loop.  That requires the true parameters, so it is not
    realizable online; from consistent initial data it must reproduce the
    estimates of `integrate_loop` up to integration error.
    """
    _, virtual_rates = _compile_loop(loop, theta_true, "virtual")
    t, state, theta_hat, diag, status = _run_single(virtual_rates, loop, disturbance, cfg,
                                                    state0, theta_hat0, t0)
    return VirtualTrajectory(t=t, state=state, theta_hat=theta_hat, psi=diag[:, 0],
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
