"""Fixed-step integration of adaptive loops with trajectory logging.

Classical fourth-order Runge-Kutta on a fixed grid: certificate monitors
and the realizable-versus-virtual equivalence tests need a deterministic,
shared time grid, so reproducibility outranks solver efficiency here.

Every integrator goes through `_run`, which calls one RK4 runner
run(loops, thetas, fields, y_init, t0, h, n_steps, every, bound), a coupled
run being the two-loop case, generated on first use (as `dataclasses`
generates `__init__`) once per law, loop layouts and the loops' `Formula`
texts (`_runner`): `_RK4_TEMPLATE` with the state in float
locals, the stages unrolled, and each stage evaluation written out as the
closed-loop law of its loops (`_loop_body`), each `Formula` in place (once
per run if it reads no argument), every other map called, every result
unpacked to its declared length and every dot product written out.  It
logs raw samples of the state and of the law's diagnostics every
`log_every` steps and at the final point, and `_run` cuts a `LoopTrajectory`
per loop from them, with running signal norms computed by trapezoidal
quadrature (`running_l2`), checked with the fixed tolerances
`certify.MONITOR_TOL` and `certify.LOOP_MONITOR_TOL`.

Integration stops at the horizon, on divergence (a state component exceeds
the configured bound, or a `math` function overflows or leaves its domain),
or on a controller singularity; the outcome is a status on the trajectory,
never an exception, except at the initial point.

CSV export (`_write_csv`) writes the bytes of '%.17g' % v.  It decides each
value's 17 digits exactly in numpy from a double-double product with a power
of ten, and leaves NaN, infinities, ties and |v| outside [1e-280, 1e280] to
Python's '%.17g'.
"""

from __future__ import annotations

import functools
import itertools
import linecache
import math
import numbers
import operator
import re
import zlib
from dataclasses import dataclass
from textwrap import indent
from typing import Callable, Optional

import numpy as np

from .adaptation import AdaptiveLoopSpec
from .controller import SINGULARITY_FLOOR, ControlSingularityError
from .interconnect import CoupledClosedLoop
from .model import FUNCTIONS, DimensionMismatchError, Formula, _require_finite

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
        if not isinstance(self.log_every, numbers.Integral) or self.log_every < 1:
            raise ValueError("log_every must be a positive integer")
        if not self.divergence_bound > 0:
            raise ValueError("divergence_bound must be > 0")

    @property
    def n_steps(self) -> int:
        return round(self.t_final / self.step)


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

    def __post_init__(self):
        _require_finite(**{f"direction[{i}]": v for i, v in
                           enumerate(() if self.direction is None else self.direction)})

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
    _require_finite(scale=scale, rate=rate)
    if rate <= 0:
        raise ValueError("rate must be > 0 for a square-integrable signal")
    return Disturbance(signal=lambda t: scale * math.exp(-rate * t))


def pulse_disturbance(amplitude: float, t_on: float, t_off: float) -> Disturbance:
    """Rectangular pulse on [t_on, t_off); truncated, hence square-integrable."""
    _require_finite(amplitude=amplitude, t_on=t_on, t_off=t_off)
    if not t_off > t_on:
        raise ValueError("t_off must exceed t_on")
    return Disturbance(signal=lambda t: amplitude if t_on <= t < t_off else 0.0)


@dataclass(eq=False)
class LoopTrajectory:
    """Logged record of one adaptive loop, with running norms.

    eps is the disturbance entering the goal-error equation (for coupled
    runs, the coupling channel into this loop).  l2_* arrays hold the
    running norms over [t0, t_k]; linf_psi the running peak of |psi|.  theta_i
    is the estimator state: the integral state, or for a reduced-form run
    (`integrate_virtual`) the estimate itself, so there it equals theta_hat.
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


@dataclass(eq=False)
class Trajectory:
    """Logged record of a coupled run: one LoopTrajectory per subsystem.

    Every loop's record shares the time grid and the status; its eps is
    the coupling channel into that loop.
    """

    t: np.ndarray
    loops: dict
    status: str

    @property
    def t_end(self) -> float:
        return float(self.t[-1])


def running_l2(t: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Running L2 norm of a sampled signal by trapezoidal quadrature; inf once it overflows."""
    t = np.asarray(t, dtype=float)
    v = np.asarray(values, dtype=float)
    with np.errstate(over="ignore"):
        sq = v * v
        increments = 0.5 * (sq[1:] + sq[:-1]) * np.diff(t)
    out = np.empty_like(t)
    out[0] = 0.0
    np.cumsum(increments, out=out[1:])
    return np.sqrt(out)


# The gain rows and true parameters of the loop {P}loop, bound to locals with its prefix {P}.
_BIND_TEMPLATE = """\
({gain}) = np.atleast_2d({P}loop.gain).tolist()
({tt}) = {P}theta_true"""
# Every map of a loop, in `_maps` order, each the {slot} line of the templates: slot ->
# (attribute of the loop or, for the coupling field into it, None; its arguments: s state,
# e estimate, T true parameters, t time, p goal value, o the other loops' states).
_SLOTS = {
    "psi": ("goal.psi", "st"), "alpha": ("param.alpha", "st"), "pot": ("potential.value", "st"),
    "dpot": ("potential.grad_state", "st"), "dpotdt": ("potential.d_time", "st"),
    "grad": ("goal.grad_state", "st"), "dpsidt": ("goal.d_time", "st"),
    "dalpha": ("param.grad_state", "st"), "dalphadt": ("param.d_time", "st"),
    "f1": ("spec.f1", "st"), "g1": ("spec.g1", "s"), "g2": ("spec.g2", "s"),
    "fh": ("spec.f2", "set"), "f2": ("spec.f2", "sTt"), "phi": ("shaper.phi", "pt"),
    "inj": (None, "ot"),
}
# One evaluation of the closed-loop law of one loop layout.  Map results are
# unpacked into float locals and dot products written out in `model._dot`'s
# order: the arithmetic of `controller` and `adaptation`, term for term.
# {control} is `_CONTROL_TEMPLATE`: the control input at the estimate and the
# state rates.  Locals carry the loop's prefix {P}.
_KERNEL_TEMPLATE = """\
{inj}
{psi}
{alpha}
{pot}
{v_eqs}
{th_eqs}
{theta_hat}
{control}
{dalpha}
{dalphadt}
{dpot}
{dpotdt}
{theta_i_dot}"""
# The reduced-form oracle: the estimate is itself a state.
_VIRTUAL_TEMPLATE = """\
{inj}
{psi}
{control}
{P}w = {P}dpsidt + {grad_s} + {P}phiv
{alpha}
{theta_hat_dot}"""
_CONTROL_TEMPLATE = """\
{grad}
{f1}
{g1}
{g2}
{P}lf1 = {gq_f1}
{fh}
{P}drift_hat = {P}lf1 + {gp_fh}
{gain_u}
if abs({P}gain_u) < floor:
    raise ControlSingularityError([{state}], {t}, {P}gain_u, subsystem={P}tag)
{phi}
{dpsidt}
{P}u = (-{P}drift_hat - {P}phiv - {P}dpsidt) / {P}gain_u
{f2}
{s_eqs}"""


def _names(prefix: str, m: int) -> list:  # ["a0", "a1"] for prefix a
    return [f"{prefix}{i}" for i in range(m)]


def _tup(items) -> str:  # "a0, a1, " for items a0, a1; "(a0, ), (a1, ), " for rows
    return "".join(f"{x}, " if isinstance(x, str) else f"({_tup(x)}), " for x in items)


def _dot(a, b) -> str:  # `model._dot(a, b)` written out: ((0.0 + a0 * (b0)) + a1 * (b1))
    return functools.reduce(lambda s, xy: f"({s} + {xy[0]} * ({xy[1]}))", zip(a, b), "0.0")


def _slot(fn, P: str, slot: str, obj: str, target, args: list, binds: list) -> str:
    """The body line assigning map fn of `slot` at args to target; obj reads fn in the bind text.

    A callable is bound and called on the args' containers.  A `Formula` is
    written on their elements (a tuple of the target's length unpacks to
    plain stores), its constants bound, and in the bind text if it reads no
    argument.
    """
    lhs = target if isinstance(target, str) else f"({_tup(target)})"
    if not isinstance(fn, Formula):
        binds.append(f"{P}{slot}_fn = {obj}")
        call = ", ".join(a if isinstance(a, str) else a[0] for a in args)
        return f"{lhs} = {P}{slot}_fn({call})"
    binds += [f"{P}{slot}__{c} = {obj}.constants[{c!r}]" for c in fn.free]
    line = f"{lhs} = {fn.inline([a if isinstance(a, str) else a[1] for a in args], f'{P}{slot}__')}"
    binds += [] if fn.reads else [line]
    return line if fn.reads else ""


def _loop_body(layout, maps: dict, P: str, z: list, rates: list, inject, t="t", virtual=False):
    """(bind, body, diag) source of a (q, p, d) loop whose locals carry the prefix P.

    The body evaluates the loop's maps at the state and estimator sources z
    (integral state, or the estimate if `virtual`) and the time `t`, injected
    with the coupling field maps["inj"] of inject = (its bind source, the
    other loops' (state container, sources) in loop order), or signal(t) *
    direction if inject is None, and assigns the n state and d estimator
    rates to the locals `rates`.  diag is (psi, u, mismatch, eps, *theta_hat), theta_hat
    the estimator sources if `virtual`.
    The bind text binds what the body reads, and the terms built from the
    values of formulas that read no argument alone.
    """
    q, p, d = layout
    n, psi, u, s, lines = q + p, P + "psi", P + "u", rates[:q + p], "\n".join
    names = {x: _names(P + x, m) for x, m in zip(
        ("gq", "gp", "f1_", "g1_", "g2_", "fh", "f2_", "inj", "a", "pv", "v", "th", "dadt", "dpdt",
         "tt"), (q, p, q, q, p, p, p, p) + (d,) * 7)}
    gq, gp, f1, g1, g2, fh, f2, inj, a, pv, v, th, dadt, dpdt, tt = names.values()
    ti, gain = z[n:], [_names(f"{P}G{r}_", d) for r in range(d)]
    da, dp = ([_names(f"{P}{x}{j}_", n) for j in range(d)] for x in ("da", "dp"))
    args = dict(s=[(P + "state", z[:n])], T=[(P + "theta_true", tt)], t=[t], p=[psi],
                e=[(f"[{', '.join(ti)}]", ti) if virtual else (P + "theta_hat", th)],
                o=inject and inject[1])
    targets = dict(psi=psi, alpha=a, pot=pv, dpot=dp, dpotdt=dpdt, grad=gq + gp, f1=f1, g1=g1,
                   g2=g2, dpsidt=P + "dpsidt", dalpha=da, dalphadt=dadt, fh=fh, f2=f2,
                   phi=P + "phiv", inj=inj)
    binds = [_BIND_TEMPLATE.format(P=P, gain=_tup(gain), tt=_tup(tt))]
    law, fields = _CONTROL_TEMPLATE + (_VIRTUAL_TEMPLATE if virtual else _KERNEL_TEMPLATE), {}
    for slot, (attr, params) in _SLOTS.items():
        if f"{{{slot}}}" in law and (attr or inject):
            fields[slot] = _slot(maps[slot], P, slot, f"{P}loop.{attr}" if attr else inject[0],
                                 targets[slot], [a for x in params for a in args[x]], binds)
    if inject is None:
        fields["inj"] = f"sig = signal({t})\n" + lines(
            f"{x} = sig * dir{i}" for i, x in enumerate(inj))
    fixed = {slot for slot, fn in maps.items() if isinstance(fn, Formula) and not fn.reads}
    fields["gain_u"] = f"{P}gain_u = {_dot(gq, g1)} + {_dot(gp, g2)}"
    if {"grad", "g1", "g2"} <= fixed:
        binds.append(fields["gain_u"])
        fields["gain_u"] = ""
    lg1 = {x: [_dot(r[:q], g1) for r in rows] for x, rows in (("dalpha", da), ("dpot", dp))}
    for x in () if virtual else lg1:
        if {x, "g1"} <= fixed:
            binds += [f"{P}{x}_g1_{j} = {term}" for j, term in enumerate(lg1[x])]
            lg1[x] = _names(f"{P}{x}_g1_", d)
    fields.update(
        P=P, t=t, state=", ".join(z[:n]),
        gq_f1=_dot(gq, f1), gp_fh=_dot(gp, fh),
        theta_hat="" if virtual or isinstance(maps["fh"], Formula) else
        f"{P}theta_hat = ({_tup(th)})",
        s_eqs=lines([f"{s[i]} = {f1[i]} + {g1[i]} * {u}" for i in range(q)]
                    + [f"{s[q + i]} = {f2[i]} + {inj[i]} + {g2[i]} * {u}" for i in range(p)]),
    )
    fields["control"], bind = _CONTROL_TEMPLATE.format(**fields), lines(binds)
    diag = [psi, u, f"{P}lf1 + {_dot(gp, f2)} - {P}drift_hat", _dot(gp, inj)]
    if virtual:
        return bind, _VIRTUAL_TEMPLATE.format(grad_s=_dot(gq + gp, s), theta_hat_dot=lines(
            f"{rates[n + r]} = {_dot(gain[r], [f'{P}w * {x}' for x in a])}" for r in range(d)),
            **fields), diag + ti
    return bind, _KERNEL_TEMPLATE.format(
        v_eqs=lines(f"{v[j]} = {psi} * {a[j]} - {pv[j]} + {ti[j]}" for j in range(d)),
        th_eqs=lines(f"{th[r]} = {_dot(gain[r], v)}" for r in range(d)),
        theta_i_dot=lines(
            f"{rates[n + j]} = {P}phiv * {a[j]} + ({dpdt[j]} - {psi} * ({dadt[j]} + "
            f"{_dot(da[j][:q], f1)}) + {_dot(dp[j][:q], f1)} - ({psi} * {lg1['dalpha'][j]}"
            f" - {lg1['dpot'][j]}) * {u})" for j in range(d)), **fields,
    ), diag + th


# The body of every RK4 run, generated by `_runner`: its stages are written
# out as the loop bodies.  Only the kind, integers derived from the layout and
# the unparse of validated formula ASTs reach the text.
_RK4_TEMPLATE = """\
def {name}(tags, loops, thetas, fields, y_init, t0, h, n_steps, every, bound):
{bind}
    half = 0.5 * h
    sixth = h / 6.0
    lo = -bound
    ({y}) = [float(v) for v in y_init]
    logged = 0
    status = STATUS_COMPLETED
    t = t0
    for k in range(n_steps + 1):
        try:
{stage1}
            if k % every == 0 or k == n_steps:
                if not k:
                    log = _log_buffer(n_steps, every, h, {width})
                log[logged] = (t, {y}{diag})
                logged += 1
            if k == n_steps:
                break
{stages}
        except ControlSingularityError:
            if not logged:  # at the initial point
                raise
            status = STATUS_SINGULAR
            break
        except (ValueError, OverflowError) as err:  # what `math`'s FUNCTIONS raise, and only that
            if isinstance(err, ValueError) and err.args != ("math domain error",):
                raise
            if not logged:
                raise ValueError(f"closed-loop maps overflow at t0 = {{t0!r}}: {{err}}") from err
            status = STATUS_DIVERGED
            break
{update}
        if not ({in_bounds}):
            status = STATUS_DIVERGED
            break
        t = t0 + (k + 1) * h
    log = log[:logged]
    return log[:, 0], log[:, 1:{n1}], log[:, {n1}:], status
"""


_GENERATED: dict = {}


def _runner(kind: str, layout: tuple, maps: tuple):
    """The RK4 runner of `kind`, generated from `_RK4_TEMPLATE` once per layout and map texts.

    kind names the law, "loop" (realizable) or "virtual" (reduced form);
    layout holds one (q, p, d) per loop, of one loop or coupled ones.
    Every runner is run(tags, loops, thetas, fields, y_init, t0, h, n_steps,
    every, bound), with a tag, a loop, its true parameters and its field per
    loop and y_init each loop's state and estimator state in turn.  Coupled
    loops are injected with their fields, maps of the other loops' states in
    loop order; one loop with signal(t) * direction, its field (signal,
    direction).

    A runner keeps the state in float locals with the stages unrolled and
    returns (t, y, diag, status), one row per sample logged every `every`
    steps and at the final point, the diag from the stage-one evaluation the
    step needs anyway.  It stops when a state component leaves [-bound,
    bound] (a NaN does too) or the control law is undefined; undefined at
    the initial point propagates, at a later one (the final point included)
    it ends the run singular, the error carrying the loop's tag.  A `math`
    function that overflows or leaves its domain is a ValueError at the
    initial point and ends the run diverged at a later one; nothing else is
    caught.

    Loop stages are `_loop_body`'s text, and so is their diag, the same
    columns for every kind.  maps are the loops' `_maps`, one after the
    other.  Only `kind`, the integers of layout and the unparse of validated
    formula ASTs reach the source, never tags, user text or constant values.
    It is compiled on first use, cached, and kept without blank lines in
    `linecache` under a name holding a digest of the formula texts, so
    tracebacks through it show its lines.
    """
    texts = tuple(fn.text if isinstance(fn, Formula) else None for fn in maps)
    key = (kind, tuple(map(operator.index, layout)), texts)
    if key not in _GENERATED:
        filename = f"<generated {kind} {key[1]} {zlib.crc32(repr(texts).encode()):08x}>"
        source = "".join(line for line in _runner_source(kind, key[1], maps).splitlines(True)
                         if line.strip())
        linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
        namespace = {}
        exec(compile(source, filename, "exec"), globals(), namespace)
        _GENERATED[key] = namespace[kind]
    return _GENERATED[key]


def _maps(loop, inject=None) -> tuple:  # the `_SLOTS` maps of a loop with field `inject`
    return tuple(operator.attrgetter(a)(loop) if a else inject for a, _ in _SLOTS.values())


def _runner_source(kind: str, layout: tuple, maps: tuple) -> str:
    """Source of `_runner(kind, layout, maps)`."""
    n, m, stages, diag = sum(layout), len(_SLOTS), [], []
    coupled = len(layout) > 3  # else one loop
    prefixes = [("xy"[i] + "_" if i < 2 else f"l{i}_") if coupled else ""
                for i in range(len(layout) // 3)]
    loops = [(P, layout[3 * i:3 * i + 3], sum(layout[:3 * i])) for i, P in enumerate(prefixes)]
    fields = [f"{P}field" for P in prefixes] if coupled else [["signal", _names("dir", layout[1])]]
    binds = [
        f"({_tup(P + 'loop' for P in prefixes)}), ({_tup(P + 'theta_true' for P in prefixes)}), "
        f"({_tup(fields)}) = loops, thetas, fields",
        f"floor, ({_tup(P + 'tag' for P in prefixes)}) = SINGULARITY_FLOOR, tags",
        f"{', '.join(FUNCTIONS)} = {', '.join(f'math.{f}' for f in FUNCTIONS)}"]
    for j, (t, c) in enumerate([("t", ""), ("t + half", "half"), ("t + half", "half"),
                                ("t + h", "h")]):
        z = _names("z" if j else "y", n)
        rates, bodies = _names(f"k{j + 1}_", n), []
        lines = [f"ts = {t}"] + [f"z{i} = y{i} + {c} * k{j}_{i}" for i in range(n)] if j else []
        t = "ts" if j else "t"
        for i, (P, (q, p, d), a) in enumerate(loops):
            others = [(O + "state", z[b:b + qo + po]) for O, (qo, po, _), b in loops if O != P]
            bind, body, loop_diag = _loop_body(
                (q, p, d), dict(zip(_SLOTS, maps[i * m:(i + 1) * m])), P, z[a:a + q + p + d],
                rates[a:a + q + p + d], (fields[i], others) if coupled else None, t,
                kind == "virtual")
            bodies.append(body)
            if not j:  # the bind text, and the diag read at stage one
                binds.append(bind)
                diag += loop_diag
        lines += [f"{P}state = [{', '.join(z[a:a + q + p])}]" for P, (q, p, _), a in loops
                  if re.search(rf"\b{P}state\b", "\n".join(bodies))] + bodies
        stages.append("\n".join(lines))
    return _RK4_TEMPLATE.format(
        name=kind, bind=indent("\n".join(binds), "    "), y=_tup(_names("y", n)),
        diag=_tup(diag), n1=n + 1,
        width=n + 1 + len(diag),
        stage1=indent(stages[0], " " * 12), stages=indent("\n".join(stages[1:]), " " * 12),
        update=indent("\n".join(f"y{i} = y{i} + sixth * (k1_{i} + 2.0 * (k2_{i} + k3_{i}) + "
                                 f"k4_{i})" for i in range(n)), " " * 8),
        in_bounds=" and ".join(f"lo <= y{i} <= bound" for i in range(n)),
    )


def _log_buffer(n_steps: int, every: int, step: float, width: int):
    """Empty log of a run, one row of `width` per sample; too large for numpy is a ValueError."""
    rows = -(-n_steps // every) + 1  # every `every`-th step and the final one
    try:
        return np.empty((rows, width))
    except (MemoryError, ValueError):
        raise ValueError(f"t_final = {n_steps * step:g}, step = {step:g} and log_every = "
                         f"{every} ask for a log of {rows} rows, more than fits in memory"
                         ) from None


def _loop_record(t, state, theta_i, diag, status: str) -> LoopTrajectory:
    """LoopTrajectory from the logged rows of one loop; diag as `_loop_body` gives it."""
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

    aug0 concatenates each loop's state and integral state in loop order (x,
    theta_i_x, y, theta_i_y for two loops).  The result is logged every
    cfg.log_every steps on the uniform grid, with running norms of the goal
    errors, coupling channels, and drift mismatches.
    """
    sizes = [m for loop in sys.loops.values() for m in (loop.spec.layout.n, loop.param.dim)]
    aug0 = np.asarray(aug0, dtype=float)
    if len(aug0) != sum(sizes):
        raise ValueError(f"augmented state must have length {sum(sizes)}, got {len(aug0)}")
    parts = np.split(aug0, np.cumsum(sizes[:-1]))
    records = _run("loop", {tag: (loop, sys.theta_true[tag], sys.coupling.into[tag],
                                  *parts[2 * i:2 * i + 2])
                            for i, (tag, loop) in enumerate(sys.loops.items())}, cfg, t0)
    first = next(iter(records.values()))
    return Trajectory(t=first.t, loops=records, status=first.status)


def _run(kind: str, runs: dict, cfg: IntegratorConfig, t0: float) -> dict:
    """The `kind` run of one loop or coupled ones: a `LoopTrajectory` per tag of runs.

    runs maps each loop's tag to its (loop, theta_true, field, state0, est0)
    in loop order, field as `_runner` takes it and est0 the estimator state.
    A wrong length of theta_true or of the initial data is a ValueError, and
    so is a value that is not finite, named by its index in theta_true or in
    the initial data (each loop's state and estimator state in turn).
    """
    layouts, thetas, y0 = [], [], []
    for loop, theta_true, _, state0, est0 in runs.values():
        n, d = loop.spec.layout.n, loop.param.dim
        thetas.append(tuple(float(v) for v in theta_true))
        if len(thetas[-1]) != d:
            raise DimensionMismatchError("theta_true", d, len(thetas[-1]))
        _require_finite(**{f"theta_true[{i}]": v for i, v in enumerate(thetas[-1])})
        state0, est0 = list(np.asarray(state0, dtype=float)), list(np.asarray(est0, dtype=float))
        if (len(state0), len(est0)) != (n, d):
            raise ValueError(f"initial data must have lengths {n} (state) and {d} (estimator), "
                             f"got {len(state0)} and {len(est0)}")
        layouts.append((loop.spec.layout.q, loop.spec.layout.p, d))
        y0 += state0 + est0
    _require_finite(**{f"initial data[{i}]": v for i, v in enumerate(y0)})
    loops, fields = [run[0] for run in runs.values()], [run[2] for run in runs.values()]
    t, y, diag, status = _runner(kind, sum(layouts, ()), sum(map(_maps, loops, fields), ()))(
        tuple(runs), loops, thetas, fields, y0, t0, cfg.step, cfg.n_steps, cfg.log_every,
        cfg.divergence_bound)
    records, a, b = {}, 0, 0
    for tag, (q, p, d) in zip(runs, layouts):  # each loop's state, estimator state and diag
        c = a + q + p
        records[tag] = _loop_record(t, y[:, a:c], y[:, c:c + d], diag[:, b:b + 4 + d], status)
        a, b = c + d, b + 4 + d
    return records


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
    field = (disturbance.signal, disturbance.resolve_direction(loop.spec.layout.p))
    return _run("loop", {"loop": (loop, theta_true, field, state0, theta_i0)}, cfg, t0)["loop"]


def integrate_virtual(
    loop: AdaptiveLoopSpec,
    theta_true,
    disturbance: Disturbance,
    cfg: IntegratorConfig,
    state0,
    theta_hat0,
    t0: float = 0.0,
) -> LoopTrajectory:
    """Integrate the reduced update law as an oracle for the realizable one.

    The estimate is itself a state: its rate is gain @ ((psi_dot + phi) *
    alpha) with psi_dot the true chain-rule derivative of the goal function
    along the closed loop.  That requires the true parameters, so it is not
    realizable online; from consistent initial data it must reproduce the
    estimates of `integrate_loop` up to integration error.  The record is
    `integrate_loop`'s, with theta_i the estimator state, hence equal to
    theta_hat, and u, mismatch and eps those of the control input at it.
    """
    field = (disturbance.signal, disturbance.resolve_direction(loop.spec.layout.p))
    return _run("virtual", {"virtual": (loop, theta_true, field, state0, theta_hat0)}, cfg,
                t0)["virtual"]


# The CSV writer renders a value as six little-endian words: byte 0 sign, 1-5 "0.000",
# 6 the first digit, 7 a point, 8-39 the other digits each with a point slot after it,
# 40-44 "e+HTU", 45 the separator.  A mask row per layout and digit count keeps text.
_POWERS = range(-282, 299)  # k of the tabled 10**k; also the exponents E tabled
_FIXED = range(-4, 17)  # '%g' writes these E without an exponent


@functools.cache
def _csv_tables() -> tuple:
    """Power-of-ten, digit and layout tables of the CSV writer, built on the first write."""
    k = np.arange(_POWERS.start, _POWERS.stop)
    x = [*itertools.accumulate([10] * -k[0], operator.floordiv, initial=1 << 1026)][:0:-1]
    x += itertools.accumulate([10] * k[-1], operator.mul, initial=1)  # 10**k, * 2**1026 if k < 0
    hi = [float(n) for n in x]
    scale = np.where(k < 0, 2.0 ** -1026, 1.0)
    hi, lo = np.array(hi) * scale, np.array([float(n - int(h)) for n, h in zip(x, hi)]) * scale
    low = np.where(lo > 0, np.nextafter(hi, np.inf), hi)  # the first double >= 10**k
    hh = hi * 134217729.0 - (hi * 134217729.0 - hi)  # Veltkamp: hi = hh + (hi - hh)
    g = np.indices((10,) * 4, np.uint8).reshape(4, -1)  # the digits of 0 ... 9999
    d8 = np.full((10000, 8), ord("."), np.uint8)  # 0 ... 9999 as "d.d.d.d."
    d8[:, ::2] = g.T + ord("0")
    sig4 = ((g != 0) * np.arange(1, 5, dtype=np.uint8)[:, None]).max(axis=0)  # to the last 1-9
    lead = np.frombuffer(b"-0.000\0.", "<u8") + (np.arange(10, dtype="<u8") + ord("0")) * 2 ** 48
    exp = b"".join(b"e%c%03d,\0\0" % (b"+-"[E < 0], abs(E)) for E in _POWERS)
    ce = np.array([_FIXED.stop, 100, *_FIXED])[:, None]  # class: |E| < 100, |E| >= 100, fixed E
    sig, fixed = np.arange(18), ce < _FIXED.stop
    pt = np.where(fixed, ce, 0)  # the point follows digit pt
    keep = np.zeros((ce.size, 18, 48), bool)
    keep[..., 1:6] = np.arange(1, 6) <= np.where(ce < 0, 1 - ce, 0)[..., None]
    keep[..., 6:40:2] = np.arange(17) < np.where(fixed, np.maximum(sig, ce + 1), sig)[..., None]
    keep[..., 7:40:2] = (np.arange(17) == pt[..., None]) & (sig > pt + 1)[..., None]
    keep[..., 40:45] = ~fixed[..., None] & ((np.arange(5) != 2) | (ce >= 100)[..., None])
    keep[..., 45] = True
    cls = np.where((k >= _FIXED.start) & (k < _FIXED.stop), k - _FIXED.start + 2, np.abs(k) >= 100)
    return (np.stack([hi, hh, hi - hh, lo], axis=1), low, d8.view("<u8")[:, 0], sig4, lead,
            np.frombuffer(exp, "<u8"), cls * 18, keep.reshape(-1, 48).view("<u8"))


def _digits(a, E):
    """The 17 significant digits D and exponent E of each a, 1e-280 <= a <= 1e280.

    E may start one off; the first doubles >= 10**E and 10**(E + 1) set it.
    Then p + q = a * 10**(16 - E) within 2**-46, p = fl(a * hi) plus its exact
    error (Dekker) plus a * lo.  ok is False within 2**-20 of a rounding tie.
    """
    ten, low = _csv_tables()[:2]
    E = E + (a >= low[E + 1 - _POWERS.start])
    E -= a < low[E - _POWERS.start]
    hi, hh, hl, lo = ten[16 - E - _POWERS.start].T
    p = a * hi
    ah = a * 134217729.0 - (a * 134217729.0 - a)
    q = ((ah * hh - p) + ah * hl + (a - ah) * hh) + (a - ah) * hl + a * lo
    r = np.floor(q + 0.5)
    D = p.astype(np.int64) + r.astype(np.int64)
    carry = D == 10 ** 17
    D[carry] = 10 ** 16
    return D, E + carry, np.abs(q - r) < 0.5 - 2.0 ** -20


def _write_csv(path, header: list, columns: list) -> None:
    """Write columns under a header row as CSV, each value as the bytes of '%.17g' % v.

    Each v with 1e-280 <= |v| <= 1e280 gets its 17 digits from an exact
    product with 10**(16 - E), E = floor(log10 |v|) (`_digits`); rounding it
    is exact unless its fraction is within 2**-20 of a half.  Those values,
    NaN, infinities and the rest of the range take Python's own '%.17g', so
    the fast path never guesses.  Blocks of at most 2048 values bound its memory.
    """
    _, _, d8, sig4, lead, exp, cls, keep_rows = _csv_tables()
    data = np.column_stack(columns).astype(float, copy=False)
    n = data.shape[1]
    rows = max(1, 2048 // n)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for i in range(0, data.shape[0], rows):
            v = data[i:i + rows].ravel()
            a = np.abs(v)
            D, E = np.zeros(v.shape, np.int64), np.zeros(v.shape, np.int64)  # zero: "0", "-0"
            fast = np.flatnonzero((a >= 1e-280) & (a <= 1e280))
            d, e, ok = _digits(a[fast], np.floor(np.log10(a[fast])).astype(np.int64))
            D[fast[ok]], E[fast[ok]] = d[ok], e[ok]
            h, g1 = np.divmod(D, 10000)
            h, g2 = np.divmod(h, 10000)
            h, g3 = np.divmod(h, 10000)
            h, g4 = np.divmod(h, 10000)
            L = E - _POWERS.start
            words = np.stack([lead[h], d8[g4], d8[g3], d8[g2], d8[g1], exp[L]], axis=1)
            words[n - 1::n, 5] ^= (ord(",") ^ ord("\n")) << 40
            sig = np.where(g1, 13 + sig4[g1], np.where(g2, 9 + sig4[g2],
                                                       np.where(g3, 5 + sig4[g3], 1 + sig4[g4])))
            keep = keep_rows[cls[L] + sig].view(bool)
            keep[:, 0] = np.signbit(v)
            chars = words.view(np.uint8)
            for j in np.flatnonzero((D == 0) & (a != 0)):  # left at D = 0: Python formats it
                text = b"%.17g" % v[j]
                chars[j, :len(text)] = np.frombuffer(text, np.uint8)
                keep[j, :45] = np.arange(45) < len(text)
            fh.write(np.compress(keep.ravel(), chars.ravel()).tobytes())


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Export a coupled trajectory as CSV with 17-significant-digit floats.

    After t, each field takes one column block per loop, in loop order:
    x1, x2, y1, y2, psiX, psiY, ... for two loops.
    """
    header, columns = ["t"], [traj.t]
    for field, stem in (("state", ""), ("psi", "psi"), ("u", "u"), ("theta_hat", "thetaHat"),
                        ("l2_psi", "l2Psi"), ("linf_psi", "linfPsi"),
                        ("l2_mismatch", "l2Mismatch"), ("eps", "hInto")):
        for tag, rec in traj.loops.items():  # the state's stem is the tag
            column = getattr(rec, field)
            name = stem + tag.capitalize() if stem else tag
            numbered = column.ndim > 1  # a vector: one column per coordinate
            header += [f"{name}{i + 1}" for i in range(column.shape[1])] if numbered else [name]
            columns.append(column)
    _write_csv(path, header, columns)
