"""Built-in coupled-oscillator case study and scenario file handling.

Two oscillators with nonlinearly parameterized damping, cross-coupled
through their positions:

    dx1/dt = x2                  dy1/dt = y2
    dx2/dt = fx(x1) + k1 y1 + u  dy2/dt = fy(y1) + k2 x1 + u

    fx(x1) = theta_x (x1 - x0) + 0.5 sin(theta_x (x1 - x0))
    fy(y1) = theta_y (y1 - y0) + 0.6 sin(theta_y (y1 - y0))

with goal functions x1 + x2 and y1 + y2, linear target shapers, and a
scalar monotone parametrization (position minus offset) whose growth
constants are 1.5 / 0.5 for the x loop and 1.6 / 0.4 for the y loop.  Its
small-gain condition reduces to k1 k2 < lambda_x lambda_y / 20.

Custom systems are declared in code against the library interfaces;
scenario files cover only this built-in family, since arbitrary callables
cannot be serialized safely.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .adaptation import REALIZABILITY_TOL, AdaptiveLoopSpec, check_poincare, zero_potential
from .certify import (
    MONITOR_TOL,
    CertificateReport,
    SmallGainProblem,
    check_small_gain,
    monitor_loop_bounds,
    monitor_tail_convergence,
    verify_coupling_bound,
    verify_monotonicity,
)
from .interconnect import Coupling, CoupledClosedLoop
from .model import (
    GRAD_REL_TOL,
    DomainBox,
    GoalFunction,
    Parametrization,
    PartitionLayout,
    SubsystemSpec,
    TargetShaper,
)
from .report import CertificateEntry, entry_from_margin
from .simulate import STATUS_COMPLETED, IntegratorConfig, integrate

GROWTH_X = (1.5, 0.5)
GROWTH_Y = (1.6, 0.4)
WOBBLE_X = 0.5
WOBBLE_Y = 0.6
STATE_BOX = DomainBox((-5.0, -5.0), (5.0, 5.0))

MONOTONICITY_STATE_BOX = DomainBox((-3.0, -3.0), (3.0, 3.0))
MONOTONICITY_THETA_BOX = DomainBox((0.2,), (2.0,))


@dataclass(frozen=True, eq=False)
class OscillatorScenario:
    """Scenario parameters; defaults reproduce the reference case study."""

    k1: float = 0.4
    k2: float = 0.4
    lambda_x: float = 2.0
    lambda_y: float = 2.0
    offset_x: float = 1.0
    offset_y: float = 1.0
    theta_x: float = 1.0
    theta_y: float = 1.0
    gamma_x: float = 1.0
    gamma_y: float = 1.0
    x1_0: float = -1.0
    x2_0: float = 0.0
    y1_0: float = 1.0
    y2_0: float = 0.0
    theta_i_x0: float = -1.0
    theta_i_y0: float = -2.0
    integrator: IntegratorConfig = IntegratorConfig(step=1e-3, t_final=50.0)

    def __post_init__(self):
        for f in fields(self):
            if f.name != "integrator" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)!r}")
        if self.lambda_x <= 0 or self.lambda_y <= 0:
            raise ValueError("shaper rates lambda_x, lambda_y must be > 0")
        if self.gamma_x <= 0 or self.gamma_y <= 0:
            raise ValueError("adaptation gains gamma_x, gamma_y must be > 0")

    def initial_state(self) -> np.ndarray:
        """Augmented initial vector (x, theta_i_x, y, theta_i_y)."""
        return np.array(
            [self.x1_0, self.x2_0, self.theta_i_x0, self.y1_0, self.y2_0, self.theta_i_y0]
        )


def damping(position: float, theta: float, offset: float, wobble: float, sin=math.sin) -> float:
    """Nonlinear damping force: linear-in-shifted-position plus a bounded sine.

    The integrators call it on floats with `math.sin`, which is about three
    times faster there than `np.sin`; the monotonicity certificate passes
    sin=np.sin to evaluate whole sample columns in one call.
    """
    s = theta * (position - offset)
    return s + wobble * sin(s)


def _shapers(sc: OscillatorScenario) -> tuple:
    """Target shapers of the x and y loops, sized for the initial goal errors."""
    return (
        TargetShaper.linear(sc.lambda_x, psi0_bound=abs(sc.x1_0 + sc.x2_0)),
        TargetShaper.linear(sc.lambda_y, psi0_bound=abs(sc.y1_0 + sc.y2_0)),
    )


def _make_loop(shaper: TargetShaper, offset: float, gain: float, wobble: float,
               growth: tuple) -> AdaptiveLoopSpec:
    g1_const = (0.0,)
    g2_const = (1.0,)
    psi_grad = (1.0, 1.0)
    alpha_grad = ((1.0, 0.0),)
    alpha_dt = (0.0,)

    spec = SubsystemSpec(
        layout=PartitionLayout(q=1, p=1),
        f1=lambda state, t: (state[1],),
        f2=lambda state, theta, t: (damping(state[0], theta[0], offset, wobble),),
        g1=lambda state: g1_const,
        g2=lambda state: g2_const,
        param_dim=1,
        box=STATE_BOX,
    )
    goal = GoalFunction(
        psi=lambda state, t: state[0] + state[1],
        grad_state=lambda state, t: psi_grad,
        d_time=lambda state, t: 0.0,
    )
    param = Parametrization(
        alpha=lambda state, t: (state[0] - offset,),
        grad_state=lambda state, t: alpha_grad,
        d_time=lambda state, t: alpha_dt,
        dim=1,
        growth_upper=growth[0],
        growth_lower=growth[1],
    )
    return AdaptiveLoopSpec(
        spec=spec,
        goal=goal,
        shaper=shaper,
        param=param,
        potential=zero_potential(1, 2),
        gain=np.array([[gain]]),
    )


def build_oscillator(sc: OscillatorScenario) -> CoupledClosedLoop:
    """Assemble the coupled oscillator pair from scenario parameters."""
    shaper_x, shaper_y = _shapers(sc)
    loop_x = _make_loop(shaper_x, sc.offset_x, sc.gamma_x, WOBBLE_X, GROWTH_X)
    loop_y = _make_loop(shaper_y, sc.offset_y, sc.gamma_y, WOBBLE_Y, GROWTH_Y)
    k1, k2 = sc.k1, sc.k2
    coupling = Coupling(
        into_x2=lambda y, t: (k1 * y[0],),
        into_y2=lambda x, t: (k2 * x[0],),
        beta_into_x=abs(k1),
        beta_into_y=abs(k2),
    )
    return CoupledClosedLoop(
        loop_x=loop_x,
        loop_y=loop_y,
        coupling=coupling,
        theta_true_x=(sc.theta_x,),
        theta_true_y=(sc.theta_y,),
    )


def small_gain_problem(sc: OscillatorScenario) -> SmallGainProblem:
    """Small-gain data of the scenario; both gains are exactly linear.

    Built from the same shapers as `build_oscillator`, without assembling
    and revalidating the loops.
    """
    shaper_x, shaper_y = _shapers(sc)
    return SmallGainProblem(
        gain_x22=shaper_x.gain_l2_from_l2,
        gain_y22=shaper_y.gain_l2_from_l2,
        beta_x=abs(sc.k1),
        beta_y=abs(sc.k2),
        ratio_x=GROWTH_X[0] / GROWTH_X[1],
        ratio_y=GROWTH_Y[0] / GROWTH_Y[1],
    )


def coupling_offsets(sc: OscillatorScenario) -> tuple:
    """Offsets of the running-norm coupling bounds, from the position dynamics.

    Position obeys d(pos)/dt = -pos + psi, whose energy gain from psi has
    slope one and offset |pos(0)| / sqrt(2); scaling by the coupling
    coefficients bounds each channel's energy in terms of the generating
    loop's goal error.  Returns (offset_into_x, offset_into_y).
    """
    return (
        abs(sc.k1) * abs(sc.y1_0) / math.sqrt(2.0),
        abs(sc.k2) * abs(sc.x1_0) / math.sqrt(2.0),
    )


def _renamed(entry: CertificateEntry, suffix: str) -> CertificateEntry:
    return replace(entry, name=f"{entry.name}-{suffix}")


def certify_oscillator(
    sc: OscillatorScenario,
    n_monotonicity_samples: int = 10000,
    monitor_tol: float = 1e-4,
    tail_window: float = 5.0,
    tail_threshold: float = 1e-2,
) -> tuple:
    """Full certification pass: assumption checks, small gain, trajectory monitors.

    Returns (CertificateReport, Trajectory or None).  The trajectory is None
    when the simulation aborted; the report then carries a failing
    simulation-status entry instead of the runtime monitors.
    """
    sys = build_oscillator(sc)
    report = CertificateReport()
    loops = (("x", sys.loop_x, sc.offset_x, WOBBLE_X), ("y", sys.loop_y, sc.offset_y, WOBBLE_Y))

    for tag, loop, _, _ in loops:
        for name, worst in (("gradient-goal", loop.goal_grad_error),
                            ("gradient-parametrization", loop.alpha_grad_error)):
            report.add(entry_from_margin(f"{name}-{tag}", GRAD_REL_TOL - worst,
                                         {"worst_rel_error": worst}, GRAD_REL_TOL))
        res = loop.realizability_residual
        report.add(entry_from_margin(f"realizability-{tag}", REALIZABILITY_TOL - res,
                                     {"residual": res}, REALIZABILITY_TOL))
        report.add(
            _renamed(
                check_poincare(loop.goal, loop.param, loop.spec.layout, loop.spec.box), tag
            )
        )

    for tag, loop, offset, wobble in loops:
        def drift(state, theta_vec, t, _o=offset, _w=wobble):
            return state[1] + damping(state[0], theta_vec[0], _o, _w, np.sin)

        cert = verify_monotonicity(
            loop.param,
            drift,
            MONOTONICITY_STATE_BOX,
            MONOTONICITY_THETA_BOX,
            n_samples=n_monotonicity_samples,
        )
        report.add(_renamed(cert.entry, tag))

    report.add(check_small_gain(small_gain_problem(sc)))

    traj = integrate(sys, sc.integrator, sc.initial_state())
    if traj.status != STATUS_COMPLETED:
        report.add(
            CertificateEntry(
                name="simulation-status",
                status="fail",
                margin=-1.0,
                witness={"status": traj.status, "last_t": traj.t_end},
            )
        )
        return report, None

    for tag, loop, theta in (("x", sys.loop_x, sys.theta_true_x), ("y", sys.loop_y, sys.theta_true_y)):
        for entry in monitor_loop_bounds(traj.loop_view(tag), loop, theta, tol=monitor_tol):
            report.add(_renamed(entry, tag))
    off_x, off_y = coupling_offsets(sc)
    for channel, k, offset in (("into_x", sc.k1, off_x), ("into_y", sc.k2, off_y)):
        report.add(verify_coupling_bound(traj, channel, abs(k), mode="l2", offset=offset,
                                         tol=MONITOR_TOL))
    report.extend(
        monitor_tail_convergence(traj, tail_window, tail_threshold, tail_threshold)
    )
    return report, traj


# (section, key, field) of every scenario-file entry, in file order; the
# fields of the [integrator] section are those of the IntegratorConfig.
_SCENARIO_FIELDS = (
    ("coupling", "k1", "k1"),
    ("coupling", "k2", "k2"),
    *((f"subsystem.{tag}", key, name) for tag in "xy" for key, name in (
        ("lambda", f"lambda_{tag}"), ("offset", f"offset_{tag}"), ("theta", f"theta_{tag}"),
        ("gamma", f"gamma_{tag}"), ("init1", f"{tag}1_0"), ("init2", f"{tag}2_0"),
        ("theta_i", f"theta_i_{tag}0"),
    )),
    *(("integrator", key, key) for key in ("step", "t_final", "divergence_bound", "log_every")),
)


def save_scenario(sc: OscillatorScenario, path) -> None:
    """Write a scenario file (INI sections of key = value pairs)."""
    sections = {}
    for section, key, name in _SCENARIO_FIELDS:
        owner = sc.integrator if section == "integrator" else sc
        sections.setdefault(section, {})[key] = repr(getattr(owner, name))
    cp = configparser.ConfigParser()
    cp.read_dict(sections)
    with open(path, "w", encoding="utf-8") as fh:
        cp.write(fh)


def load_scenario(path) -> OscillatorScenario:
    """Read a scenario file; unknown sections or keys are rejected."""
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise FileNotFoundError(f"scenario file not found: {path}")
    known = {(section, key) for section, key, _ in _SCENARIO_FIELDS}
    for section in cp.sections():
        if section not in {s for s, _ in known}:
            raise ValueError(f"unknown scenario section [{section}]")
        for key in cp[section]:
            if (section, key) not in known:
                raise ValueError(f"unknown key {key!r} in section [{section}]")

    values, integ = {}, {}
    for section, key, name in _SCENARIO_FIELDS:
        if cp.has_option(section, key):
            (integ if section == "integrator" else values)[name] = float(cp[section][key])
    base = OscillatorScenario().integrator
    log_every = integ.get("log_every", float(base.log_every))
    if not log_every.is_integer():
        raise ValueError(f"log_every must be an integer, got {log_every!r}")
    integ["log_every"] = int(log_every)
    return OscillatorScenario(integrator=replace(base, **integ), **values)
