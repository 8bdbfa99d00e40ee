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
Every map of the pair is a `model.Formula`, so the integrators write it
into their runner and the certify checks call it on sample columns.
`certify_oscillator` is `certify.certify_closed_loop` of the built pair,
given the monotonicity boxes and coupling offsets below.

Custom systems are declared in code against the library interfaces;
scenario files cover only this built-in family, since arbitrary callables
cannot be serialized safely.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .adaptation import AdaptiveLoopSpec, zero_potential
from .certify import certify_closed_loop
from .interconnect import Coupling, CoupledClosedLoop
from .model import (
    Constant,
    DomainBox,
    Formula,
    GoalFunction,
    Parametrization,
    PartitionLayout,
    SubsystemSpec,
    TargetShaper,
    _require_finite,
)
from .simulate import IntegratorConfig

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
        _require_finite(**{f.name: getattr(self, f.name) for f in fields(self)
                           if f.name != "integrator"})
        if self.lambda_x <= 0 or self.lambda_y <= 0:
            raise ValueError("shaper rates lambda_x, lambda_y must be > 0")
        if self.gamma_x <= 0 or self.gamma_y <= 0:
            raise ValueError("adaptation gains gamma_x, gamma_y must be > 0")

    def initial_state(self) -> np.ndarray:
        """Augmented initial vector (x, theta_i_x, y, theta_i_y)."""
        return np.array(
            [self.x1_0, self.x2_0, self.theta_i_x0, self.y1_0, self.y2_0, self.theta_i_y0]
        )


def _make_loop(rate: float, psi0: float, offset: float, gain: float, wobble: float,
               growth: tuple) -> AdaptiveLoopSpec:
    """One oscillator loop; its target shaper is sized for the initial goal error psi0."""
    spec = SubsystemSpec(
        layout=PartitionLayout(q=1, p=1), f1=Formula("lambda state, t: (state[1],)"),
        f2=Formula("lambda state, theta, t: ((s := theta[0] * (state[0] - offset))"
                   " + wobble * sin(s),)", offset=offset, wobble=wobble),
        g1=Constant((0.0,)), g2=Constant((1.0,)), param_dim=1, box=STATE_BOX,
    )
    goal = GoalFunction(psi=Formula("lambda state, t: state[0] + state[1]"),
                        grad_state=Constant((1.0, 1.0)), d_time=Constant(0.0))
    param = Parametrization(alpha=Formula("lambda state, t: (state[0] - offset,)", offset=offset),
                            grad_state=Constant(((1.0, 0.0),)), d_time=Constant((0.0,)),
                            dim=1, growth_upper=growth[0], growth_lower=growth[1])
    return AdaptiveLoopSpec(spec=spec, goal=goal, param=param, potential=zero_potential(1, 2),
                            shaper=TargetShaper.linear(rate, psi0_bound=abs(psi0)),
                            gain=np.array([[gain]]))


def build_oscillator(sc: OscillatorScenario) -> CoupledClosedLoop:
    """Assemble the coupled oscillator pair from scenario parameters, loops x and y."""
    v, k = vars(sc), {"x": sc.k1, "y": sc.k2}
    loops = {tag: _make_loop(v[f"lambda_{tag}"], v[f"{tag}1_0"] + v[f"{tag}2_0"],
                             v[f"offset_{tag}"], v[f"gamma_{tag}"], wobble, growth)
             for tag, wobble, growth in (("x", WOBBLE_X, GROWTH_X), ("y", WOBBLE_Y, GROWTH_Y))}
    field = "lambda state, t: (k * state[0],)"  # the partner's position, scaled
    coupling = Coupling({tag: Formula(field, k=k[tag]) for tag in loops},
                        {tag: abs(k[tag]) for tag in loops})
    return CoupledClosedLoop(loops, coupling, {tag: (v[f"theta_{tag}"],) for tag in loops})


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


def certify_oscillator(sc: OscillatorScenario, n_monotonicity_samples: int = 10000,
                       tail_window: float = 5.0, tail_threshold: float = 1e-2) -> tuple:
    """`certify_closed_loop` of the built oscillator pair: (CertificateReport, Trajectory or None).

    Both loops are checked for monotonicity on the same state and parameter
    boxes, so the pass draws one sample for both; the coupling bounds take
    `coupling_offsets`.
    """
    boxes = (MONOTONICITY_STATE_BOX, MONOTONICITY_THETA_BOX)
    return certify_closed_loop(build_oscillator(sc), sc.integrator, sc.initial_state(),
                               (boxes, boxes), coupling_offsets(sc), n_monotonicity_samples,
                               tail_window, tail_threshold)


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
    """Read a scenario file; malformed, [DEFAULT] or unknown sections or keys are rejected."""
    # values are read literally, and no section is the default one ("[]" is no header)
    cp = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        if not cp.read(path):
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
    except (configparser.Error, ValueError) as err:
        raise ValueError(f"scenario file {path}: {err}") from None
