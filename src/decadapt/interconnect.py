"""Two adaptive loops and their coupling: the system `simulate.integrate` runs.

Decentralization is structural: each controller and adaptation law receives
only its own subsystem's state and integral estimate, while the coupling
fields feed the partner's state into the second block of each subsystem's
dynamics.  The true parameter vectors live here, in the simulation harness,
and are passed only to the plant fields, never to the controllers.

Disturbance channels are named by the goal-error equation they enter
(`traj.loops["x"].eps` of a coupled run perturbs the x loop's goal error),
not by which subsystem generates them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .adaptation import AdaptiveLoopSpec
from .model import Constant, _require_finite


@dataclass(frozen=True, eq=False)
class Coupling:
    """Interconnection fields, entering second state blocks only.

    into_x2(y, t) returns the additive contribution (length p_x) to the
    second block of the x subsystem; into_y2(x, t) likewise for y.  The
    first blocks receive no coupling by construction; full-length fields
    are produced by zero-padding.

    beta_into_x / beta_into_y are the declared growth bounds of the
    corresponding disturbance channels relative to the partner loop's goal
    error (the loop whose state generates the channel), used by the
    coupling-bound verifier and the small-gain evaluator.
    """

    into_x2: Callable
    into_y2: Callable
    beta_into_x: float = 0.0
    beta_into_y: float = 0.0

    def __post_init__(self):
        _require_finite(beta_into_x=self.beta_into_x, beta_into_y=self.beta_into_y)
        if self.beta_into_x < 0 or self.beta_into_y < 0:
            raise ValueError("declared coupling growth bounds must be >= 0")


def zero_coupling(p_x: int, p_y: int) -> Coupling:
    return Coupling(into_x2=Constant((0.0,) * p_x), into_y2=Constant((0.0,) * p_y))


@dataclass(frozen=True, eq=False)
class CoupledClosedLoop:
    """Two adaptive loops, their coupling, and the simulation ground truth.

    theta_true_x / theta_true_y parameterize the plants during simulation;
    the controllers see only their estimates.
    """

    loop_x: AdaptiveLoopSpec
    loop_y: AdaptiveLoopSpec
    coupling: Coupling
    theta_true_x: tuple
    theta_true_y: tuple

    def __post_init__(self):
        object.__setattr__(self, "theta_true_x", tuple(float(v) for v in self.theta_true_x))
        object.__setattr__(self, "theta_true_y", tuple(float(v) for v in self.theta_true_y))
        if len(self.theta_true_x) != self.loop_x.spec.param_dim:
            raise ValueError("theta_true_x has wrong length")
        if len(self.theta_true_y) != self.loop_y.spec.param_dim:
            raise ValueError("theta_true_y has wrong length")
