"""Adaptive loops and their coupling: the system `simulate.integrate` runs.

Decentralization is structural: each controller and adaptation law receives
only its own subsystem's state and integral estimate, while the coupling
fields feed the other subsystems' states into the second block of each
subsystem's dynamics.  The true parameter vectors live here, in the
simulation harness, and are passed only to the plant fields, never to the
controllers.  Loops are tagged; every mapping from tag to value runs in
loop order.

Disturbance channels are named by the goal-error equation they enter
(`traj.loops["x"].eps` of a coupled run perturbs the x loop's goal error),
not by which subsystem generates them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Constant, _require_finite


@dataclass(frozen=True, eq=False)
class Coupling:
    """Interconnection fields, entering second state blocks only.

    into[tag](*others, t) returns the additive contribution (length p) to
    the second block of loop `tag`, others the other loops' states in loop
    order: (partner_state, t) for two loops.  beta[tag] is the declared
    growth bound of that channel relative to the partner loop's goal error
    (0 by default), which the two-loop coupling-bound verifier and
    small-gain evaluator read.
    """

    into: dict
    beta: dict | None = None

    def __post_init__(self):
        beta = dict.fromkeys(self.into, 0.0) if self.beta is None else self.beta
        object.__setattr__(self, "into", dict(self.into))
        object.__setattr__(self, "beta", {tag: float(b) for tag, b in beta.items()})
        if list(self.beta) != list(self.into):
            raise ValueError("beta must name the loops of into, in order")
        _require_finite(**{f"beta[{tag!r}]": b for tag, b in self.beta.items()})
        if any(b < 0 for b in self.beta.values()):
            raise ValueError("declared coupling growth bounds must be >= 0")


def zero_coupling(loops: dict) -> Coupling:
    """The coupling that feeds nothing into any of `loops` (tag -> AdaptiveLoopSpec)."""
    return Coupling({tag: Constant((0.0,) * loop.spec.layout.p) for tag, loop in loops.items()})


@dataclass(frozen=True, eq=False)
class CoupledClosedLoop:
    """Two or more tagged adaptive loops, their coupling, and the simulation ground truth.

    theta_true[tag] parameterizes loop `tag`'s plant during simulation; the
    controllers see only their estimates.
    """

    loops: dict
    coupling: Coupling
    theta_true: dict

    def __post_init__(self):
        object.__setattr__(self, "loops", dict(self.loops))
        object.__setattr__(self, "theta_true", {tag: tuple(map(float, theta))
                                                for tag, theta in self.theta_true.items()})
        tags = list(self.loops)
        if len(tags) < 2 or not tags == list(self.theta_true) == list(self.coupling.into):
            raise ValueError("a coupled closed loop takes two or more loops, and theta_true and "
                             f"the coupling name them in order, got {tags}")
        for tag, loop in self.loops.items():
            if len(self.theta_true[tag]) != loop.spec.param_dim:
                raise ValueError(f"theta_true[{tag!r}] has wrong length")
            _require_finite(**{f"theta_true[{tag!r}][{i}]": v
                               for i, v in enumerate(self.theta_true[tag])})

    # Read-only two-loop names kept for perfbench/workloads.py and perfbench/baseline.py, which
    # stay unchanged so that benchmark runs across this refactor compare like with like.
    loop_x = property(lambda self: self.loops["x"])
    loop_y = property(lambda self: self.loops["y"])
    theta_true_x = property(lambda self: self.theta_true["x"])
    theta_true_y = property(lambda self: self.theta_true["y"])
