"""Certainty-equivalent main-loop control law at one point.

The control input cancels the estimated drift of the goal function and
installs the target dynamics; by construction it reads only this
subsystem's state, so decentralization is structural.  The law divides by
the input gain of the goal function, which the surrounding theory assumes
invertible everywhere; where its magnitude falls below the fixed floor
SINGULARITY_FLOOR the controller aborts with a diagnostic instead of
regularizing, because a silently modified input would invalidate every
runtime certificate downstream.
"""

from __future__ import annotations

from .model import GoalFunction, SubsystemSpec, TargetShaper, goal_drift, input_gain

# Smallest admissible |input gain| of the goal function; below it the law is undefined.
SINGULARITY_FLOOR = 1e-9


class ControlSingularityError(RuntimeError):
    """The goal function's input gain dropped below the admissible floor."""

    def __init__(self, state, t: float, value: float, subsystem: str = ""):
        tag = f" in subsystem {subsystem!r}" if subsystem else ""
        super().__init__(
            f"control law undefined{tag}: |input gain| = {abs(value):.3e} at t = {t} "
            f"for state {list(state)}"
        )
        self.state = tuple(state)
        self.t = t
        self.value = value
        self.subsystem = subsystem


def control(
    spec: SubsystemSpec,
    goal: GoalFunction,
    shaper: TargetShaper,
    state,
    theta_hat,
    t: float,
) -> float:
    """Certainty-equivalent control input at one point.

    u = (input gain)^-1 * ( -drift at theta_hat - phi(psi, t) - dpsi/dt ),
    so that with a perfect estimate the closed-loop goal error follows the
    target dynamics exactly.

    Raises ControlSingularityError when |input gain| < SINGULARITY_FLOOR.
    """
    gain = input_gain(spec, goal, state, t)
    if abs(gain) < SINGULARITY_FLOOR:
        raise ControlSingularityError(state, t, gain)
    drift = goal_drift(spec, goal, state, theta_hat, t)
    psi = goal.psi(state, t)
    return (-drift - shaper.phi(psi, t) - goal.d_time(state, t)) / gain

