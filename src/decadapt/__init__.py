"""Decentralized adaptive control of interconnected nonlinear systems.

Synthesis of certainty-equivalent controllers with proportional-integral
parameter adaptation, fixed-step simulation of coupled closed loops, and
numerical certification of the assumptions and runtime bounds the design
relies on.
"""

from .model import (
    Constant,
    DomainBox,
    Formula,
    GainDescriptor,
    GoalFunction,
    Parametrization,
    PartitionLayout,
    SubsystemSpec,
    TargetShaper,
    goal_drift,
    input_gain,
)
from .controller import ControlSingularityError, control
from .adaptation import (
    AdaptiveLoopSpec,
    AuxiliaryPotential,
    build_potential_single_coordinate,
    check_poincare,
    integral_state_rate,
    parameter_estimate,
    zero_potential,
)
from .interconnect import Coupling, CoupledClosedLoop
from .simulate import (
    Disturbance,
    IntegratorConfig,
    LoopTrajectory,
    Trajectory,
    integrate,
    integrate_loop,
    integrate_virtual,
    write_trajectory_csv,
)
from .certify import (
    CertificateEntry,
    CertificateReport,
    SmallGainProblem,
    certify_closed_loop,
    check_small_gain,
    monitor_loop_bounds,
    monitor_tail_convergence,
    monotonicity_sample,
    small_gain_problem,
    verify_coupling_bound,
    verify_monotonicity,
)
from .scenario import (
    OscillatorScenario,
    build_oscillator,
    certify_oscillator,
    load_scenario,
    save_scenario,
)

__version__ = "0.1.0"
