"""Numerical certification: assumption checks and runtime bound monitors.

Nothing here is a proof.  Sampling-based checks certify declared properties
on declared domain boxes; trajectory monitors assert the closed-loop bounds
the adaptation theory guarantees, along one logged trajectory, with
explicit tolerances; the small-gain evaluator checks the interconnection
contraction condition exactly in the linear-gain case and on a scanned
range otherwise.  Violations are failing report entries, never exceptions.
`certify_closed_loop` runs them all on a built `CoupledClosedLoop`, reading
each loop's drift channel, the small-gain data and the coupling bounds from
the system itself; its callers supply only what the system does not hold.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .adaptation import (POINCARE_POINTS, REALIZABILITY_TOL, AdaptiveLoopSpec, check_poincare,
                         realizability_residual)
from .interconnect import CoupledClosedLoop
from .model import (
    DEFAULT_SAMPLE_SEED,
    GRAD_REL_TOL,
    DimensionMismatchError,
    DomainBox,
    GainRangeError,
    NonFiniteValueError,
    Parametrization,
    _dot,
    _evaluate_samples,
    goal_drift,
    joint_sample,
)
from .report import (
    INCONCLUSIVE,
    CertificateEntry,
    CertificateReport,
    entry_from_margin,
)
from .simulate import STATUS_COMPLETED, IntegratorConfig, LoopTrajectory, Trajectory, integrate

__all__ = [
    "CertificateEntry",
    "CertificateReport",
    "SmallGainProblem",
    "certify_closed_loop",
    "check_poincare",
    "check_small_gain",
    "monitor_loop_bounds",
    "monitor_tail_convergence",
    "monotonicity_sample",
    "realizability_residual",
    "small_gain_problem",
    "verify_coupling_bound",
    "verify_monotonicity",
]

SIGN_CONDITION_TOL = 1e-10
RATIO_FLOOR = 1e-9
GROWTH_REL_SLACK = 1e-6
MONITOR_TOL = 1e-6
STEP_MONOTONE_TOL = 1e-8
SCAN_LOWER = 1e-6
SCAN_UPPER = 1e3
SCAN_POINTS = 64
PROBE_DELTA = 1e-6
LOOP_MONITOR_TOL = 1e-4  # tolerance of the adaptation-bound monitors in the certify pass


def _first_below(values: np.ndarray, bound: float):
    """Index of the first smallest non-NaN value if it is below bound, else None."""
    if values.size:
        values = np.where(np.isnan(values), math.inf, values)
        i = int(np.argmin(values))
        if values[i] < bound:
            return i
    return None


def _extreme_rows(values: np.ndarray) -> tuple:
    """((worst sign product row, largest, smallest ratio rows, non-finite row, ratio count), rows).

    `values` holds the f and alpha^T differences of every sample.  Each row
    is the first occurrence of its extreme (the non-finite row: of a NaN or
    infinite difference), and None when no sample beats the start value
    (inf, 0, inf) of a strict comparison walk over the samples or none is
    non-finite; `rows` lists the rows that are not None.
    """
    df, s = values
    prod = df * s
    rows = np.flatnonzero(np.abs(s) > RATIO_FLOOR)
    ratio = np.abs(df[rows]) / np.abs(s[rows])
    up, lo = _first_below(-ratio, 0.0), _first_below(ratio, math.inf)
    bad = np.flatnonzero(~(np.isfinite(df) & np.isfinite(s)))[:1]
    found = (_first_below(prod, math.inf), None if up is None else int(rows[up]),
             None if lo is None else int(rows[lo]), int(bad[0]) if bad.size else None)
    return (*found, int(rows.size)), [i for i in found if i is not None]


def monotonicity_sample(state_box: DomainBox, theta_box: DomainBox, n_samples: int,
                        seed: int = DEFAULT_SAMPLE_SEED) -> list:
    """The joint draw (states, thetas, thetas_alt) `verify_monotonicity` checks, times all 0."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    return [*joint_sample([state_box, theta_box, theta_box], n_samples, seed=seed),
            np.zeros((n_samples, 1))]


def verify_monotonicity(param: Parametrization, f: Callable, samples: list) -> CertificateEntry:
    """Sample the sign condition and estimate the growth-rate constants.

    f(state, theta, t) is the scalar drift channel of the goal function, and
    samples the joint draw (states, thetas, thetas_alt, times) of
    `monotonicity_sample`.  For each sampled tuple the check requires
    (f(theta_alt) - f(theta)) * alpha^T (theta_alt - theta) >= -1e-10, and
    estimates the extreme ratios |f difference| / |alpha^T difference| over
    samples whose denominator exceeds 1e-9.  Because samples for a larger
    count extend those for a smaller one, the upper estimate can only grow
    and the lower only shrink with the sample count.

    Passes when the sign condition holds everywhere and the estimates stay
    within the parametrization's declared growth constants up to relative
    slack 1e-6; the witness then records the estimates (d_hat, d1_hat) and
    the number of ratio samples.  A NaN or infinite f or alpha^T difference
    fails, margin -inf, at its first sample, the witness; f raising
    NonFiniteValueError (as `model.goal_drift` does) counts as NaN.  Returns
    an inconclusive entry when no sample clears the denominator floor.
    Raises DimensionMismatchError when alpha's length differs from theta's.

    f and param.alpha are first called once on the sample columns (state
    and theta as tuples of 1-D arrays, t a 1-D array), and on plain floats
    per sample when that fails or differs bit for bit at the first sample or
    a reported extreme, as every sampled check in `decadapt.model` does.
    """
    states, thetas, thetas_alt, times = samples
    n_alpha = len(param.alpha(states[0].tolist(), float(times[0, 0])))
    if n_alpha != thetas.shape[1]:  # _dot below would silently truncate
        raise DimensionMismatchError("alpha", thetas.shape[1], n_alpha)

    def drift(state, theta, t):
        try:
            return f(state, theta, t)
        except NonFiniteValueError:
            return math.nan

    def terms(state, theta, theta_alt, diff, t):
        df = drift(state, theta_alt, t) - drift(state, theta, t)
        return df, _dot(param.alpha(state, t), diff)

    (df, s), (i_sign, i_up, i_lo, i_bad, n_ratio) = _evaluate_samples(
        terms, (states, thetas, thetas_alt, thetas_alt - thetas, times[:, 0]), _extreme_rows)

    def sample(i, **values):
        return {"state": states[i].tolist(), "theta": thetas[i].tolist(),
                "theta_alt": thetas_alt[i].tolist(), "t": float(times[i, 0]), **values}

    if i_bad is not None:
        witness = sample(i_bad, drift_difference=float(df[i_bad]),
                         alpha_difference=float(s[i_bad]))
        return entry_from_margin("monotonicity-growth", -math.inf, witness, SIGN_CONDITION_TOL)
    if n_ratio == 0:
        return CertificateEntry(
            name="monotonicity-growth",
            status=INCONCLUSIVE,
            margin=0.0,
            witness={"reason": "all sampled alpha^T differences below floor",
                     "floor": RATIO_FLOOR},
            tolerance=SIGN_CONDITION_TOL,
        )

    def ratio_witness(i):
        ratio = abs(float(df[i])) / abs(float(s[i]))
        return ratio, {"state": states[i].tolist(), "ratio": ratio}

    worst_sign, worst_sign_witness = math.inf, {}
    if i_sign is not None:
        worst_sign = float(df[i_sign]) * float(s[i_sign])
        worst_sign_witness = sample(i_sign, product=worst_sign)
    d_hat, d_hat_witness = (0.0, {}) if i_up is None else ratio_witness(i_up)
    d1_hat, d1_hat_witness = (math.inf, {}) if i_lo is None else ratio_witness(i_lo)

    slack_sign = worst_sign + SIGN_CONDITION_TOL
    slack_upper = param.growth_upper * (1.0 + GROWTH_REL_SLACK) - d_hat
    slack_lower = d1_hat - param.growth_lower * (1.0 - GROWTH_REL_SLACK)
    margin = min(slack_sign, slack_upper, slack_lower)
    if margin == slack_sign:
        witness = worst_sign_witness
    elif margin == slack_upper:
        witness = d_hat_witness
    else:
        witness = d1_hat_witness
    witness = dict(witness)
    witness.update({"d_hat": d_hat, "d1_hat": d1_hat, "n_ratio_samples": n_ratio})
    return entry_from_margin("monotonicity-growth", margin, witness, SIGN_CONDITION_TOL)


def _running_bound(name: str, t, value, bound, tol: float, sides: bool = False,
                   **witness) -> CertificateEntry:
    """Entry of the running bound value <= bound at every logged T, within tol.

    The margin is the minimum over T of (bound + tol) - value; the witness
    is T at its first argmin plus the caller's `witness` keys, and with
    `sides` also value (lhs) and bound + tol (rhs) there.
    """
    rhs = bound + tol
    slack = rhs - value
    i = int(np.argmin(slack))
    if sides:
        witness.update(lhs=float(value[i]), rhs=float(rhs[i]))
    return entry_from_margin(name, float(slack[i]), {"t": float(t[i]), **witness}, tol)


def monitor_loop_bounds(
    traj: LoopTrajectory,
    loop: AdaptiveLoopSpec,
    theta_true,
    tol: float = MONITOR_TOL,
) -> list:
    """Check the closed-loop adaptation bounds along one logged trajectory.

    At every logged time T, with eps the recorded disturbance channel and
    norms weighted by the inverse adaptation gain:

    - mismatch-energy-bound: the running L2 norm of the drift mismatch is
      at most sqrt(D/2 * initial weighted parameter error squared)
      + (D/D1) * running L2 norm of eps, within tol;
    - parameter-error-bound: the weighted squared parameter error at T is
      at most its initial value + D/(2 D1^2) * (running L2 norm of eps)^2,
      within tol;
    - parameter-error-monotone (only when eps vanishes identically): half
      the weighted squared parameter error never grows by more than
      STEP_MONOTONE_TOL per logged step.

    Reported margins are tolerance-adjusted slacks (minimum over T).
    """
    d_up = loop.param.growth_upper
    d_lo = loop.param.growth_lower
    weight = loop.gain_inverse
    theta_true = np.asarray(theta_true, dtype=float)

    err0 = theta_true - traj.theta_hat[0]
    base = float(err0 @ weight @ err0)
    errs = theta_true[None, :] - traj.theta_hat
    sq = np.einsum("ki,ij,kj->k", errs, weight, errs)
    entries = [
        _running_bound("mismatch-energy-bound", traj.t, traj.l2_mismatch,
                       np.sqrt(0.5 * d_up * base) + (d_up / d_lo) * traj.l2_eps, tol, sides=True),
        _running_bound("parameter-error-bound", traj.t, sq,
                       base + 0.5 * d_up / (d_lo * d_lo) * traj.l2_eps**2, tol, sides=True),
    ]
    if np.all(traj.eps == 0.0):
        v = 0.5 * sq
        dv = np.diff(v)
        if dv.size:
            i_c = int(np.argmax(dv))
            worst = float(dv[i_c])
            witness = {"t": float(traj.t[i_c + 1]), "increase": worst}
        else:
            worst = 0.0
            witness = {"note": "single sample"}
        entries.append(
            entry_from_margin("parameter-error-monotone", STEP_MONOTONE_TOL - worst, witness,
                              STEP_MONOTONE_TOL)
        )
    return entries


@dataclass(frozen=True, eq=False)
class SmallGainProblem:
    """Data of the interconnection contraction condition of two loops.

    Each field holds one value per loop, in loop order, for two loops (any
    other count is a ValueError): gains the declared energy-to-energy gains
    of the target dynamics, betas the declared growth bounds of the coupling
    channels into the loops, ratios the declared growth-constant ratios
    (upper over lower, hence >= 1), all finite.  For non-linear gains the
    condition is scanned over SCAN_POINTS logarithmically spaced amplitudes in
    [SCAN_LOWER, SCAN_UPPER] with the linear probe (1 + PROBE_DELTA) *
    identity on each of the loop's three junctions.  Every gain is
    non-decreasing, so the composed map is non-decreasing in each probe's
    delta: a larger delta on any junction only lowers the slack, and it
    queries each gain at least as far out, so it leaves a table whenever
    this probe does.  A small delta therefore decides the scan alone.
    """

    gains: tuple
    betas: tuple
    ratios: tuple

    def __post_init__(self):
        if not len(self.gains) == len(self.betas) == len(self.ratios) == 2:
            raise ValueError(f"the small-gain check takes two loops, got {len(self.gains)}")
        if not all(0 <= b < math.inf for b in self.betas):
            raise ValueError("coupling bounds must be finite and >= 0")
        if not all(1 <= r < math.inf for r in self.ratios):
            raise ValueError("growth ratios must be finite and >= 1")


def check_small_gain(prob: SmallGainProblem) -> CertificateEntry:
    """Evaluate the small-gain condition of the coupled adaptive loops.

    Linear case (both gains linear): the loop product
    beta_1 * slope_1 * beta_2 * slope_2 * (ratio_1 + 1) * (ratio_2 + 1)
    must be strictly below one; evaluated exactly, independent of
    amplitude, with margin one minus the product.  Gain offsets do not
    enter: they only shift the bounded constants, not the contraction
    slope.

    General case: the composed amplitude map is scanned over a logarithmic
    amplitude grid with the probe (1 + PROBE_DELTA) * identity on all three
    junctions, which has the best slack of any probe (see
    SmallGainProblem); the pass verdict then certifies the scanned range
    only, as recorded in the witness.  A tabulated gain that does not cover
    the scan range yields an inconclusive entry whose reason names the
    probe's query beyond the table.
    """
    (gain_1, gain_2), (beta_1, beta_2), (ratio_1, ratio_2) = prob.gains, prob.betas, prob.ratios
    if gain_1.is_linear and gain_2.is_linear:
        product = (
            (beta_1 * gain_1.slope)
            * (beta_2 * gain_2.slope)
            * (ratio_1 + 1.0)
            * (ratio_2 + 1.0)
        )
        margin = 1.0 - product
        return entry_from_margin(
            "small-gain",
            margin,
            {"regime": "linear", "loop_product": product},
            0.0,
            strict=True,
        )

    deltas = np.geomspace(SCAN_LOWER, SCAN_UPPER, SCAN_POINTS)
    grow = 1.0 + PROBE_DELTA

    def composed(delta):
        s = gain_1.evaluate(grow * ((ratio_1 + 1.0) * delta))
        s = grow * ((ratio_2 + 1.0) * (grow * (beta_1 * s)))
        return beta_2 * gain_2.evaluate(s)

    try:
        with np.errstate(over="ignore"):  # a slack that overflows is -inf: the entry fails
            slack = min((delta - composed(delta)) / delta for delta in deltas)
    except GainRangeError as err:
        return CertificateEntry(name="small-gain", status=INCONCLUSIVE, margin=0.0,
                                witness={"regime": "scanned", "reason": str(err)}, tolerance=0.0)
    witness = {
        "regime": "scanned",
        "scan_range": [float(deltas[0]), float(deltas[-1])],
        "probe": [PROBE_DELTA] * 3,
        "note": "pass certifies the scanned amplitude range only",
    }
    return entry_from_margin("small-gain", float(slack), witness, 0.0, strict=True)


def verify_coupling_bound(
    traj: Trajectory,
    channel: str,
    beta: float,
    offset: float = 0.0,
) -> CertificateEntry:
    """Check a declared coupling growth bound along a two-loop trajectory.

    channel is "into_<tag>" ("into_x" or "into_y"), naming the goal-error
    equation the disturbance enters; the comparison signal is the goal error
    of the loop that generates the channel (the partner).  The running norms
    must satisfy |h| <= beta |psi_partner| + offset + MONITOR_TOL at every
    logged horizon.  Couplings that depend on partner state rather than on
    its goal error need a nonzero offset, finite and >= 0 as beta is.
    """
    channels = [f"into_{tag}" for tag in traj.loops]
    if len(channels) != 2:
        raise ValueError(f"the coupling-bound monitor takes two loops, got {len(channels)}")
    if channel not in channels:
        raise ValueError(f"channel must be {' or '.join(map(repr, channels))}")
    _check_coupling_bound(beta=beta, offset=offset)
    into, src = list(traj.loops.values())[::1 if channel == channels[0] else -1]
    return _running_bound(f"coupling-bound-l2-{channel}", traj.t, into.l2_eps,
                          beta * src.l2_psi + offset, MONITOR_TOL, beta=beta, offset=offset)


def _check_coupling_bound(**values) -> None:  # a beta or offset must be finite and >= 0
    for name, value in values.items():
        if not 0 <= value < math.inf:
            raise ValueError(f"coupling bound {name} must be finite and >= 0, got {value!r}")


def _check_tail_arguments(window: float, threshold: float) -> None:
    """Reject a tail window or threshold that cannot be honoured, naming it."""
    if not window >= 0:
        raise ValueError(f"tail window must be >= 0, got {window!r}")
    if math.isnan(threshold):
        raise ValueError(f"tail threshold must not be NaN, got {threshold!r}")


def monitor_tail_convergence(traj: Trajectory, window: float, threshold: float) -> list:
    """Report tail suprema of goal errors and drift mismatches of a coupled run.

    Two entries per loop, each a bound `threshold` on one signal's supremum
    over the trailing `window` time units.  The trajectory must have completed;
    asymptotic convergence is attested only as these finite-horizon tail
    bounds.
    """
    _check_tail_arguments(window, threshold)
    if traj.status != STATUS_COMPLETED:
        raise ValueError(f"convergence monitor needs a completed trajectory, got {traj.status!r}")
    t = traj.t
    cutoff = t[-1] - window
    mask = t >= cutoff
    entries = []
    for signal in ("psi", "mismatch"):
        for tag, rec in traj.loops.items():
            sup = float(np.max(np.abs(getattr(rec, signal)[mask])))
            entries.append(entry_from_margin(
                f"tail-{signal}-{tag}", threshold - sup,
                {"tail_sup": sup, "window": window, "from_t": float(cutoff)}, 0.0,
            ))
    return entries


def small_gain_problem(sys: CoupledClosedLoop) -> SmallGainProblem:
    """Small-gain data of a built two-loop system, read from its loops and coupling.

    The gains are the loops' shapers' energy-to-energy gains, the coupling
    bounds the coupling's declared `beta` of each loop, and the ratios each
    parametrization's growth_upper / growth_lower.
    """
    loops = sys.loops.values()
    return SmallGainProblem(tuple(loop.shaper.gain_l2_from_l2 for loop in loops),
                            tuple(sys.coupling.beta.values()),
                            tuple(loop.param.growth_upper / loop.param.growth_lower
                                  for loop in loops))


def _renamed(entry: CertificateEntry, suffix: str) -> CertificateEntry:
    return replace(entry, name=f"{entry.name}-{suffix}")


def certify_closed_loop(sys: CoupledClosedLoop, integrator: IntegratorConfig, aug0, boxes: tuple,
                        offsets: tuple, n_monotonicity_samples: int = 10000,
                        tail_window: float = 5.0, tail_threshold: float = 1e-2) -> tuple:
    """Full certification pass of a built system: assumption checks, small gain, monitors.

    Per loop, in loop order: the gradient errors and realizability residual
    found when the loop was built, the Poincare symmetry at t = 0 on
    POINCARE_POINTS states drawn from the loop's spec box, and the
    monotonicity of the loop's own drift channel, `model.goal_drift` of its
    spec and goal, on its (state box, theta box) pair of `boxes`; one
    sample is drawn per distinct pair.  Then the small-gain condition of
    `small_gain_problem(sys)`, and along the trajectory integrated from
    aug0 the loop bounds, the coupling bounds (the coupling's declared
    betas, with `offsets` the offset into each loop, in loop order) and the
    tail convergence.  The system must have two loops.

    Returns (CertificateReport, Trajectory or None).  The trajectory is None
    when the simulation aborted; the report then carries a failing
    simulation-status entry instead of the runtime monitors, so the tail
    arguments, the offsets (each finite and >= 0) and the loop count are
    checked first.
    """
    _check_tail_arguments(tail_window, tail_threshold)
    small_gain = small_gain_problem(sys)
    _check_coupling_bound(**{f"offset into {tag!r}": v
                             for tag, v in zip(sys.loops, offsets, strict=True)})
    report = CertificateReport()

    for tag, loop in sys.loops.items():
        for name, worst in (("gradient-goal", loop.goal_grad_error),
                            ("gradient-parametrization", loop.alpha_grad_error)):
            report.add(entry_from_margin(f"{name}-{tag}", GRAD_REL_TOL - worst,
                                         {"worst_rel_error": worst}, GRAD_REL_TOL))
        res = loop.realizability_residual
        report.add(entry_from_margin(f"realizability-{tag}", REALIZABILITY_TOL - res,
                                     {"residual": res}, REALIZABILITY_TOL))
        states = loop.spec.box.sample(POINCARE_POINTS)
        report.add(_renamed(check_poincare(loop.goal, loop.param, loop.spec.layout, states,
                                           np.zeros(POINCARE_POINTS)), tag))

    draws = {}
    for (tag, loop), (state_box, theta_box) in zip(sys.loops.items(), boxes, strict=True):
        key = tuple((b.lower, b.upper) for b in (state_box, theta_box))
        if key not in draws:  # loops on the same boxes share one draw
            draws[key] = monotonicity_sample(state_box, theta_box, n_monotonicity_samples)
        drift = functools.partial(goal_drift, loop.spec, loop.goal)
        report.add(_renamed(verify_monotonicity(loop.param, drift, draws[key]), tag))

    report.add(check_small_gain(small_gain))

    traj = integrate(sys, integrator, aug0)
    if traj.status != STATUS_COMPLETED:
        report.add(CertificateEntry(name="simulation-status", status="fail", margin=-1.0,
                                    witness={"status": traj.status, "last_t": traj.t_end}))
        return report, None

    for tag, loop in sys.loops.items():
        for entry in monitor_loop_bounds(traj.loops[tag], loop, sys.theta_true[tag],
                                         tol=LOOP_MONITOR_TOL):
            report.add(_renamed(entry, tag))
    for (tag, beta), offset in zip(sys.coupling.beta.items(), offsets):
        report.add(verify_coupling_bound(traj, f"into_{tag}", beta, offset=offset))
    report.extend(monitor_tail_convergence(traj, tail_window, tail_threshold))
    return report, traj
