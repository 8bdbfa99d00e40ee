"""Numerical certification: assumption checks and runtime bound monitors.

Nothing here is a proof.  Sampling-based checks certify declared properties
on declared domain boxes; trajectory monitors assert the closed-loop bounds
the adaptation theory guarantees, along one logged trajectory, with
explicit tolerances; the small-gain evaluator checks the interconnection
contraction condition exactly in the linear-gain case and on a scanned
range otherwise.  Violations are failing report entries, never exceptions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .adaptation import AdaptiveLoopSpec, check_poincare, realizability_residual
from .model import (
    DEFAULT_SAMPLE_SEED,
    DimensionMismatchError,
    DomainBox,
    GainDescriptor,
    GainRangeError,
    Parametrization,
    _dot,
    joint_sample,
)
from .report import (
    INCONCLUSIVE,
    CertificateEntry,
    CertificateReport,
    entry_from_margin,
)
from .simulate import STATUS_COMPLETED, LoopTrajectory, Trajectory

__all__ = [
    "CertificateEntry",
    "CertificateReport",
    "MonotonicityCertificate",
    "SmallGainProblem",
    "check_poincare",
    "check_small_gain",
    "monitor_loop_bounds",
    "monitor_tail_convergence",
    "realizability_residual",
    "verify_coupling_bound",
    "verify_monotonicity",
]

SIGN_CONDITION_TOL = 1e-10
RATIO_FLOOR = 1e-9
GROWTH_REL_SLACK = 1e-6
MONITOR_TOL = 1e-6
STEP_MONOTONE_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class MonotonicityCertificate:
    """Outcome of the sampled monotonicity and growth-rate check."""

    entry: CertificateEntry
    d_hat: float
    d1_hat: float
    n_ratio_samples: int


def _column_terms(param: Parametrization, f: Callable, samples) -> tuple:
    """The f and alpha^T differences of all samples, one call per callable.

    The alpha^T sum runs over the columns left to right, as `_dot` does.
    Raises TypeError or ValueError when a callable cannot take the columns
    or a result does not broadcast to one value per sample.
    """
    states, thetas, thetas_alt, diffs, times = samples
    state = tuple(states.T)
    df = (np.asarray(f(state, tuple(thetas_alt.T), times), dtype=float)
          - np.asarray(f(state, tuple(thetas.T), times), dtype=float))
    s = 0.0
    for a, d in zip(param.alpha(state, times), diffs.T):
        s = s + np.asarray(a, dtype=float) * d
    return np.broadcast_to(df, times.shape), np.broadcast_to(s, times.shape)


def _walk_terms(param: Parametrization, f: Callable, samples) -> np.ndarray:
    """The same differences as an (n, 2) array, one plain-float call per sample."""
    *vectors, times = samples
    rows = zip(*(zip(*a.T.tolist()) for a in vectors), times.tolist())
    return np.array([
        (float(f(state, th_alt, t)) - float(f(state, th, t)), _dot(param.alpha(state, t), diff))
        for state, th, th_alt, diff, t in rows
    ])


def _first_below(values: np.ndarray, bound: float):
    """Index of the first smallest non-NaN value if it is below bound, else None."""
    if values.size:
        values = np.where(np.isnan(values), math.inf, values)
        i = int(np.argmin(values))
        if values[i] < bound:
            return i
    return None


def _extreme_rows(df: np.ndarray, s: np.ndarray) -> tuple:
    """(worst sign product row, largest ratio row, smallest ratio row, ratio count).

    Each row is the first occurrence of its extreme, never a NaN, and None
    when no sample beats the start value (inf, 0, inf) of a strict
    comparison walk over the samples.
    """
    with np.errstate(all="ignore"):  # as plain floats: inf * 0 and overflow are silent
        prod = df * s
        rows = np.flatnonzero(np.abs(s) > RATIO_FLOOR)
        ratio = np.abs(df[rows]) / np.abs(s[rows])
    up, lo = _first_below(-ratio, 0.0), _first_below(ratio, math.inf)
    return (_first_below(prod, math.inf), None if up is None else int(rows[up]),
            None if lo is None else int(rows[lo]), int(rows.size))


def _monotonicity_terms(param: Parametrization, f: Callable, samples) -> tuple:
    """Per-sample differences (df, s) and their `_extreme_rows`.

    The column call serves when it matches the plain-float call bit for bit
    at row 0 and at every extreme row; otherwise the samples are walked.
    """
    try:
        df, s = _column_terms(param, f, samples)
    except (TypeError, ValueError):
        pass
    else:
        rows = _extreme_rows(df, s)
        checked = [0, *(i for i in rows[:3] if i is not None)]
        got = np.stack((df[checked], s[checked]), axis=1)
        want = _walk_terms(param, f, [a[checked] for a in samples])
        if np.array_equal(got.view(np.int64), want.view(np.int64)):
            return df, s, rows
    df, s = _walk_terms(param, f, samples).T
    return df, s, _extreme_rows(df, s)


def verify_monotonicity(
    param: Parametrization,
    f: Callable,
    state_box: DomainBox,
    theta_box: DomainBox,
    n_samples: int = 1000,
    declared_upper: Optional[float] = None,
    declared_lower: Optional[float] = None,
    seed: int = DEFAULT_SAMPLE_SEED,
    time_range: tuple = (0.0, 0.0),
) -> MonotonicityCertificate:
    """Sample the sign condition and estimate the growth-rate constants.

    f(state, theta, t) is the scalar drift channel of the goal function.
    For quasi-random tuples (state, theta, theta_alt, t) the check requires
    (f(theta_alt) - f(theta)) * alpha^T (theta_alt - theta) >= -1e-10, and
    estimates the extreme ratios |f difference| / |alpha^T difference| over
    samples whose denominator exceeds 1e-9.  Because samples for a larger
    count extend those for a smaller one, the upper estimate can only grow
    and the lower only shrink with n_samples.

    Passes when the sign condition holds everywhere and the estimates stay
    within the declared constants (default: the parametrization's) up to
    relative slack 1e-6.  Returns an inconclusive entry when no sample
    clears the denominator floor.  Raises ValueError when n_samples < 1 and
    DimensionMismatchError when alpha's length differs from theta_box's.

    f and param.alpha are first called once on the sample columns: state
    and theta as tuples of 1-D float arrays, one per coordinate, and t as a
    1-D array; each result must broadcast to one value per sample.  When a
    callable cannot take arrays (the call raises TypeError or ValueError),
    or its column results differ bit for bit from a plain-float call at the
    first sample or at a reported extreme, the samples are walked one by
    one instead, with the vectors as tuples of plain floats and t as a
    float.  Both paths give the same certificate.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    d_declared = param.growth_upper if declared_upper is None else declared_upper
    d1_declared = param.growth_lower if declared_lower is None else declared_lower
    time_box = DomainBox((time_range[0],), (time_range[1],))
    states, thetas, thetas_alt, times = joint_sample(
        [state_box, theta_box, theta_box, time_box], n_samples, seed=seed
    )
    n_alpha = len(param.alpha(states[0].tolist(), float(times[0, 0])))
    if n_alpha != theta_box.dim:  # _dot below would silently truncate
        raise DimensionMismatchError("alpha", theta_box.dim, n_alpha)
    samples = (states, thetas, thetas_alt, thetas_alt - thetas, times[:, 0])
    df, s, (i_sign, i_up, i_lo, n_ratio) = _monotonicity_terms(param, f, samples)

    if n_ratio == 0:
        entry = CertificateEntry(
            name="monotonicity-growth",
            status=INCONCLUSIVE,
            margin=0.0,
            witness={"reason": "all sampled alpha^T differences below floor",
                     "floor": RATIO_FLOOR},
            tolerance=SIGN_CONDITION_TOL,
        )
        return MonotonicityCertificate(entry, float("nan"), float("nan"), 0)

    def ratio_witness(i):
        ratio = abs(float(df[i])) / abs(float(s[i]))
        return ratio, {"state": states[i].tolist(), "ratio": ratio}

    worst_sign, worst_sign_witness = math.inf, {}
    if i_sign is not None:
        worst_sign = float(df[i_sign]) * float(s[i_sign])
        worst_sign_witness = {
            "state": states[i_sign].tolist(), "theta": thetas[i_sign].tolist(),
            "theta_alt": thetas_alt[i_sign].tolist(), "t": float(times[i_sign, 0]),
            "product": worst_sign,
        }
    d_hat, d_hat_witness = (0.0, {}) if i_up is None else ratio_witness(i_up)
    d1_hat, d1_hat_witness = (math.inf, {}) if i_lo is None else ratio_witness(i_lo)

    slack_sign = worst_sign + SIGN_CONDITION_TOL
    slack_upper = d_declared * (1.0 + GROWTH_REL_SLACK) - d_hat
    slack_lower = d1_hat - d1_declared * (1.0 - GROWTH_REL_SLACK)
    margin = min(slack_sign, slack_upper, slack_lower)
    if margin == slack_sign:
        witness = worst_sign_witness
    elif margin == slack_upper:
        witness = d_hat_witness
    else:
        witness = d1_hat_witness
    witness = dict(witness)
    witness.update({"d_hat": d_hat, "d1_hat": d1_hat, "n_ratio_samples": n_ratio})
    entry = entry_from_margin("monotonicity-growth", margin, witness, SIGN_CONDITION_TOL)
    return MonotonicityCertificate(entry, d_hat, d1_hat, n_ratio)


def _weighted_sq_norm(vec: np.ndarray, weight: np.ndarray) -> float:
    return float(vec @ weight @ vec)


def monitor_loop_bounds(
    traj: LoopTrajectory,
    loop: AdaptiveLoopSpec,
    theta_true,
    tol: float = MONITOR_TOL,
    step_tol: float = STEP_MONOTONE_TOL,
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
      step_tol per logged step.

    Reported margins are tolerance-adjusted slacks (minimum over T).
    """
    d_up = loop.param.growth_upper
    d_lo = loop.param.growth_lower
    weight = loop.gain_inverse
    theta_true = np.asarray(theta_true, dtype=float)

    err0 = theta_true - traj.theta_hat[0]
    base = _weighted_sq_norm(err0, weight)

    rhs_a = np.sqrt(0.5 * d_up * base) + (d_up / d_lo) * traj.l2_eps + tol
    slack_a = rhs_a - traj.l2_mismatch
    i_a = int(np.argmin(slack_a))
    entry_a = entry_from_margin(
        "mismatch-energy-bound",
        float(slack_a[i_a]),
        {"t": float(traj.t[i_a]), "lhs": float(traj.l2_mismatch[i_a]),
         "rhs": float(rhs_a[i_a])},
        tol,
    )

    errs = theta_true[None, :] - traj.theta_hat
    sq = np.einsum("ki,ij,kj->k", errs, weight, errs)
    rhs_b = base + 0.5 * d_up / (d_lo * d_lo) * traj.l2_eps**2 + tol
    slack_b = rhs_b - sq
    i_b = int(np.argmin(slack_b))
    entry_b = entry_from_margin(
        "parameter-error-bound",
        float(slack_b[i_b]),
        {"t": float(traj.t[i_b]), "lhs": float(sq[i_b]), "rhs": float(rhs_b[i_b])},
        tol,
    )

    entries = [entry_a, entry_b]
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
            entry_from_margin("parameter-error-monotone", step_tol - worst, witness, step_tol)
        )
    return entries


@dataclass(frozen=True, eq=False)
class SmallGainProblem:
    """Data of the interconnection contraction condition.

    gain_x22 / gain_y22 are the declared energy-to-energy gains of the two
    target dynamics; beta_x / beta_y the declared coupling growth bounds;
    ratio_x / ratio_y the declared growth-constant ratios (upper over
    lower, hence >= 1).  For non-linear gains the condition is scanned over
    amplitudes in [max(delta_bar, delta_floor), delta_max] with a finite
    family of linear probes (1 + delta) * identity, delta > 0.
    """

    gain_x22: GainDescriptor
    gain_y22: GainDescriptor
    beta_x: float
    beta_y: float
    ratio_x: float
    ratio_y: float
    probe_deltas: tuple = (1e-6, 1e-3, 1e-2, 0.1, 0.5)
    delta_max: float = 1e3
    delta_bar: float = 0.0
    delta_floor: float = 1e-6
    scan_points: int = 64

    def __post_init__(self):
        if self.beta_x < 0 or self.beta_y < 0:
            raise ValueError("coupling bounds must be >= 0")
        if self.ratio_x < 1 or self.ratio_y < 1:
            raise ValueError("growth ratios must be >= 1")
        if any(d <= 0 for d in self.probe_deltas):
            raise ValueError("probe deltas must be > 0 (probes must exceed identity)")
        if not self.delta_max > 0:
            raise ValueError("delta_max must be > 0")


def check_small_gain(prob: SmallGainProblem) -> CertificateEntry:
    """Evaluate the small-gain condition of the coupled adaptive loops.

    Linear case (both gains linear): the loop product
    beta_x * slope_x * beta_y * slope_y * (ratio_x + 1) * (ratio_y + 1)
    must be strictly below one; evaluated exactly, independent of
    amplitude, with margin one minus the product.  Gain offsets do not
    enter: they only shift the bounded constants, not the contraction
    slope.

    General case: the composed amplitude map is scanned over a logarithmic
    amplitude grid and the probe family; the pass verdict then certifies
    the scanned range only, as recorded in the witness.  A tabulated gain
    that does not cover the scan range yields an inconclusive entry.
    """
    if prob.gain_x22.is_linear and prob.gain_y22.is_linear:
        product = (
            (prob.beta_x * prob.gain_x22.slope)
            * (prob.beta_y * prob.gain_y22.slope)
            * (prob.ratio_x + 1.0)
            * (prob.ratio_y + 1.0)
        )
        margin = 1.0 - product
        return entry_from_margin(
            "small-gain",
            margin,
            {"regime": "linear", "loop_product": product},
            0.0,
            strict=True,
        )

    lo = max(prob.delta_bar, prob.delta_floor)
    if lo >= prob.delta_max:
        raise ValueError("delta_max must exceed the scan lower end")
    deltas = np.geomspace(lo, prob.delta_max, prob.scan_points)

    def composed(delta, d1, d2, d3):
        s = (prob.ratio_x + 1.0) * delta
        s = (1.0 + d2) * s
        s = prob.gain_x22.evaluate(s)
        s = prob.beta_x * s
        s = (1.0 + d3) * s
        s = (prob.ratio_y + 1.0) * s
        s = (1.0 + d1) * s
        s = prob.gain_y22.evaluate(s)
        return prob.beta_y * s

    best = -np.inf
    best_probe = None
    last_range_error = None
    for d1 in prob.probe_deltas:
        for d2 in prob.probe_deltas:
            for d3 in prob.probe_deltas:
                try:
                    slack = min(
                        (delta - composed(delta, d1, d2, d3)) / delta for delta in deltas
                    )
                except GainRangeError as err:
                    last_range_error = err  # this probe needs more table; try others
                    continue
                if slack > best:
                    best = slack
                    best_probe = (d1, d2, d3)
    if best_probe is None:
        return CertificateEntry(
            name="small-gain",
            status=INCONCLUSIVE,
            margin=0.0,
            witness={"regime": "scanned", "reason": str(last_range_error)},
            tolerance=0.0,
        )
    witness = {
        "regime": "scanned",
        "scan_range": [float(deltas[0]), float(deltas[-1])],
        "probe": list(best_probe),
        "note": "pass certifies the scanned amplitude range only",
    }
    return entry_from_margin("small-gain", float(best), witness, 0.0, strict=True)


def verify_coupling_bound(
    traj: Trajectory,
    channel: str,
    beta: float,
    mode: str = "l2",
    offset: float = 0.0,
    tol: float = MONITOR_TOL,
) -> CertificateEntry:
    """Check a declared coupling growth bound along a coupled trajectory.

    channel is "into_x" or "into_y", naming the goal-error equation the
    disturbance enters; the comparison signal is the goal error of the
    loop that generates the channel (the partner).  Pointwise mode checks
    |h(t)| <= beta |psi_partner(t)| + tol at every sample; l2 mode checks
    the running norms, |h| <= beta |psi_partner| + offset + tol, at every
    logged horizon.  Couplings that depend on partner state rather than on
    its goal error generally fail the pointwise form and satisfy only the
    l2 form with a nonzero offset.
    """
    if channel == "into_x":
        into, src = traj.loops["x"], traj.loops["y"]
    elif channel == "into_y":
        into, src = traj.loops["y"], traj.loops["x"]
    else:
        raise ValueError("channel must be 'into_x' or 'into_y'")

    if mode == "pointwise":
        slack = beta * np.abs(src.psi) + tol - np.abs(into.eps)
        name = f"coupling-bound-pointwise-{channel}"
    elif mode == "l2":
        slack = beta * src.l2_psi + offset + tol - into.l2_eps
        name = f"coupling-bound-l2-{channel}"
    else:
        raise ValueError("mode must be 'pointwise' or 'l2'")
    i = int(np.argmin(slack))
    return entry_from_margin(
        name, float(slack[i]), {"t": float(traj.t[i]), "beta": beta, "offset": offset}, tol
    )


def monitor_tail_convergence(
    traj,
    window: float,
    psi_threshold: float,
    mismatch_threshold: float,
) -> list:
    """Report tail suprema of goal errors and drift mismatches.

    Works on coupled trajectories (four entries) and single-loop ones (two
    entries).  The trajectory must have completed; asymptotic convergence
    is attested only as finite-horizon tail bounds over the trailing
    `window` time units.
    """
    if traj.status != STATUS_COMPLETED:
        raise ValueError(f"convergence monitor needs a completed trajectory, got {traj.status!r}")
    t = traj.t
    cutoff = t[-1] - window
    mask = t >= cutoff
    entries = []

    def tail_entry(name, values, threshold):
        sup = float(np.max(np.abs(values[mask])))
        entries.append(
            entry_from_margin(
                name, threshold - sup,
                {"tail_sup": sup, "window": window, "from_t": float(cutoff)},
                0.0,
            )
        )

    if isinstance(traj, Trajectory):
        named = [("-x", traj.loops["x"]), ("-y", traj.loops["y"])]
    else:
        named = [("", traj)]
    for suffix, loop in named:
        tail_entry(f"tail-psi{suffix}", loop.psi, psi_threshold)
    for suffix, loop in named:
        tail_entry(f"tail-mismatch{suffix}", loop.mismatch, mismatch_threshold)
    return entries
