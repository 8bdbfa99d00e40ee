"""Declarative descriptions of controlled subsystems.

A subsystem is specified by partitioned vector fields (the first block of
coordinates is independent of the unknown parameters, the second block is
not), a scalar goal function whose smallness encodes the control objective,
a monotone parametrization of the uncertainty, and a target shaper that
fixes the desired goal-error dynamics.  All maps are user-supplied callables
together with user-supplied analytic derivatives; a finite-difference
validator is run when specs are assembled into a loop, so there is no
symbolic or automatic differentiation anywhere in the package.

Vector-valued callables may return any sequence of floats (list, tuple or
1-D numpy array).  Scalar-valued callables must return a plain float.
Callables must likewise accept states and parameter vectors as any float
sequence: the integrators pass lists and tuples of plain floats, the
finite-difference validators numpy rows.  The monotonicity sampler calls
the drift channel and alpha once with tuples of sample-column arrays, and
walks the samples on plain-float tuples when that call raises TypeError or
ValueError or its results differ bit for bit from the plain-float call at
a spot-checked sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

DEFAULT_SAMPLE_SEED = 0

GRAD_REL_TOL = 1e-5
GRAD_ABS_TOL = 1e-8
GRAD_SAMPLE_POINTS = 100


class DimensionMismatchError(ValueError):
    """A vector did not have the length required by the partition layout."""

    def __init__(self, what: str, expected: int, got: int):
        super().__init__(f"{what}: expected length {expected}, got {got}")
        self.expected = expected
        self.got = got


class NonFiniteValueError(ArithmeticError):
    """A field evaluation produced NaN or infinity."""

    def __init__(self, what: str, index: int, value: float):
        super().__init__(f"{what} produced non-finite value {value!r} at coordinate {index}")
        self.index = index
        self.value = value


def _dot(a, b) -> float:
    """Plain dot product of two equal-length float sequences."""
    s = 0.0
    for x, y in zip(a, b):
        s += x * y
    return s


def _check_finite(values, what: str) -> None:
    for i, v in enumerate(values):
        if not math.isfinite(v):
            raise NonFiniteValueError(what, i, v)


def _first_primes(count: int) -> list:
    primes = []
    k = 2
    while len(primes) < count:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return primes


def _scrambled_halton(dim: int, count: int, seed: int) -> np.ndarray:
    """Owen-scrambled Halton points in [0, 1)^dim, shape (count, dim).

    Reproduces ``scipy.stats.qmc.Halton(dim, scramble=True, seed=seed)
    .random(count)`` bit for bit: the same digit permutations drawn from one
    ``default_rng(seed)``, base by base, and the same digit sum in the same
    order.  Digits that are zero for every index add the constant
    ``perm[0] * b2r`` one by one; folding them into one sum would round
    differently.
    """
    rng = np.random.default_rng(seed)
    index = np.arange(count)
    columns = []
    for base in _first_primes(dim):
        # One permutation per digit with base**-k > 2**-54 (Owen 2017, Alg. 1).
        # `permuted` shuffles the rows in order, drawing the same stream as one
        # `rng.shuffle(row)` per row.
        perms = rng.permuted(
            np.repeat(np.arange(base)[None], math.ceil(54 / math.log2(base)) - 1, axis=0), axis=1
        )
        acc = np.zeros(count)
        quotient = index
        span = 1
        b2r = 1.0 / base
        for perm in perms.tolist():
            if span < count:
                quotient, digit = np.divmod(quotient, base)
                acc += np.multiply(perm, b2r)[digit]
                span *= base
            else:
                acc += perm[0] * b2r
            b2r /= base
        columns.append(acc)
    return np.array(columns).T.reshape(count, dim)


@dataclass(frozen=True, eq=False)
class PartitionLayout:
    """State partition: `q` parameter-independent plus `p` parameter-dependent coordinates."""

    q: int
    p: int

    def __post_init__(self):
        if self.q < 0:
            raise ValueError(f"q must be >= 0, got {self.q}")
        if self.p < 1:
            raise ValueError(f"p must be >= 1, got {self.p}")

    @property
    def n(self) -> int:
        return self.q + self.p

    def check_state(self, state) -> None:
        if len(state) != self.n:
            raise DimensionMismatchError("state", self.n, len(state))

    def split(self, state):
        """Return the (first-block, second-block) views of a state vector."""
        self.check_state(state)
        return state[: self.q], state[self.q :]


@dataclass(frozen=True, eq=False)
class DomainBox:
    """Axis-aligned box on which sampling-based verifiers operate.

    All local properties (gradient fidelity, realizability residuals,
    monotonicity estimates, mixed-partial symmetry) are checked on points
    drawn from the box only; nothing is claimed outside it.
    """

    lower: tuple
    upper: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lower)
        hi = tuple(float(v) for v in self.upper)
        if len(lo) != len(hi):
            raise DimensionMismatchError("box bounds", len(lo), len(hi))
        for a, b in zip(lo, hi):
            if not (a <= b):
                raise ValueError(f"box lower bound {a} exceeds upper bound {b}")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return len(self.lower)

    def sample(self, count: int, seed: int = DEFAULT_SAMPLE_SEED) -> np.ndarray:
        """Quasi-random points in the box, shape (count, dim).

        Uses the in-repo Owen-scrambled Halton sequence, which reproduces
        ``scipy.stats.qmc.Halton(d, scramble=True, seed=seed)`` bit for bit:
        for a fixed seed the first N points of a larger draw coincide with an
        N-point draw, so sample sets grow monotonically with `count`.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        unit = _scrambled_halton(self.dim, count, seed)
        lo = np.asarray(self.lower)
        hi = np.asarray(self.upper)
        return lo + unit * (hi - lo)


def joint_sample(boxes: Sequence[DomainBox], count: int, seed: int = DEFAULT_SAMPLE_SEED):
    """Sample several boxes jointly from one low-discrepancy sequence.

    Returns a list of arrays, one per box, each of shape (count, box.dim).
    Joint sampling keeps the superset property across `count` for tuples of
    arguments (state, parameters, time), which per-box reseeding would lose.
    The sequence is the in-repo Owen-scrambled Halton of `DomainBox.sample`
    over the summed dimension, the same stream scipy's scrambled Halton
    draws for that seed.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    unit = _scrambled_halton(sum(b.dim for b in boxes), count, seed)
    out = []
    offset = 0
    for b in boxes:
        lo = np.asarray(b.lower)
        hi = np.asarray(b.upper)
        out.append(lo + unit[:, offset : offset + b.dim] * (hi - lo))
        offset += b.dim
    return out


@dataclass(frozen=True, eq=False)
class SubsystemSpec:
    """Partitioned control-affine subsystem with scalar input.

    The first state block evolves as f1(x, t) + g1(x) u and never sees the
    unknown parameter vector; the second block as f2(x, theta, t) + g2(x) u.
    The split is enforced by signature: f1 and g1 take no parameter argument.

    Fields
    ------
    layout : PartitionLayout
    f1 : callable (state, t) -> sequence of length q
    f2 : callable (state, theta, t) -> sequence of length p
    g1 : callable (state) -> sequence of length q
    g2 : callable (state) -> sequence of length p
    param_dim : int, length of theta
    box : DomainBox of dimension q + p, the declared state domain
    """

    layout: PartitionLayout
    f1: Callable
    f2: Callable
    g1: Callable
    g2: Callable
    param_dim: int
    box: DomainBox

    def __post_init__(self):
        if self.param_dim < 1:
            raise ValueError(f"param_dim must be >= 1, got {self.param_dim}")
        if self.box.dim != self.layout.n:
            raise DimensionMismatchError("state box", self.layout.n, self.box.dim)


@dataclass(frozen=True, eq=False)
class GoalFunction:
    """Scalar goal function psi(state, t) with analytic first derivatives.

    `grad_state` returns the length-n gradient with respect to the state,
    `d_time` the partial derivative with respect to time.  `epsilon_goal` is
    the attainment threshold: the objective is |psi| <= epsilon_goal from
    some time onward.
    """

    psi: Callable
    grad_state: Callable
    d_time: Callable
    epsilon_goal: float = 0.0

    def __post_init__(self):
        if self.epsilon_goal < 0:
            raise ValueError("epsilon_goal must be >= 0")


@dataclass(frozen=True, eq=False)
class Parametrization:
    """Monotone direction alpha(state, t) with declared growth constants.

    The uncertainty mismatch between two parameter vectors is assumed to
    agree in sign with alpha^T (difference) and to be sandwiched between
    `growth_lower` and `growth_upper` times its magnitude.  Both constants
    are declared here and checked empirically by the certify module.

    `grad_state` returns a (d, n) array of partials, `d_time` a length-d
    vector.
    """

    alpha: Callable
    grad_state: Callable
    d_time: Callable
    dim: int
    growth_upper: float
    growth_lower: float

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not (self.growth_upper >= self.growth_lower > 0):
            raise ValueError(
                f"growth constants must satisfy upper >= lower > 0, "
                f"got upper={self.growth_upper}, lower={self.growth_lower}"
            )


@dataclass(frozen=True, eq=False)
class GainDescriptor:
    """Declared input-output gain, either linear or tabulated.

    Linear: value -> offset + slope * value, offset >= 0, slope >= 0.
    Tabulated: piecewise-linear through monotone (input, output) samples;
    inputs strictly increasing starting at 0, outputs non-decreasing.
    Evaluation outside the tabulated range raises GainRangeError, which
    certification checks surface as an inconclusive outcome.
    """

    kind: str
    offset: float = 0.0
    slope: float = 0.0
    table: tuple = ()

    def __post_init__(self):
        if self.kind == "linear":
            if self.offset < 0 or self.slope < 0:
                raise ValueError("linear gain requires offset >= 0 and slope >= 0")
        elif self.kind == "tabulated":
            pts = tuple((float(a), float(b)) for a, b in self.table)
            if not pts:
                raise ValueError("tabulated gain requires at least one sample")
            if pts[0][0] != 0.0:
                raise ValueError("tabulated gain must start at input 0")
            for (a0, b0), (a1, b1) in zip(pts, pts[1:]):
                if not a1 > a0:
                    raise ValueError("tabulated gain inputs must be strictly increasing")
                if b1 < b0:
                    raise ValueError("tabulated gain outputs must be non-decreasing")
            object.__setattr__(self, "table", pts)
        else:
            raise ValueError(f"unknown gain kind {self.kind!r}")

    @classmethod
    def linear(cls, offset: float, slope: float) -> "GainDescriptor":
        return cls(kind="linear", offset=float(offset), slope=float(slope))

    @classmethod
    def tabulated(cls, points) -> "GainDescriptor":
        return cls(kind="tabulated", table=tuple(points))

    @property
    def is_linear(self) -> bool:
        return self.kind == "linear"

    def evaluate(self, value: float) -> float:
        if value < 0:
            raise ValueError("gain argument must be >= 0")
        if self.kind == "linear":
            return self.offset + self.slope * value
        xs = [p[0] for p in self.table]
        ys = [p[1] for p in self.table]
        if value > xs[-1]:
            raise GainRangeError(value, xs[-1])
        return float(np.interp(value, xs, ys))


class GainRangeError(ValueError):
    """A tabulated gain was queried beyond its last sample."""

    def __init__(self, value: float, last: float):
        super().__init__(f"gain table covers inputs up to {last}, queried at {value}")
        self.value = value
        self.last = last


@dataclass(frozen=True, eq=False)
class TargetShaper:
    """Desired goal-error dynamics d(psi)/dt = -phi(psi, t) plus declared gains.

    `gain_inf_from_l2` bounds the peak of psi by the energy of an additive
    disturbance of the target dynamics; `gain_l2_from_l2` bounds its energy.
    Any known parameters of phi are baked into the callable at construction.
    Gains are declared, never inferred from simulation.
    """

    phi: Callable
    gain_inf_from_l2: GainDescriptor
    gain_l2_from_l2: GainDescriptor

    @classmethod
    def linear(cls, rate: float, psi0_bound: float = 0.0) -> "TargetShaper":
        """Shaper phi(psi, t) = rate * psi with its exact linear gains.

        For d(psi)/dt = -rate * psi + input the energy-to-energy slope is
        1/rate and the energy-to-peak slope is 1/sqrt(2*rate); the offsets
        account for an initial condition no larger than `psi0_bound`.
        """
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        if psi0_bound < 0:
            raise ValueError("psi0_bound must be >= 0")

        def phi(p: float, t: float) -> float:
            return rate * p

        return cls(
            phi=phi,
            gain_inf_from_l2=GainDescriptor.linear(psi0_bound, 1.0 / math.sqrt(2.0 * rate)),
            gain_l2_from_l2=GainDescriptor.linear(psi0_bound / math.sqrt(2.0 * rate), 1.0 / rate),
        )


def lie_derivative(fld: Callable, grad_slice: Callable, state, t: float) -> float:
    """Derivative of a scalar function along a sub-block vector field.

    `fld(state, t)` must return the field values over one partition block and
    `grad_slice(state, t)` the matching block of the scalar function's state
    gradient.  The result is their exact dot product.
    """
    f = fld(state, t)
    g = grad_slice(state, t)
    if len(f) != len(g):
        raise DimensionMismatchError("lie_derivative field vs gradient slice", len(g), len(f))
    return _dot(g, f)


def goal_drift(spec: SubsystemSpec, goal: GoalFunction, state, theta, t: float) -> float:
    """Rate of change of the goal function along the drift field only.

    Computes grad(psi) . (f1, f2(theta)); the time partial and the control
    contribution are accounted for elsewhere.  This is the scalar channel
    through which the unknown parameters act on the goal error.
    """
    if len(theta) != spec.param_dim:
        raise DimensionMismatchError("theta", spec.param_dim, len(theta))
    q = spec.layout.q
    grad = goal.grad_state(state, t)
    f1v = spec.f1(state, t)
    f2v = spec.f2(state, theta, t)
    _check_finite(f1v, "f1")
    _check_finite(f2v, "f2")
    return _dot(grad[:q], f1v) + _dot(grad[q:], f2v)


def input_gain(spec: SubsystemSpec, goal: GoalFunction, state, t: float) -> float:
    """Derivative of the goal function along the input field (g1, g2)."""
    q = spec.layout.q
    grad = goal.grad_state(state, t)
    return _dot(grad[:q], spec.g1(state)) + _dot(grad[q:], spec.g2(state))


def fd_state_partial(fn: Callable, state: np.ndarray, j: int, t: float, h: float) -> np.ndarray:
    """Five-point central difference of fn(state, t) along state coordinate j."""
    p = state.astype(float).copy()
    vals = []
    for offset in (2 * h, h, -h, -2 * h):
        p[j] = state[j] + offset
        vals.append(np.asarray(fn(p, t), dtype=float))
    return (-vals[0] + 8 * vals[1] - 8 * vals[2] + vals[3]) / (12.0 * h)


def check_gradient(
    fn: Callable,
    grad_fn: Callable,
    box: DomainBox,
    n_points: int = GRAD_SAMPLE_POINTS,
    rel_tol: float = GRAD_REL_TOL,
    abs_tol: float = GRAD_ABS_TOL,
    seed: int = DEFAULT_SAMPLE_SEED,
    time_value: float = 0.0,
    raise_on_fail: bool = True,
) -> float:
    """Compare analytic state partials with five-point central differences.

    `fn(state, t)` may be scalar or vector valued; `grad_fn` must return the
    matching gradient (length n) or Jacobian (out_dim, n).  Returns the worst
    relative error over quasi-random box points, where the relative scale
    floors at abs_tol / rel_tol so that near-zero partials are judged
    absolutely.  Raises GradientCheckError beyond tolerance unless
    raise_on_fail is cleared (certification drivers turn the result into a
    report entry instead).
    """
    pts = box.sample(n_points, seed=seed)
    worst = 0.0
    worst_at = None
    for row in pts:
        analytic = np.atleast_2d(np.asarray(grad_fn(row, time_value), dtype=float))
        for j in range(box.dim):
            h = 1e-3 * max(1.0, abs(row[j]))
            fd = np.atleast_1d(fd_state_partial(fn, row, j, time_value, h))
            for i in range(analytic.shape[0]):
                scale = max(abs(fd[i]), abs(analytic[i, j]), abs_tol / rel_tol)
                err = abs(analytic[i, j] - fd[i]) / scale
                if err > worst:
                    worst = err
                    worst_at = (row.copy(), i, j)
    if worst > rel_tol and raise_on_fail:
        row, i, j = worst_at
        raise GradientCheckError(
            f"analytic partial ({i},{j}) disagrees with finite differences by relative "
            f"error {worst:.3e} (tolerance {rel_tol:.1e}) at state {row.tolist()}"
        )
    return worst


class GradientCheckError(ValueError):
    """Analytic derivatives disagree with finite differences on the domain box."""


def check_time_derivative(
    fn: Callable,
    dt_fn: Callable,
    box: DomainBox,
    n_points: int = GRAD_SAMPLE_POINTS,
    rel_tol: float = GRAD_REL_TOL,
    abs_tol: float = GRAD_ABS_TOL,
    seed: int = DEFAULT_SAMPLE_SEED,
    time_range: tuple = (0.0, 1.0),
) -> float:
    """Same check as `check_gradient` for the partial with respect to time."""
    pts = box.sample(n_points, seed=seed)
    ts = np.linspace(time_range[0], time_range[1], n_points)
    worst = 0.0
    h = 1e-3
    for row, t in zip(pts, ts):
        analytic = np.atleast_1d(np.asarray(dt_fn(row, t), dtype=float))
        fd = (
            -np.asarray(fn(row, t + 2 * h), dtype=float)
            + 8 * np.asarray(fn(row, t + h), dtype=float)
            - 8 * np.asarray(fn(row, t - h), dtype=float)
            + np.asarray(fn(row, t - 2 * h), dtype=float)
        ) / (12.0 * h)
        fd = np.atleast_1d(fd)
        for i, (a, b) in enumerate(zip(analytic, fd)):
            scale = max(abs(a), abs(b), abs_tol / rel_tol)
            err = abs(a - b) / scale
            if err > worst:
                worst = err
    if worst > rel_tol:
        raise GradientCheckError(
            f"analytic time partial disagrees with finite differences by relative "
            f"error {worst:.3e} (tolerance {rel_tol:.1e})"
        )
    return worst
