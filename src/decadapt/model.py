"""Declarative descriptions of controlled subsystems.

A subsystem is specified by partitioned vector fields (the first block of
coordinates is independent of the unknown parameters, the second block is
not), a scalar goal function whose smallness encodes the control objective,
a monotone parametrization of the uncertainty, and a target shaper that
fixes the desired goal-error dynamics.  All maps are user-supplied callables
or `Formula`s together with user-supplied analytic derivatives; a
finite-difference validator is run when specs are assembled into a loop, so
there is no symbolic or automatic differentiation anywhere in the package.

Vector-valued callables may return any sequence of floats (list, tuple or
1-D numpy array).  Scalar-valued callables must return a plain float.
Callables must likewise accept states and parameter vectors as any float
sequence: the integrators pass lists and tuples of plain floats.  Every
sampled check (gradients, time partials, realizability, the Poincare
symmetry, the monotonicity certificate and the potential builder's scan)
first calls its callables once with tuples of sample-column arrays, and
walks the samples on plain-float tuples when that call raises TypeError or
ValueError or its results differ bit for bit from the plain-float call at
a spot-checked sample.

The checks take the states (N, n) and times (N) they evaluate; their
callers make the draws.  `AdaptiveLoopSpec` draws its spec box once at
construction, for the gradient, time-partial and realizability checks;
`certify.certify_closed_loop` draws each loop's Poincare sample, and one
monotonicity sample (`joint_sample`) per distinct box pair; and
`build_potential_single_coordinate` draws its own scan.  Every box draw
goes through `DomainBox.sample`.
"""

from __future__ import annotations

import ast
import copy
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

DEFAULT_SAMPLE_SEED = 0

GRAD_REL_TOL = 1e-5
GRAD_ABS_TOL = 1e-8


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


FUNCTIONS = ("sin", "cos", "exp", "tanh", "sqrt")  # a Formula's calls, in `math` and `numpy` alike
_ARITHMETIC = (ast.BinOp, ast.UnaryOp, ast.Tuple, ast.Constant, ast.Load, ast.Store, ast.Add,
               ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.USub)
_PARSED: dict = {}  # text -> (lambda AST, parameters, constants read, reads an argument, code)


def _parse(text: str) -> tuple:
    """The `_PARSED` entry of a formula text; a ValueError names the text and what is wrong."""
    tree = ast.parse(text, mode="eval")
    node = tree.body
    a = getattr(node, "args", None)
    if not isinstance(node, ast.Lambda) or a.kwonlyargs or a.kwarg or a.defaults:
        raise ValueError(f"formula {text!r}: not a lambda with positional parameters only")
    params, nodes = [x.arg for x in a.posonlyargs + a.args], list(ast.walk(node.body))
    calls = {id(n.func): n for n in nodes if isinstance(n, ast.Call)}
    names = {n.id: n for n in nodes if isinstance(n, ast.Name) and id(n) not in calls}
    bound = {n.target.id for n in nodes if isinstance(n, ast.NamedExpr)}
    for n in nodes:  # a `:=` name read before it is bound fails on the first call, inline too
        if isinstance(n, ast.Name):
            ok = (n.id in FUNCTIONS) == (id(n) in calls) and n.id not in bound & {
                *params, *FUNCTIONS}
        elif isinstance(n, ast.Subscript):
            ok = isinstance(n.value, ast.Name) and n.value.id in params and isinstance(
                n.slice, ast.Constant) and type(n.slice.value) is int and n.slice.value >= 0
        elif isinstance(n, ast.Call):
            ok = getattr(n.func, "id", None) not in params and len(n.args) == 1 and not \
                n.keywords
        else:
            ok = isinstance(n, ast.NamedExpr) or isinstance(n, _ARITHMETIC) and type(
                getattr(n, "value", 0.0)) in (int, float)
        if not ok:
            raise ValueError(f"formula {text!r} may not hold {type(n).__name__} "
                             f"{ast.unparse(n)!r}")
    free = sorted(names.keys() - {*params, *bound})
    return node, params, free, bool(names.keys() & {*params}), compile(tree, "<formula>", "eval")


class Formula:
    """A map written as one lambda expression: Formula("lambda state, t: (c * state[0],)", c=2.0).

    Its body holds only parameters, named finite float constants, int and
    float literals, + - * / ** and unary minus, tuples, int-literal
    subscripts of parameters, `:=` and calls of `FUNCTIONS`; construction
    rejects anything else with a ValueError naming the formula.  Each text
    is checked and compiled once.  A call runs `math`'s functions on floats,
    and `numpy`'s on sample columns after a TypeError.  The integrators
    write it into their runner instead.
    """

    def __init__(self, text: str, **constants):
        if text not in _PARSED:
            _PARSED[text] = _parse(text)
        self.text, (self.tree, self.params, self.free, self.reads, code) = text, _PARSED[text]
        self.constants = {name: float(v) for name, v in constants.items()}
        _require_finite(**{f"formula {text!r}: {k}": v for k, v in self.constants.items()})
        unknown = [name for name in self.free if name not in constants]  # free is sorted
        if unknown:
            raise ValueError(f"formula {text!r}: name {unknown[0]!r} is not a parameter or "
                             "a constant")
        values = {name: self.constants[name] for name in self.free}
        self._floats, self._columns = (eval(code, {f: getattr(m, f) for f in FUNCTIONS} | values)
                                       for m in (math, np))

    def __call__(self, *args):
        try:
            return self._floats(*args)
        except TypeError:  # sample columns
            return self._columns(*args)

    def __getstate__(self):  # pickled as its text and constants; the compiled maps are rebuilt
        return self.text, self.constants

    def __setstate__(self, state):
        Formula.__init__(self, state[0], **state[1])

    def inline(self, args: list, prefix: str):
        """The body's source with parameters replaced by their args, other names prefixed.

        An arg is a scalar's source or a vector's element sources, which the
        subscripts read; a wrong argument count or index is a ValueError.
        """
        k = len(self.params)
        if len(args) < k or len(args) > k and not self.tree.args.vararg:
            raise ValueError(f"formula {self.text!r} cannot take {len(args)} arguments")
        args = dict(zip(self.params, args))

        def sub(n):
            if isinstance(n, ast.Subscript):
                arg, i = args[n.value.id], n.slice.value
                if isinstance(arg, str) or i >= len(arg):
                    raise ValueError(f"formula {self.text!r}: {ast.unparse(n)} is out of range")
                return ast.Name(arg[i])
            if isinstance(n, ast.Name) and n.id not in FUNCTIONS:
                arg = args.get(n.id, prefix + n.id)
                return ast.Name(arg if isinstance(arg, str) else f"[{', '.join(arg)}]")
            for field, value in ast.iter_fields(n):
                setattr(n, field, [*map(sub, value)] if isinstance(value, list) else
                        sub(value) if isinstance(value, ast.AST) else value)
            return n

        return ast.unparse(sub(copy.deepcopy(self.tree.body)))


class Constant(Formula):
    """The formula Constant(value)(*args) -> value, a float or nested float tuples."""

    def __init__(self, value):
        names = {}

        def shape(v):  # c0 for a float, (c0, c1, ) for a pair
            if isinstance(v, (tuple, list, np.ndarray)):
                return f"({''.join(f'{shape(x)}, ' for x in v)})"
            names[f"c{len(names)}"] = v
            return f"c{len(names) - 1}"

        super().__init__(f"lambda *args: {shape(value)}", **names)


def _dot(a, b) -> float:
    """Plain dot product of two equal-length float sequences."""
    s = 0.0
    for x, y in zip(a, b):
        s += x * y
    return s


def _require_finite(**values) -> None:
    """A ValueError naming the first of the keyword arguments that is not a finite number."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _check_finite(values, what: str) -> None:
    """NonFiniteValueError at the first non-finite coordinate, a float or a sample column."""
    for i, v in enumerate(values):
        try:
            bad = () if math.isfinite(v) else (v,)
        except TypeError:  # a sample column: its non-finite elements, in order
            bad = np.ravel(v)[~np.isfinite(np.ravel(v))]
        if len(bad):
            raise NonFiniteValueError(what, i, float(bad[0]))


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
    order.  The sums are built as a table over ``index mod span``, one digit
    per level: the entry for digit k of the index and lower digits j is the
    entry j of the previous level plus the scrambled digit k.  So each point
    is the same left-to-right chain of additions, from 0.0 over its digits,
    as a digit-by-digit sum, without dividing the indices.  Digits that are
    zero for every index add the constant ``perm[0] * b2r`` one by one;
    folding them into one sum would round differently.
    """
    rng = np.random.default_rng(seed)
    columns = []
    for base in _first_primes(dim):
        # One permutation per digit with base**-k > 2**-54 (Owen 2017, Alg. 1).
        # `permuted` shuffles the rows in order, drawing the same stream as one
        # `rng.shuffle(row)` per row.
        perms = rng.permuted(
            np.repeat(np.arange(base)[None], math.ceil(54 / math.log2(base)) - 1, axis=0), axis=1
        )
        acc = np.zeros(min(count, 1))
        b2r = 1.0 / base
        for perm in perms.tolist():
            if acc.size < count:
                acc = (acc[None, :] + np.multiply(perm, b2r)[:, None]).ravel()[:count]
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
            _require_finite(**{"box lower bound": a, "box upper bound": b})
            if not (a <= b):
                raise ValueError(f"box lower bound {a} exceeds upper bound {b}")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return len(self.lower)

    def sample(self, count: int, seed: int = DEFAULT_SAMPLE_SEED) -> np.ndarray:
        """Quasi-random points in the box, shape (count, dim): `joint_sample` of it alone.

        For a fixed seed the first N points of a larger draw coincide with an
        N-point draw, so sample sets grow monotonically with `count`.
        """
        return joint_sample([self], count, seed)[0]


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
    `d_time` the partial derivative with respect to time.
    """

    psi: Callable
    grad_state: Callable
    d_time: Callable


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
        _require_finite(growth_upper=self.growth_upper, growth_lower=self.growth_lower)
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
    inputs strictly increasing starting at 0, outputs non-decreasing.  Every
    declared number must be finite.
    Evaluation outside the tabulated range raises GainRangeError, which
    certification checks surface as an inconclusive outcome.
    """

    kind: str
    offset: float = 0.0
    slope: float = 0.0
    table: tuple = ()

    def __post_init__(self):
        if self.kind == "linear":
            if not (0 <= self.offset < math.inf and 0 <= self.slope < math.inf):
                raise ValueError("linear gain requires finite offset >= 0 and slope >= 0")
        elif self.kind == "tabulated":
            pts = tuple((float(a), float(b)) for a, b in self.table)
            if not pts:
                raise ValueError("tabulated gain requires at least one sample")
            if not all(math.isfinite(v) for pt in pts for v in pt):
                raise ValueError(f"tabulated gain samples must be finite, got {pts}")
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
    """Desired goal-error dynamics d(psi)/dt = -phi(psi, t) plus a declared gain.

    `gain_l2_from_l2` bounds the energy of psi by the energy of an additive
    disturbance of the target dynamics.  Any known parameters of phi are
    baked into the callable at construction.  Gains are declared, never
    inferred from simulation.
    """

    phi: Callable
    gain_l2_from_l2: GainDescriptor

    @classmethod
    def linear(cls, rate: float, psi0_bound: float = 0.0) -> "TargetShaper":
        """Shaper phi(psi, t) = rate * psi with its exact linear gain.

        For d(psi)/dt = -rate * psi + input the energy-to-energy slope is
        1/rate; the offset accounts for an initial condition no larger than
        `psi0_bound`.
        """
        _require_finite(rate=rate, psi0_bound=psi0_bound)
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        if psi0_bound < 0:
            raise ValueError("psi0_bound must be >= 0")

        return cls(
            phi=Formula("lambda psi, t: rate * psi", rate=rate),
            gain_l2_from_l2=GainDescriptor.linear(psi0_bound / math.sqrt(2.0 * rate), 1.0 / rate),
        )


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


def _evaluate_samples(terms: Callable, samples, reduce: Callable) -> tuple:
    """(values, result) of a sampled check, on the sample columns when they agree.

    `samples` hold one row per sample: a 2-D array is a vector, passed to
    `terms` as a tuple of coordinates.  `terms` is called once on the
    columns, each result broadcast to one value per sample; `reduce(values)`
    returns (result, rows).  The columns serve when they equal, bit for bit,
    the plain-float call at row 0 and at every reported row; otherwise, or
    when the column call raises TypeError or ValueError, the samples are
    walked.  Floating-point warnings are silenced: non-finite values fail.
    """
    def walk(picked):  # one plain-float call per sample, vectors as tuples
        rows = zip(*(a.tolist() if a.ndim == 1 else map(tuple, a.tolist()) for a in picked))
        return np.array([[float(v) for v in terms(*row)] for row in rows]).T

    n = len(samples[0])
    with np.errstate(all="ignore"):
        try:
            values = np.array([
                np.broadcast_to(np.asarray(v, dtype=float), (n,))
                for v in terms(*(tuple(a.T) if a.ndim == 2 else a for a in samples))
            ])
        except (TypeError, ValueError):
            pass
        else:
            result, rows = reduce(values)
            checked = [0, *rows]
            walked = walk([a[checked] for a in samples])
            if np.array_equal(values[:, checked].view(np.int64), walked.view(np.int64)):
                return values, result
        values = walk(samples)
        return values, reduce(values)[0]


def _worst(values: np.ndarray) -> tuple:
    """((largest magnitude, its first (sample, term) or None), rows) of (terms, samples).

    A NaN counts as inf, the worst; nothing above 0 gives ((0.0, None), []).
    """
    flat = np.where(np.isnan(values), math.inf, np.abs(values)).T.ravel()
    k = int(np.argmax(flat))
    if flat[k] > 0:
        return (float(flat[k]), divmod(k, len(values))), [k // len(values)]
    return (0.0, None), []


def _moved(point: tuple, j: int, offset) -> tuple:
    return point[:j] + (point[j] + offset,) + point[j + 1:]


def _stencil(v: Callable, h):
    """(-v(2h) + 8 v(h) - 8 v(-h) + v(-2h)) / (12 h), called in that order; v(m) is at m h."""
    return (-v(2) + 8 * v(1) - 8 * v(-1) + v(-2)) / (12.0 * h)


def _five_point(fn: Callable, partial: Callable, points: np.ndarray, times: np.ndarray,
                coords) -> tuple:
    """Worst relative error of analytic partials against five-point differences.

    fn(state, t) is differenced along `coords`, indices into (*state, t), with
    step 1e-3 max(1, |coordinate|); `partial` returns the analytic partials
    over `coords` as a gradient (scalar fn) or a Jacobian.  The relative
    scale floors at GRAD_ABS_TOL / GRAD_REL_TOL, so that partials below it
    are judged absolutely.  Returns (worst, (sample, i, j) or None).
    """
    n, start = points.shape[1], (tuple(points[0].tolist()), float(times[0]))
    vector, first = np.ndim(fn(*start)) > 0, partial(*start)
    jacobian = np.ndim(first) == 2
    k = len(first) if jacobian else 1
    steps = 1e-3 * np.maximum(1.0, np.abs(np.column_stack((points, times))[:, coords]))

    def terms(state, h, t):
        g, point = partial(state, t), (*state, t)
        out = [g[i][c] if jacobian else g[c] for c in range(len(coords)) for i in range(k)]
        for hj, j in zip(h, coords):
            moved = {m: _moved(point, j, m * hj) for m in (2, 1, -1, -2)}
            vals = {m: fn(p[:n], p[n]) for m, p in moved.items()}
            out += [_stencil(lambda m: vals[m][i] if vector else vals[m], hj) for i in range(k)]
        return out

    def reduce(values):
        a, fd = np.split(values, 2)
        scale = np.maximum(np.maximum(np.abs(fd), np.abs(a)), GRAD_ABS_TOL / GRAD_REL_TOL)
        return _worst((a - fd) / scale)

    worst, at = _evaluate_samples(terms, (points, steps, times), reduce)[1]
    return worst, None if at is None else (at[0], at[1] % k, coords[at[1] // k])


def check_gradient(fn: Callable, grad_fn: Callable, states: np.ndarray, times: np.ndarray,
                   raise_on_fail: bool = True) -> float:
    """Compare analytic state partials with five-point central differences.

    `fn(state, t)` may be scalar or vector valued; `grad_fn` must return the
    matching gradient (length n) or Jacobian (out_dim, n).  Returns the worst
    relative error over the samples, `states` (N, n) at `times` (N), where
    the relative scale floors at GRAD_ABS_TOL / GRAD_REL_TOL so that
    near-zero partials are judged absolutely; a non-finite error is the
    worst, inf.  Raises GradientCheckError beyond GRAD_REL_TOL unless
    raise_on_fail is cleared (certification drivers turn the result into a
    report entry instead).
    """
    worst, at = _five_point(fn, grad_fn, states, times, list(range(states.shape[1])))
    if worst > GRAD_REL_TOL and raise_on_fail:
        row, i, j = at
        raise GradientCheckError(
            f"analytic partial ({i},{j}) disagrees with finite differences by relative "
            f"error {worst:.3e} (tolerance {GRAD_REL_TOL:.1e}) at state {states[row].tolist()}"
        )
    return worst


class GradientCheckError(ValueError):
    """Analytic derivatives disagree with finite differences on the domain box."""


def check_time_derivative(fn: Callable, dt_fn: Callable, states: np.ndarray,
                          times: np.ndarray) -> float:
    """Same check as `check_gradient` for the partial with respect to time.

    The time step is 1e-3 max(1, |t|).
    """
    vector = np.ndim(dt_fn(tuple(states[0].tolist()), float(times[0]))) == 1

    def partial(state, t):  # as a gradient or Jacobian with t the only coordinate
        return [[v] for v in dt_fn(state, t)] if vector else [dt_fn(state, t)]

    worst, _ = _five_point(fn, partial, states, times, [states.shape[1]])
    if worst > GRAD_REL_TOL:
        raise GradientCheckError(
            f"analytic time partial disagrees with finite differences by relative "
            f"error {worst:.3e} (tolerance {GRAD_REL_TOL:.1e})"
        )
    return worst
