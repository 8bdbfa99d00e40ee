"""Proportional-integral parameter adaptation.

The estimate is the sum of an algebraic, state-dependent part and an
integrated part: theta_hat = Gamma (psi * alpha - Psi + theta_I).  The
integral part evolves through quantities measurable on the first state
block only, so the algorithm never needs the unknown parameters or the
derivative of the goal function.  Realizability hinges on an auxiliary
potential Psi whose second-block gradient matches psi * (second-block
gradient of alpha); this module validates supplied potentials and constructs
them by quadrature in the single-coordinate case.  The reduced "virtual"
update law, the numerical oracle of this algorithm, is `simulate.integrate_virtual`.

`AdaptiveLoopSpec` draws REALIZABILITY_POINTS states of its spec box once:
the gradient checks read the first GRAD_SAMPLE_POINTS of them at t = 0, the
time-partial checks the same states with times evenly spaced over [0, 1],
and the realizability check all of them at t = 0.  A smaller draw equals
the first rows of a larger one, so each check sees the samples a draw of
its own would give.  `check_poincare` takes its samples from the certify
pass, which draws POINCARE_POINTS states of each loop's box.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .model import (
    Constant,
    DomainBox,
    GoalFunction,
    Parametrization,
    SubsystemSpec,
    TargetShaper,
    _evaluate_samples,
    _moved,
    _require_finite,
    _stencil,
    _worst,
    check_gradient,
    check_time_derivative,
)
from .report import CertificateEntry, entry_from_margin

REALIZABILITY_TOL = 1e-7
REALIZABILITY_POINTS = 200
GRAD_SAMPLE_POINTS = 100
SINGLE_COORD_TOL = 1e-9
POINCARE_TOL = 1e-6
POINCARE_FD_STEP = 1e-4
POINCARE_POINTS = 50
QUADRATURE_ABS_TOL = 1e-10
POTENTIAL_CHECK_POINTS = 50
GAMMA_SYMMETRY_TOL = 1e-12


class PotentialConstructionError(ValueError):
    """The single-coordinate construction does not apply to these maps."""


@dataclass(frozen=True, eq=False)
class AuxiliaryPotential:
    """Vector potential Psi(state, t) of the adaptation algorithm.

    value returns a length-d vector, grad_state a (d, n) array of state
    partials, d_time a length-d vector.  A valid
    potential satisfies the realizability identity: its second-block
    partials equal psi times the second-block partials of alpha (checked at
    loop construction).
    """

    value: Callable
    grad_state: Callable
    d_time: Callable


def zero_potential(dim: int, n: int) -> AuxiliaryPotential:
    """The zero potential, valid whenever alpha does not depend on the second block."""
    val = Constant((0.0,) * dim)
    return AuxiliaryPotential(value=val, grad_state=Constant(((0.0,) * n,) * dim), d_time=val)


def realizability_residual(potential: AuxiliaryPotential, goal: GoalFunction,
                           param: Parametrization, layout, states: np.ndarray,
                           times: np.ndarray) -> float:
    """Worst absolute violation of the realizability identity at `states` (N, n), `times` (N).

    A non-finite violation is the worst, inf.
    """
    def terms(state, t):
        psi = goal.psi(state, t)
        ga, gp = param.grad_state(state, t), potential.grad_state(state, t)
        return [b[j] - psi * a[j] for a, b in zip(ga, gp) for j in range(layout.q, layout.n)]

    return _evaluate_samples(terms, (states, times), _worst)[1][0]


@dataclass(frozen=True, eq=False)
class AdaptiveLoopSpec:
    """One subsystem with everything its adaptive controller needs.

    Construction validates the pieces against each other: the adaptation
    gain matrix must be finite, symmetric and positive definite, analytic
    gradients of the goal function and parametrization (and their time
    partials, for t in [0, 1]) must match finite differences on the
    subsystem's domain box, and the auxiliary potential must satisfy the
    realizability identity there.  All of these checks read one draw of the
    box (see the module docstring).  The worst relative gradient errors and
    the realizability residual found are kept, so certification reports
    them without sampling the box again.
    """

    spec: SubsystemSpec
    goal: GoalFunction
    shaper: TargetShaper
    param: Parametrization
    potential: AuxiliaryPotential
    gain: np.ndarray
    goal_grad_error: float = field(init=False)
    alpha_grad_error: float = field(init=False)
    realizability_residual: float = field(init=False)

    def __post_init__(self):
        if self.param.dim != self.spec.param_dim:
            raise ValueError(
                f"parametrization dimension {self.param.dim} does not match "
                f"subsystem parameter dimension {self.spec.param_dim}"
            )
        gain = np.atleast_2d(np.asarray(self.gain, dtype=float))
        d = self.param.dim
        if gain.shape != (d, d):
            raise ValueError(f"gain must be {d}x{d}, got shape {gain.shape}")
        _require_finite(gain=float(np.max(np.abs(gain))))
        if np.max(np.abs(gain - gain.T)) > GAMMA_SYMMETRY_TOL:
            raise ValueError("gain matrix must be symmetric")
        eigs = np.linalg.eigvalsh(gain)
        if np.min(eigs) <= 0:
            raise ValueError(f"gain matrix must be positive definite, eigenvalues {eigs}")
        object.__setattr__(self, "gain", gain)

        states = self.spec.box.sample(REALIZABILITY_POINTS)
        head, at_rest = states[:GRAD_SAMPLE_POINTS], np.zeros(GRAD_SAMPLE_POINTS)
        ramp = np.linspace(0.0, 1.0, GRAD_SAMPLE_POINTS)
        object.__setattr__(self, "goal_grad_error",
                           check_gradient(self.goal.psi, self.goal.grad_state, head, at_rest))
        object.__setattr__(self, "alpha_grad_error",
                           check_gradient(self.param.alpha, self.param.grad_state, head, at_rest))
        check_time_derivative(self.goal.psi, self.goal.d_time, head, ramp)
        check_time_derivative(self.param.alpha, self.param.d_time, head, ramp)
        res = realizability_residual(self.potential, self.goal, self.param, self.spec.layout,
                                     states, np.zeros(REALIZABILITY_POINTS))
        if res > REALIZABILITY_TOL:
            raise ValueError(
                f"auxiliary potential violates realizability: residual {res:.3e} "
                f"exceeds {REALIZABILITY_TOL:.1e}"
            )
        object.__setattr__(self, "realizability_residual", res)

    @property
    def gain_inverse(self) -> np.ndarray:
        return np.linalg.inv(self.gain)


def parameter_estimate(loop: AdaptiveLoopSpec, state, t: float, theta_i) -> np.ndarray:
    """Current estimate: gain @ (psi * alpha - Psi + theta_i).

    theta_i is the integral part of the estimate, owned by the integrator.
    Purely algebraic; no integration happens here.
    """
    psi = loop.goal.psi(state, t)
    alpha = np.asarray(loop.param.alpha(state, t), dtype=float)
    pot = np.asarray(loop.potential.value(state, t), dtype=float)
    return loop.gain @ (psi * alpha - pot + np.asarray(theta_i, dtype=float))


def integral_state_rate(loop: AdaptiveLoopSpec, state, t: float, u: float) -> np.ndarray:
    """Rate of the integral part of the estimate.

    phi(psi, t) * alpha plus correction terms built solely from first-block
    Lie derivatives and time partials; the second-block fields (which carry
    the unknown parameters) never enter, which is what makes the algorithm
    realizable.  `u` must be the control input at the same point.
    """
    spec, goal, param, pot = loop.spec, loop.goal, loop.param, loop.potential
    q = spec.layout.q
    psi = goal.psi(state, t)
    alpha = np.asarray(param.alpha(state, t), dtype=float)
    dalpha = np.asarray(param.grad_state(state, t), dtype=float)
    dalpha_dt = np.asarray(param.d_time(state, t), dtype=float)
    dpot = np.asarray(pot.grad_state(state, t), dtype=float)
    dpot_dt = np.asarray(pot.d_time(state, t), dtype=float)
    f1 = np.asarray(spec.f1(state, t), dtype=float)
    g1 = np.asarray(spec.g1(state), dtype=float)

    lf1_alpha = dalpha[:, :q] @ f1
    lg1_alpha = dalpha[:, :q] @ g1
    lf1_pot = dpot[:, :q] @ f1
    lg1_pot = dpot[:, :q] @ g1

    correction = dpot_dt - psi * (dalpha_dt + lf1_alpha) + lf1_pot
    correction -= (psi * lg1_alpha - lg1_pot) * u
    return loop.shaper.phi(psi, t) * alpha + correction


def _adaptive_simpson(f: Callable, a: float, b: float, abs_tol: float) -> float:
    """Adaptive Simpson quadrature of a scalar function on [a, b]."""
    if a == b:
        return 0.0
    if b < a:
        return -_adaptive_simpson(f, b, a, abs_tol)

    def simpson(x0, x2, f0, f2):
        x1 = 0.5 * (x0 + x2)
        f1 = f(x1)
        return x1, f1, (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f2, whole, x1, f1, tol, depth):
        lm, flm, left = simpson(x0, x1, f0, f1)
        rm, frm, right = simpson(x1, x2, f1, f2)
        if depth > 48 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        half = 0.5 * tol
        return recurse(x0, x1, f0, f1, left, lm, flm, half, depth + 1) + recurse(
            x1, x2, f1, f2, right, rm, frm, half, depth + 1
        )

    fa, fb = f(a), f(b)
    mid, fmid, whole = simpson(a, b, fa, fb)
    return recurse(a, b, fa, fb, whole, mid, fmid, abs_tol, 0)


def build_potential_single_coordinate(
    goal: GoalFunction,
    param: Parametrization,
    layout,
    box: DomainBox,
    coord_index: int,
) -> AuxiliaryPotential:
    """Construct the potential by quadrature along one second-block coordinate.

    Applies when the goal function and the parametrization depend on the
    second block only through coordinate `coord_index` (an index into the
    second block).  Each component is the antiderivative of
    psi * (partial of that alpha component) with respect to that coordinate,
    integrated from the coordinate's lower box bound; the constant of
    integration is irrelevant because only derivatives of the potential
    enter the adaptation law.

    The partial along the integrated coordinate is returned in closed form
    (the integrand itself), so the realizability identity holds by
    construction; remaining partials differentiate the quadrature by central
    differences.

    Raises PotentialConstructionError when some other second-block
    coordinate carries a partial above 1e-9 (a NaN counts as inf) at t = 0
    on 50 box samples; run `check_poincare` to see whether a potential can
    exist at all.  The samples go through the evaluator of every sampled
    check, `model._evaluate_samples`.
    """
    q, p, n = layout.q, layout.p, layout.n
    if not 0 <= coord_index < p:
        raise ValueError(f"coord_index must be in [0, {p}), got {coord_index}")
    k = q + coord_index
    d = param.dim
    others = [j for j in range(q, n) if j != k]
    m = len(others) * (1 + d)

    def terms(state, t):  # the off-coordinate partials of psi and alpha, then alpha's along k
        gpsi, galpha = goal.grad_state(state, t), param.grad_state(state, t)
        return ([gpsi[j] for j in others] + [g[j] for g in galpha for j in others]
                + [g[k] for g in galpha])

    def reduce(values):  # ((worst off partial, its (sample, term) or None, worst along k), rows)
        (off, at), rows = _worst(values[:m]) if m else ((0.0, None), [])
        (dep, _), dep_rows = _worst(values[m:])
        return (off, at, dep), rows + dep_rows

    samples = (box.sample(POTENTIAL_CHECK_POINTS), np.zeros(POTENTIAL_CHECK_POINTS))
    off, at, alpha_dep = _evaluate_samples(terms, samples, reduce)[1]
    if off > SINGLE_COORD_TOL:
        raise PotentialConstructionError(
            f"second-block coordinate {others[at[1] % len(others)] - q} carries partials up "
            f"to {off:.3e}; the single-coordinate construction does not apply. Run "
            "check_poincare to test whether any potential exists."
        )
    if alpha_dep <= SINGLE_COORD_TOL:
        return zero_potential(d, n)

    lower_k = box.lower[k]

    def integrand(state, t, i):
        work = np.asarray(state, dtype=float).copy()

        def f(s):
            work[k] = s
            gs = np.asarray(param.grad_state(work, t), dtype=float)
            return goal.psi(work, t) * gs[i, k]

        return f

    def value(state, t):
        upper = float(state[k])
        return np.array([_adaptive_simpson(integrand(state, t, i), lower_k, upper,
                                           QUADRATURE_ABS_TOL) for i in range(d)])

    def grad_state(state, t):
        out = np.zeros((d, n))
        psi = goal.psi(state, t)
        galpha = np.asarray(param.grad_state(state, t), dtype=float)
        out[:, k] = psi * galpha[:, k]
        point = tuple(np.asarray(state, dtype=float).tolist())
        for j in range(q):
            h = 1e-3 * max(1.0, abs(point[j]))
            out[:, j] = _stencil(lambda m: value(_moved(point, j, m * h), t), h)
        return out

    def d_time(state, t):
        return _stencil(lambda m: value(state, t + m * 1e-3), 1e-3)

    return AuxiliaryPotential(value=value, grad_state=grad_state, d_time=d_time)


def check_poincare(goal: GoalFunction, param: Parametrization, layout, states: np.ndarray,
                   times: np.ndarray) -> CertificateEntry:
    """Test existence of an auxiliary potential via mixed-partial symmetry.

    For each alpha component, the Jacobian with respect to the second block
    of the field psi * (second-block gradient of that component) must be
    symmetric; by the Poincare lemma this is necessary and sufficient for a
    potential to exist locally.  Second-order terms are formed by central
    differences of the analytic first derivatives, with step
    1e-4 max(1, |coordinate|), at `states` (N, n) and `times` (N).  An
    asymmetry above POINCARE_TOL is reported as a failing entry, not raised.
    """
    q, p = layout.q, layout.p

    def field(state, t):  # psi times the second-block alpha partials, component-major
        psi = goal.psi(state, t)
        return [psi * g[q + k] for g in param.grad_state(state, t) for k in range(p)]

    def terms(state, h, t):
        jac = [[(a - b) / (2.0 * hl) for a, b in zip(field(_moved(state, q + l, hl), t),
                                                     field(_moved(state, q + l, -hl), t))]
               for l, hl in enumerate(h)]  # jac[l][i * p + k]: d(field_ik) / d(x_{q+l})
        return [jac[l][i * p + k] - jac[k][i * p + l]
                for i in range(param.dim) for k in range(p) for l in range(p)]

    steps = POINCARE_FD_STEP * np.maximum(1.0, np.abs(states[:, q:]))
    worst, at = _evaluate_samples(terms, (states, steps, times), _worst)[1]
    witness = {} if at is None else {
        "state": states[at[0]].tolist(), "component": at[1] // (p * p), "residual": worst,
    }
    return entry_from_margin("poincare-symmetry", POINCARE_TOL - worst, witness, POINCARE_TOL)
