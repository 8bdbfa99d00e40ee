import functools
import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tests.test_adaptation as adaptation_tests
import tests.test_simulate as simulate_tests
from decadapt import (
    Constant,
    CoupledClosedLoop,
    Coupling,
    DomainBox,
    GainDescriptor,
    GoalFunction,
    IntegratorConfig,
    OscillatorScenario,
    Parametrization,
    PartitionLayout,
    SmallGainProblem,
    SubsystemSpec,
    build_oscillator,
    certify_closed_loop,
    check_small_gain,
    goal_drift,
    integrate,
    monitor_loop_bounds,
    monitor_tail_convergence,
    monotonicity_sample,
    small_gain_problem,
    verify_coupling_bound,
    verify_monotonicity,
)
from decadapt import certify, model
from decadapt.adaptation import REALIZABILITY_TOL
from decadapt.certify import (GROWTH_REL_SLACK, RATIO_FLOOR, SIGN_CONDITION_TOL,
                              STEP_MONOTONE_TOL)
from decadapt.model import DEFAULT_SAMPLE_SEED, GainRangeError, NonFiniteValueError, joint_sample
from decadapt.report import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    CertificateEntry,
    CertificateReport,
    entry_from_margin,
)
from decadapt.scenario import (
    MONOTONICITY_STATE_BOX,
    MONOTONICITY_THETA_BOX,
    WOBBLE_X,
    WOBBLE_Y,
    certify_oscillator,
)
from decadapt.simulate import (STATUS_COMPLETED, LoopTrajectory, integrate_loop,
                               zero_disturbance)


def shifted_alpha(growth=(1.5, 0.5)):
    return Parametrization(
        alpha=lambda s, t: (s[0] - 1.0,),
        grad_state=lambda s, t: ((1.0, 0.0),),
        d_time=lambda s, t: (0.0,),
        dim=1, growth_upper=growth[0], growth_lower=growth[1],
    )


STATE_BOX = DomainBox((-3.0, -3.0), (3.0, 3.0))
THETA_BOX = DomainBox((0.2,), (2.0,))


def monotonicity(param, f, state_box, theta_box, n_samples, seed=DEFAULT_SAMPLE_SEED):
    """`verify_monotonicity` of f on the `monotonicity_sample` of the boxes."""
    samples = monotonicity_sample(state_box, theta_box, n_samples, seed)
    return verify_monotonicity(param, f, samples)


class TestVerifyMonotonicity:
    def test_linear_in_parameters_has_unit_ratios(self):
        param = shifted_alpha((1.0, 1.0))
        entry = monotonicity(param, lambda s, th, t: th[0] * (s[0] - 1.0),
                             STATE_BOX, THETA_BOX, 1000)
        assert entry.passed
        assert entry.witness["d_hat"] == pytest.approx(1.0, abs=1e-9)
        assert entry.witness["d1_hat"] == pytest.approx(1.0, abs=1e-9)

    def test_anti_monotone_fails_with_negative_margin(self):
        box = DomainBox((0.5, -1.0), (2.0, 1.0))
        param = Parametrization(
            alpha=lambda s, t: (s[0],),
            grad_state=lambda s, t: ((1.0, 0.0),),
            d_time=lambda s, t: (0.0,),
            dim=1, growth_upper=1.0, growth_lower=1.0,
        )
        entry = monotonicity(param, lambda s, th, t: -th[0] * s[0], box, THETA_BOX, 500)
        assert entry.status == FAIL
        assert entry.margin < 0

    def test_estimates_tighten_with_more_samples(self):
        param = shifted_alpha()

        def f(s, th, t):
            return s[1] + th[0] * (s[0] - 1.0) + 0.5 * math.sin(th[0] * (s[0] - 1.0))

        small = monotonicity(param, f, STATE_BOX, THETA_BOX, 500).witness
        large = monotonicity(param, f, STATE_BOX, THETA_BOX, 1000).witness
        assert large["d_hat"] >= small["d_hat"]
        assert large["d1_hat"] <= small["d1_hat"]

    def test_two_parameter_linear_channel(self):
        param = Parametrization(
            alpha=lambda s, t: (s[0], s[1]),
            grad_state=lambda s, t: ((1.0, 0.0), (0.0, 1.0)),
            d_time=lambda s, t: (0.0, 0.0),
            dim=2, growth_upper=1.0, growth_lower=1.0,
        )
        theta_box = DomainBox((0.2, -1.0), (2.0, 1.0))
        entry = monotonicity(param, lambda s, th, t: th[0] * s[0] + th[1] * s[1],
                             STATE_BOX, theta_box, 2000)
        assert entry.passed
        assert entry.witness["d_hat"] == pytest.approx(1.0, abs=1e-8)
        assert entry.witness["d1_hat"] == pytest.approx(1.0, abs=1e-8)

    def test_degenerate_sampling_is_inconclusive(self):
        param = Parametrization(
            alpha=lambda s, t: (0.0,),
            grad_state=lambda s, t: ((0.0, 0.0),),
            d_time=lambda s, t: (0.0,),
            dim=1, growth_upper=1.0, growth_lower=1.0,
        )
        entry = monotonicity(param, lambda s, th, t: 0.0, STATE_BOX, THETA_BOX, 100)
        assert entry.status == INCONCLUSIVE
        assert entry.witness["floor"] == RATIO_FLOOR  # no sample cleared it

    def test_difference_at_the_floor_is_not_a_ratio_sample(self):
        # alpha^T (theta_alt - theta) is 1.0 * (RATIO_FLOOR - 0.0), exactly the floor, in
        # the first sample and twice it in the second: only the second clears the floor
        samples = [np.array([[2.0, 0.0], [2.0, 0.0]]), np.zeros((2, 1)),
                   np.array([[RATIO_FLOOR], [2.0 * RATIO_FLOOR]]), np.zeros((2, 1))]
        entry = verify_monotonicity(shifted_alpha((1.0, 1.0)),
                                    lambda s, th, t: th[0] * (s[0] - 1.0), samples)
        assert entry.passed
        assert entry.witness["n_ratio_samples"] == 1

    def test_alpha_length_must_match_theta_box(self):
        param = Parametrization(
            alpha=lambda s, t: (s[0], s[1]),
            grad_state=lambda s, t: ((1.0, 0.0), (0.0, 1.0)),
            d_time=lambda s, t: (0.0, 0.0),
            dim=2, growth_upper=1.0, growth_lower=1.0,
        )
        with pytest.raises(ValueError):
            monotonicity(param, lambda s, th, t: th[0] * s[0], STATE_BOX, THETA_BOX, 10)

    @pytest.mark.parametrize("n", [0, -3])
    def test_rejects_nonpositive_sample_count(self, n):
        with pytest.raises(ValueError, match="n_samples must be >= 1"):
            monotonicity_sample(STATE_BOX, THETA_BOX, n)


def reference_monotonicity(param, f, state_box, theta_box, n_samples,
                           seed=DEFAULT_SAMPLE_SEED, time_range=(0.0, 0.0)):
    """The earlier per-row numpy loop of verify_monotonicity, kept as an oracle.

    A NaN or infinite difference fails at the first such sample, and f
    raising NonFiniteValueError gives NaN.
    """
    def value(state, th, t):
        try:
            return float(f(state, th, t))
        except NonFiniteValueError:
            return math.nan

    d_declared = param.growth_upper
    d1_declared = param.growth_lower
    time_box = DomainBox((time_range[0],), (time_range[1],))
    states, thetas, thetas_alt, times = joint_sample(
        [state_box, theta_box, theta_box, time_box], n_samples, seed=seed
    )

    worst_sign = np.inf
    worst_sign_witness = {}
    d_hat = 0.0
    d1_hat = np.inf
    d_hat_witness = {}
    d1_hat_witness = {}
    n_ratio = 0
    non_finite_witness = None
    for state, th, th_alt, (t,) in zip(states, thetas, thetas_alt, times):
        alpha = np.asarray(param.alpha(state, t), dtype=float)
        df = value(state, th_alt, t) - value(state, th, t)
        s = float(alpha @ (th_alt - th))
        prod = df * s
        if non_finite_witness is None and not (math.isfinite(df) and math.isfinite(s)):
            non_finite_witness = {
                "state": state.tolist(), "theta": th.tolist(), "theta_alt": th_alt.tolist(),
                "t": t, "drift_difference": df, "alpha_difference": s,
            }
        if prod < worst_sign:
            worst_sign = prod
            worst_sign_witness = {
                "state": state.tolist(), "theta": th.tolist(),
                "theta_alt": th_alt.tolist(), "t": t, "product": prod,
            }
        if abs(s) > RATIO_FLOOR:
            n_ratio += 1
            ratio = abs(df) / abs(s)
            if ratio > d_hat:
                d_hat = ratio
                d_hat_witness = {"state": state.tolist(), "ratio": ratio}
            if ratio < d1_hat:
                d1_hat = ratio
                d1_hat_witness = {"state": state.tolist(), "ratio": ratio}

    if non_finite_witness is not None:
        return entry_from_margin("monotonicity-growth", -math.inf, non_finite_witness,
                                 SIGN_CONDITION_TOL)
    if n_ratio == 0:
        return CertificateEntry(
            name="monotonicity-growth",
            status=INCONCLUSIVE,
            margin=0.0,
            witness={"reason": "all sampled alpha^T differences below floor",
                     "floor": RATIO_FLOOR},
            tolerance=SIGN_CONDITION_TOL,
        )

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
    return entry_from_margin("monotonicity-growth", margin, witness, SIGN_CONDITION_TOL)


@functools.cache
def oscillator_channel(tag, columns=True):
    """Parametrization and drift channel the certify pass checks for one loop.

    With columns the drift is the loop's own `goal_drift`, as in the certify
    pass, and takes sample columns; otherwise it is a copy on math.sin,
    which takes plain floats only.
    """
    sc = OscillatorScenario()
    sys = build_oscillator(sc)
    loop, offset, wobble = {
        "x": (sys.loop_x, sc.offset_x, WOBBLE_X), "y": (sys.loop_y, sc.offset_y, WOBBLE_Y),
    }[tag]
    if columns:
        return loop.param, functools.partial(goal_drift, loop.spec, loop.goal)

    def drift(state, theta_vec, t):
        s = theta_vec[0] * (state[0] - offset)
        return state[1] + (s + wobble * math.sin(s))

    return loop.param, drift


def assert_same_certificate(got, want):
    assert got.status == want.status
    assert got.margin == want.margin
    # as JSON, so that a NaN in a witness equals a NaN; a passing or failing
    # witness holds the estimates d_hat, d1_hat and the ratio sample count
    assert json.dumps(got.witness, sort_keys=True) == json.dumps(want.witness, sort_keys=True)


def counting(f):
    """f with a call counter in its `calls` attribute."""
    def counted(*args):
        counted.calls += 1
        return f(*args)

    counted.calls = 0
    return counted


def counted_draws(monkeypatch):
    """The list to which every later Halton draw appends its (dim, count)."""
    draws, halton = [], model._scrambled_halton

    def counted(dim, count, seed):
        draws.append((dim, count))
        return halton(dim, count, seed)

    monkeypatch.setattr(model, "_scrambled_halton", counted)
    return draws


class TestMonotonicityMatchesRowLoop:
    """The column path and the per-sample walk reproduce the per-row numpy loop."""

    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2500])
    @pytest.mark.parametrize("tag", ["x", "y"])
    def test_oscillator_channels_exact(self, tag, n):
        param, drift = oscillator_channel(tag)
        args = (param, drift, MONOTONICITY_STATE_BOX, MONOTONICITY_THETA_BOX, n)
        assert_same_certificate(monotonicity(*args), reference_monotonicity(*args))

    @pytest.mark.parametrize("n", [1, 2500])
    @pytest.mark.parametrize("tag", ["x", "y"])
    def test_scalar_only_oscillator_channels_exact(self, tag, n):
        # math.sin rejects arrays: the per-sample walk runs
        param, drift = oscillator_channel(tag, columns=False)
        args = (param, drift, MONOTONICITY_STATE_BOX, MONOTONICITY_THETA_BOX, n)
        assert_same_certificate(monotonicity(*args), reference_monotonicity(*args))

    def test_mis_broadcasting_drift_is_walked(self):
        # on columns np.sum adds up the whole sample block into one scalar,
        # which broadcasts silently; the spot check against the plain-float
        # call must catch it and walk the samples instead
        n = 1500
        f = counting(lambda s, th, t: th[0] * float(np.sum(s)))
        args = (shifted_alpha(), f, STATE_BOX, THETA_BOX, n)
        got = monotonicity(*args)
        assert f.calls > 2 * n
        assert_same_certificate(got, reference_monotonicity(*args))

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1))
    def test_columns_match_walk(self, n, seed):
        for tag in ("x", "y"):
            (param, columns), (_, walk) = oscillator_channel(tag), oscillator_channel(tag, False)
            boxes = (MONOTONICITY_STATE_BOX, MONOTONICITY_THETA_BOX, n)
            assert_same_certificate(monotonicity(param, columns, *boxes, seed=seed),
                                    monotonicity(param, walk, *boxes, seed=seed))

    def test_two_parameter_channel(self):
        param = Parametrization(
            alpha=lambda s, t: (s[0], s[1]),
            grad_state=lambda s, t: ((1.0, 0.0), (0.0, 1.0)),
            d_time=lambda s, t: (0.0, 0.0),
            dim=2, growth_upper=1.3, growth_lower=0.7,
        )

        def f(s, th, t):
            a = th[0] * s[0] + th[1] * s[1]
            return a + 0.3 * math.sin(a)

        theta_box = DomainBox((0.2, -1.0), (2.0, 1.0))
        args = (param, f, STATE_BOX, theta_box, 2500)
        got, want = monotonicity(*args), reference_monotonicity(*args)
        got, want = got.witness, want.witness
        assert got["n_ratio_samples"] == want["n_ratio_samples"]
        assert got["state"] == want["state"]
        assert got["d_hat"] == pytest.approx(want["d_hat"], rel=1e-9)
        assert got["d1_hat"] == pytest.approx(want["d1_hat"], rel=1e-9)

    def test_nan_drift_on_part_of_box(self):
        param = shifted_alpha()

        def f(s, th, t):
            if s[0] > 1.5:
                return float("nan")
            return th[0] * (s[0] - 1.0) + 0.5 * math.sin(th[0] * (s[0] - 1.0))

        args = (param, f, STATE_BOX, THETA_BOX, 2500)
        got = monotonicity(*args)
        assert got.status == FAIL and got.witness["state"][0] > 1.5
        assert_same_certificate(got, reference_monotonicity(*args))

    def test_ties_keep_first_witness(self):
        # a constant drift makes every ratio 0: the first sample is the witness
        args = (shifted_alpha(), lambda s, th, t: 0.0, STATE_BOX, THETA_BOX, 1500)
        got, want = monotonicity(*args), reference_monotonicity(*args)
        assert got.witness["d1_hat"] == 0.0
        assert_same_certificate(got, want)

    def test_zero_alpha_inconclusive(self):
        param = Parametrization(
            alpha=lambda s, t: (0.0,),
            grad_state=lambda s, t: ((0.0, 0.0),),
            d_time=lambda s, t: (0.0,),
            dim=1, growth_upper=1.0, growth_lower=1.0,
        )
        args = (param, lambda s, th, t: 0.0, STATE_BOX, THETA_BOX, 1500)
        got, want = monotonicity(*args), reference_monotonicity(*args)
        assert got.status == INCONCLUSIVE
        assert_same_certificate(got, want)


class TestColumnDrift:
    def test_damping_on_columns_matches_floats(self, oscillator):
        # the certify pass evaluates the loops' f2 formulas, hence the damping,
        # on the monotonicity sample columns, where they take np.sin; the
        # golden monotonicity entries rely on it matching the per-float
        # math.sin calls bit for bit
        time_box = DomainBox((0.0,), (0.0,))
        states, thetas, thetas_alt, _ = joint_sample(
            [MONOTONICITY_STATE_BOX, MONOTONICITY_THETA_BOX, MONOTONICITY_THETA_BOX, time_box],
            100_000,
        )
        for f2 in (oscillator.loop_x.spec.f2, oscillator.loop_y.spec.f2):
            for th in (thetas[:, 0], thetas_alt[:, 0]):
                (got,) = f2(tuple(states.T), (th,), 0.0)
                want = np.array([f2(row, (q,), 0.0)[0]
                                 for row, q in zip(states.tolist(), th.tolist())])
                assert isinstance(got, np.ndarray)
                assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_certify_calls_drift_on_columns(self, monkeypatch):
        # a silent fall back to the per-sample walk keeps every certificate
        # right but costs two drift calls per sample; count them
        drifts = []

        def verify(param, f, *args, **kwargs):
            drifts.append(counting(f))
            return verify_monotonicity(param, drifts[-1], *args, **kwargs)

        monkeypatch.setattr(certify, "verify_monotonicity", verify)
        sc = OscillatorScenario(integrator=IntegratorConfig(step=1e-3, t_final=0.5))
        certify_oscillator(sc, n_monotonicity_samples=10_000, tail_window=0.25,
                           tail_threshold=1e6)
        assert len(drifts) == 2
        # two column calls, and two plain-float calls per spot-checked row
        # (row 0 and at most three extreme rows)
        assert all(f.calls <= 2 + 2 * 4 for f in drifts)

    def test_certify_draws_the_monotonicity_sample_once(self, monkeypatch):
        # both loops check the same boxes, count and seed: one joint draw serves both
        draws = counted_draws(monkeypatch)
        sc = OscillatorScenario(integrator=IntegratorConfig(step=1e-3, t_final=0.5))
        certify_oscillator(sc, n_monotonicity_samples=1234, tail_window=0.25,
                           tail_threshold=1e6)
        assert [d for d in draws if d[1] == 1234] == [(4, 1234)]


class TestDraws:
    """Where the sampled checks' Halton draws are made, and how many."""

    def test_build_oscillator_draws_each_spec_box_once(self, monkeypatch):
        # the gradient and time-partial checks read the first 100 rows of
        # the realizability check's 200
        draws = counted_draws(monkeypatch)
        build_oscillator(OscillatorScenario())
        assert draws == [(2, 200), (2, 200)]

    def test_certify_pass_draws_five_times(self, monkeypatch):
        # one spec-box draw per loop at build, one Poincare draw per loop,
        # and one monotonicity draw for both loops' shared boxes
        draws = counted_draws(monkeypatch)
        sc = OscillatorScenario(integrator=IntegratorConfig(step=1e-3, t_final=0.5))
        certify_oscillator(sc, n_monotonicity_samples=1234, tail_window=0.25,
                           tail_threshold=1e6)
        assert draws == [(2, 200), (2, 200), (2, 50), (2, 50), (4, 1234)]


def nan_spec(edge, columns):
    """A one-parameter spec whose f2 is NaN where state[0] > edge, and its goal.

    With columns f2 takes sample columns; otherwise it branches on a float.
    """
    def f2(s, th, t):
        if columns:
            return (th[0] * (s[0] - 1.0) + np.where(np.greater(s[0], edge), np.nan, 0.0),)
        return (th[0] * (s[0] - 1.0) + (math.nan if s[0] > edge else 0.0),)

    spec = SubsystemSpec(layout=PartitionLayout(q=1, p=1), f1=lambda s, t: (s[1],), f2=f2,
                         g1=Constant((0.0,)), g2=Constant((1.0,)), param_dim=1, box=STATE_BOX)
    goal = GoalFunction(psi=lambda s, t: s[0] + s[1], grad_state=Constant((1.0, 1.0)),
                        d_time=Constant(0.0))
    return spec, goal


class TestNonFiniteDrift:
    """A NaN or infinite drift fails the monotonicity entry at its first such sample."""

    N = 10_000
    EDGE = 2.0  # the drift is non-finite on a sixth of the state box

    def assert_fails_at_first_sample_beyond_edge(self, entry):
        states = joint_sample([STATE_BOX, THETA_BOX, THETA_BOX, DomainBox((0.0,), (0.0,))],
                              self.N)[0]
        assert (entry.status, entry.margin) == (FAIL, -math.inf)
        assert entry.witness["state"] == states[np.argmax(states[:, 0] > self.EDGE)].tolist()
        assert not math.isfinite(entry.witness["drift_difference"])

    def test_finite_part_passes(self):
        entry = monotonicity(shifted_alpha(), lambda s, th, t: th[0] * (s[0] - 1.0),
                             STATE_BOX, THETA_BOX, self.N)
        assert entry.passed

    @pytest.mark.parametrize("columns", [True, False])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_user_drift(self, bad, columns):
        def f(s, th, t):
            if columns:
                return np.where(np.greater(s[0], self.EDGE), bad, th[0] * (s[0] - 1.0))
            return bad if s[0] > self.EDGE else th[0] * (s[0] - 1.0)

        entry = monotonicity(shifted_alpha(), f, STATE_BOX, THETA_BOX, self.N)
        self.assert_fails_at_first_sample_beyond_edge(entry)

    @pytest.mark.parametrize("columns", [True, False])
    def test_spec_drift_raising_is_a_failing_entry(self, columns):
        spec, goal = nan_spec(self.EDGE, columns)
        drift = functools.partial(goal_drift, spec, goal)
        with pytest.raises(NonFiniteValueError):
            drift((2.5, 0.0), (1.0,), 0.0)
        entry = monotonicity(shifted_alpha(), drift, STATE_BOX, THETA_BOX, self.N)
        self.assert_fails_at_first_sample_beyond_edge(entry)


class TestCertifyClosedLoop:
    """The certify pass on a system `build_oscillator` did not build."""

    # one (state box, theta box) pair per loop: the loops have different layouts
    BOXES = ((DomainBox((-2.0, -2.0), (2.0, 2.0)), DomainBox((0.5, 0.5), (1.5, 1.5))),
             (DomainBox((-2.0, -2.0), (2.0, 2.0)), DomainBox((0.5,), (1.5,))))
    OFFSETS = (0.05, 0.1)
    CFG = IntegratorConfig(step=1e-3, t_final=1.0)

    @staticmethod
    def build():
        """The matrix-gain loop (q = p = 1, d = 2) and a no-first-block loop (q = 0, p = 2)."""
        coupling = Coupling({"x": lambda y, t: (0.1 * y[1],),
                             "y": lambda x, t: (0.0, 0.2 * x[0])},
                            {"x": 0.1, "y": 0.2})
        return CoupledClosedLoop({"x": adaptation_tests.TestMatrixGainLoop.build(),
                                  "y": simulate_tests.TestNoFirstBlock.build_loop()}, coupling,
                                 {"x": (0.8, 1.2), "y": (0.9,)})

    def certify(self, sys, boxes=BOXES, n=500):
        aug0 = (0.5, -0.2, 0.0, 0.0, 0.4, -0.1, 0.0)  # x, theta_i_x, y, theta_i_y
        return certify_closed_loop(sys, self.CFG, aug0, boxes, self.OFFSETS, n,
                                   tail_window=0.5, tail_threshold=1e6)

    def test_full_report(self, monkeypatch):
        sys = self.build()
        draws = counted_draws(monkeypatch)
        report, traj = self.certify(sys)
        assert traj.status == STATUS_COMPLETED
        # one draw per pair: state, theta and theta_alt coordinates
        assert [d for d in draws if d[1] == 500] == [(6, 500), (4, 500)]
        sc = OscillatorScenario(integrator=self.CFG)
        oscillator_report, _ = certify_oscillator(sc, 500, tail_window=0.5, tail_threshold=1e6)
        assert [e.name for e in report.entries] == [e.name for e in oscillator_report.entries]

        entries = {e.name: e for e in report.entries}
        for tag, loop, (state_box, theta_box) in zip("xy", (sys.loop_x, sys.loop_y), self.BOXES):
            want = monotonicity(loop.param, functools.partial(goal_drift, loop.spec, loop.goal),
                                state_box, theta_box, 500)
            got = entries[f"monotonicity-growth-{tag}"]
            assert (got.status, got.margin, got.witness) == (want.status, want.margin,
                                                             want.witness)
        want = check_small_gain(small_gain_problem(sys))
        assert (entries["small-gain"].margin, entries["small-gain"].witness) == (
            want.margin, want.witness)
        for channel, beta, offset in zip(("into_x", "into_y"), (0.1, 0.2), self.OFFSETS):
            witness = entries[f"coupling-bound-l2-{channel}"].witness
            assert (witness["beta"], witness["offset"]) == (beta, offset)

    def test_small_gain_problem_reads_the_system(self):
        prob = small_gain_problem(self.build())
        assert (prob.gains[0].slope, prob.gains[1].slope) == (1.0 / 1.5, 1.0 / 2.0)
        assert prob.betas == (0.1, 0.2)
        assert prob.ratios == (4.0, 1.0)

    def test_realizability_margin_reads_the_residual(self, oscillator):
        # a potential whose second-block partial is off by 1e-9 builds, and
        # the entry's margin is the tolerance minus that residual
        loop = oscillator.loop_x
        loop = replace(loop, potential=replace(loop.potential, grad_state=Constant(((0.0, 1e-9),))))
        assert loop.realizability_residual == 1e-9
        boxes = ((MONOTONICITY_STATE_BOX, MONOTONICITY_THETA_BOX),) * 2
        report, _ = certify_closed_loop(replace(oscillator, loops={**oscillator.loops, "x": loop}),
                                        self.CFG,
                                        OscillatorScenario().initial_state(), boxes,
                                        self.OFFSETS, 500, tail_window=0.5, tail_threshold=1e6)
        entry = next(e for e in report.entries if e.name == "realizability-x")
        assert entry.passed and entry.margin == REALIZABILITY_TOL - 1e-9

    def test_one_box_pair_per_loop(self):
        with pytest.raises(ValueError):
            self.certify(self.build(), self.BOXES[:1])

    @pytest.mark.parametrize("offsets, name", [
        ((math.inf, 0.1), "'x'"), ((0.05, math.nan), "'y'"), ((-0.05, 0.1), "'x'"),
    ])
    def test_offsets_checked_before_sampling_or_integrating(self, monkeypatch, offsets, name):
        # an infinite offset passed its coupling-bound entry with margin inf
        sys = self.build()
        draws, runs = counted_draws(monkeypatch), []
        monkeypatch.setattr(certify, "integrate", lambda *args: runs.append(args))
        with pytest.raises(ValueError, match=f"offset into {name} must be finite and >= 0"):
            certify_closed_loop(sys, self.CFG, (0.5, -0.2, 0.0, 0.0, 0.4, -0.1, 0.0),
                                self.BOXES, offsets, 500)
        assert (draws, runs) == ([], [])


class TestSmallGainLinear:
    def osc_problem(self, k1, k2):
        return SmallGainProblem(
            gains=(GainDescriptor.linear(0.0, 0.5), GainDescriptor.linear(0.0, 0.5)),
            betas=(k1, k2),
            ratios=(3.0, 4.0),
        )

    @pytest.mark.parametrize(
        "k1,k2,expected",
        [
            (0.4, 0.4, True),
            (1.0, 0.1, True),
            (0.199999, 1.0, True),
            (0.2, 1.0, False),
            (0.25, 1.0, False),
            (0.5, 0.5, False),
        ],
    )
    def test_boundary_arithmetic(self, k1, k2, expected):
        entry = check_small_gain(self.osc_problem(k1, k2))
        assert entry.passed is expected

    def test_margin_is_exact_product_slack(self):
        entry = check_small_gain(self.osc_problem(0.4, 0.4))
        assert entry.margin == 1.0 - (0.4 * 0.5) * (0.4 * 0.5) * 4.0 * 5.0
        assert entry.witness["regime"] == "linear"

    def test_offsets_do_not_affect_verdict(self):
        with_offsets = SmallGainProblem(
            gains=(GainDescriptor.linear(2.0, 0.5), GainDescriptor.linear(5.0, 0.5)),
            betas=(0.4, 0.4), ratios=(3.0, 4.0),
        )
        assert check_small_gain(with_offsets).passed


def reference_small_gain(prob):
    """The earlier scan of check_small_gain over 125 probe triples, kept as an oracle.

    Each junction of the loop takes its own probe (1 + d) * identity, d in
    PROBES; the best slack wins, and a probe that leaves a gain table is
    skipped.  Scanned regime only.
    """
    deltas = np.geomspace(certify.SCAN_LOWER, certify.SCAN_UPPER, certify.SCAN_POINTS)
    (gain_x, gain_y), (beta_x, beta_y), (ratio_x, ratio_y) = prob.gains, prob.betas, prob.ratios

    def composed(delta, d1, d2, d3):
        s = (ratio_x + 1.0) * delta
        s = (1.0 + d2) * s
        s = gain_x.evaluate(s)
        s = beta_x * s
        s = (1.0 + d3) * s
        s = (ratio_y + 1.0) * s
        s = (1.0 + d1) * s
        s = gain_y.evaluate(s)
        return beta_y * s

    best, best_probe, last_range_error = -np.inf, None, None
    for d1, d2, d3 in itertools.product(PROBES, repeat=3):
        try:
            slack = min((delta - composed(delta, d1, d2, d3)) / delta for delta in deltas)
        except GainRangeError as err:
            last_range_error = err
            continue
        if slack > best:
            best, best_probe = slack, (d1, d2, d3)
    if best_probe is None:
        return CertificateEntry(name="small-gain", status=INCONCLUSIVE, margin=0.0,
                                witness={"regime": "scanned", "reason": str(last_range_error)})
    witness = {"regime": "scanned", "scan_range": [float(deltas[0]), float(deltas[-1])],
               "probe": list(best_probe), "note": "pass certifies the scanned amplitude range only"}
    return entry_from_margin("small-gain", float(best), witness, 0.0, strict=True)


PROBES = (1e-6, 1e-3, 1e-2, 0.1, 0.5)  # the probe deltas the scan once tried


@st.composite
def gains(draw):
    """A linear or tabulated gain whose slopes lie in [0, 2], often with a zero offset."""
    offset = draw(st.just(0.0) | st.floats(0.0, 1.0))
    if draw(st.booleans()):
        return GainDescriptor.linear(offset, draw(st.floats(0.0, 2.0)))
    points = [(0.0, offset)]
    for exponent, slope in draw(st.lists(st.tuples(st.floats(0.0, 6.0), st.floats(0.0, 2.0)),
                                         min_size=1, max_size=3)):
        x, y = points[-1]
        points.append((x + 10.0**exponent, y + slope * 10.0**exponent))
    return GainDescriptor.tabulated(points)


class TestSmallGainScanned:
    @settings(max_examples=40, deadline=None)
    @given(gain_x=gains(), gain_y=gains(), beta_x=st.floats(0.0, 2.0),
           beta_y=st.floats(0.0, 2.0), ratio_x=st.floats(1.0, 4.0), ratio_y=st.floats(1.0, 4.0))
    def test_one_probe_matches_probe_family(self, gain_x, gain_y, beta_x, beta_y, ratio_x,
                                            ratio_y):
        # every gain is non-decreasing, so the smallest probe on all three
        # junctions has the best slack, and leaves a table only when every
        # probe does; the inconclusive reason now names its own query
        assume(not (gain_x.is_linear and gain_y.is_linear))
        prob = SmallGainProblem((gain_x, gain_y), (beta_x, beta_y), (ratio_x, ratio_y))
        got, want = check_small_gain(prob), reference_small_gain(prob)
        assert (got.status, got.margin.hex()) == (want.status, want.margin.hex())
        if got.status == INCONCLUSIVE:
            assert got.witness.pop("reason").startswith("gain table covers inputs up to")
            want.witness.pop("reason")
        assert got.witness == want.witness

    def test_tabulated_gain_pass(self):
        prob = SmallGainProblem(
            gains=(GainDescriptor.tabulated([(0.0, 0.0), (1e4, 4e3)]),
                   GainDescriptor.linear(0.0, 0.5)),
            betas=(0.5, 0.5), ratios=(1.0, 1.0),
        )
        entry = check_small_gain(prob)
        assert entry.passed
        assert entry.witness["regime"] == "scanned"

    def test_uncovered_scan_range_is_inconclusive(self):
        prob = SmallGainProblem(
            gains=(GainDescriptor.tabulated([(0.0, 0.0), (10.0, 4.0)]),
                   GainDescriptor.linear(0.0, 0.5)),
            betas=(0.5, 0.5), ratios=(1.0, 1.0),
        )
        entry = check_small_gain(prob)
        assert entry.status == INCONCLUSIVE

    def test_contractive_fails_when_gain_too_large(self):
        prob = SmallGainProblem(
            gains=(GainDescriptor.tabulated([(0.0, 0.0), (1e4, 9e3)]),
                   GainDescriptor.linear(0.0, 0.9)),
            betas=(1.0, 1.0), ratios=(1.0, 1.0),
        )
        entry = check_small_gain(prob)
        assert not entry.passed

    def test_overflowing_slack_fails_without_warning(self):
        # at the smallest amplitude (delta - composed) / delta overflows; the
        # package's test settings turn numpy's overflow warning into an error
        prob = SmallGainProblem(
            gains=(GainDescriptor.tabulated([(0.0, 0.0), (1e4, 1e4)]),
                   GainDescriptor.linear(0.0, 1e308)),
            betas=(1.0, 1.0), ratios=(4.0, 4.0),
        )
        entry = check_small_gain(prob)
        assert (entry.status, entry.margin) == (FAIL, -math.inf)

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            SmallGainProblem(
                gains=(GainDescriptor.linear(0.0, 0.5), GainDescriptor.linear(0.0, 0.5)),
                betas=(0.1, 0.1), ratios=(0.5, 1.0),
            )

    @pytest.mark.parametrize("change", [
        {"betas": (math.nan, 0.1)}, {"betas": (0.1, math.inf)},
        {"ratios": (math.nan, 1.0)}, {"ratios": (1.0, math.inf)},
        {"betas": (math.inf, 0.1)}, {"betas": (0.1, math.nan)},
        {"ratios": (math.inf, 1.0)}, {"ratios": (1.0, math.nan)},
    ])
    def test_problem_rejects_non_finite_or_empty(self, change):
        data = dict(gains=(GainDescriptor.linear(0.0, 0.5), GainDescriptor.linear(0.0, 0.5)),
                    betas=(0.1, 0.1), ratios=(1.0, 1.0))
        with pytest.raises(ValueError):
            SmallGainProblem(**{**data, **change})


class TestLoopBoundMonitor:
    def test_matched_start_trivial_bounds(self, oscillator):
        cfg = IntegratorConfig(step=1e-3, t_final=2.0)
        traj = integrate_loop(oscillator.loop_x, (1.0,), zero_disturbance(), cfg,
                              (-1.0, 0.0), (-1.0,))
        # effective initial estimate equals the true parameter: no mismatch energy
        assert traj.l2_mismatch[-1] <= 1e-9
        entries = monitor_loop_bounds(traj, oscillator.loop_x, (1.0,))
        assert [e.name for e in entries] == [
            "mismatch-energy-bound", "parameter-error-bound", "parameter-error-monotone",
        ]
        assert all(e.passed for e in entries)

    def test_growing_parameter_error_fails_monotone_check(self, oscillator):
        # a zero-eps record whose weighted parameter error grows: the margin
        # is the tolerance minus the largest one-step increase of half the
        # squared error (gain 1), 0.5 * (0.5**2 - 0.1**2) = 0.12
        t, zero = np.array([0.0, 1.0, 2.0]), np.zeros(3)
        traj = LoopTrajectory(
            t=t, state=np.zeros((3, 2)), theta_hat=np.array([[1.0], [0.9], [0.5]]),
            theta_i=np.zeros((3, 1)), psi=zero, u=zero, eps=zero, mismatch=zero, l2_psi=zero,
            l2_eps=zero, l2_mismatch=zero, linf_psi=zero, status=STATUS_COMPLETED)
        entry = monitor_loop_bounds(traj, oscillator.loop_x, (1.0,))[-1]
        assert entry.name == "parameter-error-monotone" and entry.status == FAIL
        assert entry.witness == {"t": 2.0, "increase": pytest.approx(0.12)}
        assert entry.margin == STEP_MONOTONE_TOL - entry.witness["increase"]

    def test_no_monotonicity_entry_under_disturbance(self, coupled_traj, oscillator):
        entries = monitor_loop_bounds(coupled_traj.loops["x"], oscillator.loop_x, (1.0,))
        assert [e.name for e in entries] == [
            "mismatch-energy-bound", "parameter-error-bound",
        ]

    def test_corrupted_gain_under_disturbance_violates_bounds(self, oscillator):
        """Wrong-sign adaptation with an injected decaying disturbance is flagged."""
        from decadapt import build_oscillator
        from decadapt.simulate import exponential_disturbance

        bad_sys = build_oscillator(OscillatorScenario())
        object.__setattr__(bad_sys.loop_y, "gain", -bad_sys.loop_y.gain)
        cfg = IntegratorConfig(step=1e-3, t_final=10.0)
        traj = integrate_loop(bad_sys.loop_y, (1.0,), exponential_disturbance(1.0, 1.0),
                              cfg, (1.0, 0.0), (-2.0,))
        entries = monitor_loop_bounds(traj, oscillator.loop_y, (1.0,))
        assert any(not e.passed for e in entries)
        assert min(e.margin for e in entries) < 0


class TestCouplingBoundMonitor:
    def test_zero_coupling_trivially_passes(self):
        sc = OscillatorScenario(k1=0.0, k2=0.0,
                                integrator=IntegratorConfig(step=1e-3, t_final=2.0))
        traj = integrate(build_oscillator(sc), sc.integrator, sc.initial_state())
        for channel in ("into_x", "into_y"):
            assert verify_coupling_bound(traj, channel, 0.0).passed

    def test_l2_bound_holds_with_offsets(self, coupled_traj):
        # the channels track partner position, not its goal error: the bound
        # needs the scenario's offsets
        from decadapt.scenario import coupling_offsets

        off_x, off_y = coupling_offsets(OscillatorScenario())
        l2_x = verify_coupling_bound(coupled_traj, "into_x", 0.4, offset=off_x)
        l2_y = verify_coupling_bound(coupled_traj, "into_y", 0.4, offset=off_y)
        assert l2_x.passed and l2_y.passed

    @pytest.mark.parametrize("beta, offset, name", [
        (0.4, math.inf, "offset"), (0.4, math.nan, "offset"), (0.4, -0.1, "offset"),
        (math.inf, 0.0, "beta"), (math.nan, 0.0, "beta"), (-0.4, 0.0, "beta"),
    ])
    def test_bound_must_be_finite_and_non_negative(self, coupled_traj, beta, offset, name):
        with pytest.raises(ValueError, match=f"{name} must be finite and >= 0"):
            verify_coupling_bound(coupled_traj, "into_x", beta, offset=offset)

    def test_unknown_channel(self, coupled_traj):
        with pytest.raises(ValueError, match="channel must be 'into_x' or 'into_y'"):
            verify_coupling_bound(coupled_traj, "into_z", 0.4)


class TestConvergenceMonitor:
    def test_oscillator_tails_pass(self, coupled_traj):
        entries = monitor_tail_convergence(coupled_traj, 5.0, 1e-2)
        assert len(entries) == 4
        assert all(e.passed for e in entries)

    def test_constant_nonzero_goal_error_fails(self):
        # no adaptation drive, wrong fixed estimate: psi settles away from zero?
        # simpler: threshold far below the actual tail
        sc = OscillatorScenario(integrator=IntegratorConfig(step=1e-3, t_final=1.0))
        traj = integrate(build_oscillator(sc), sc.integrator, sc.initial_state())
        entries = monitor_tail_convergence(traj, 0.5, 1e-12)
        assert any(not e.passed for e in entries)

    def test_matched_zero_coupling_mismatch_tail_is_zero(self):
        sc = OscillatorScenario(
            k1=0.0, k2=0.0, theta_i_x0=2.0, theta_i_y0=1.0,
            x1_0=0.0, x2_0=1.0, y1_0=0.0, y2_0=0.0,
            integrator=IntegratorConfig(step=1e-3, t_final=2.0),
        )
        # effective estimates start at the true values: theta_i chosen so that
        # gain (psi alpha + theta_i) = 1 at t = 0
        sys = build_oscillator(sc)
        traj = integrate(sys, sc.integrator, sc.initial_state())
        entries = monitor_tail_convergence(traj, 1.0, 1e-9)
        mismatch = [e for e in entries if e.name.startswith("tail-mismatch")]
        assert all(e.passed for e in mismatch)

    def test_requires_completed_trajectory(self):
        sc = OscillatorScenario(
            integrator=IntegratorConfig(step=1e-3, t_final=1.0, divergence_bound=1.5)
        )
        traj = integrate(build_oscillator(sc), sc.integrator, sc.initial_state())
        with pytest.raises(ValueError, match="completed"):
            monitor_tail_convergence(traj, 0.5, 1.0)


class TestTailArguments:
    """A tail window or threshold that cannot be honoured is a ValueError naming it."""

    @pytest.mark.parametrize("window", [-5.0, math.nan])
    def test_bad_window(self, coupled_traj, window):
        with pytest.raises(ValueError, match="window"):
            monitor_tail_convergence(coupled_traj, window, 1e-2)

    # (window, threshold): a NaN threshold is rejected over a positive window
    # and over the zero window that keeps only the last sample
    @pytest.mark.parametrize("thresholds", [(1.0, math.nan), (0.0, math.nan)])
    def test_nan_threshold(self, coupled_traj, thresholds):
        with pytest.raises(ValueError, match="threshold"):
            monitor_tail_convergence(coupled_traj, *thresholds)

    def test_zero_window_is_valid(self, coupled_traj):
        entries = monitor_tail_convergence(coupled_traj, 0.0, 1e-2)
        assert all(e.witness["from_t"] == coupled_traj.t_end for e in entries)

    @pytest.mark.parametrize("kwargs, name", [
        ({"tail_window": -5.0}, "window"),
        ({"tail_window": math.nan}, "window"),
        ({"tail_threshold": math.nan}, "threshold"),
        # a bound the run leaves at once: the run aborts before the tail monitor
        ({"tail_window": -5.0, "divergence_bound": 1.5}, "window"),
        ({"tail_window": math.nan, "divergence_bound": 1.5}, "window"),
        ({"tail_threshold": math.nan, "divergence_bound": 1.5}, "threshold"),
    ])
    def test_certify_oscillator(self, kwargs, name):
        kwargs = dict(kwargs)
        integrator = IntegratorConfig(step=1e-3, t_final=1.0,
                                      divergence_bound=kwargs.pop("divergence_bound", 1e6))
        sc = OscillatorScenario(integrator=integrator)
        with pytest.raises(ValueError, match=name):
            certify_oscillator(sc, n_monotonicity_samples=100, **kwargs)


class TestExports:
    def test_certify_star_import(self):
        namespace = {}
        exec("from decadapt.certify import *", namespace)
        assert set(certify.__all__) <= namespace.keys()

    def test_package_names_resolve(self):
        import decadapt

        namespace = {}
        exec("from decadapt import *", namespace)
        public = [name for name in vars(decadapt) if not name.startswith("_")]
        assert "verify_monotonicity" in public and "monotonicity_sample" in public
        assert all(getattr(decadapt, name) is namespace[name] for name in public)


class TestReportConventions:
    def test_entry_validation(self):
        with pytest.raises(ValueError):
            CertificateEntry(name="", status=PASS, margin=0.0)
        with pytest.raises(ValueError):
            CertificateEntry(name="x", status="maybe", margin=0.0)

    def test_margin_sign_matches_verdict(self, coupled_traj, oscillator):
        entries = []
        entries += monitor_loop_bounds(coupled_traj.loops["x"], oscillator.loop_x, (1.0,))
        entries += monitor_tail_convergence(coupled_traj, 5.0, 1e-2)
        entries.append(verify_coupling_bound(coupled_traj, "into_x", 0.4))
        for k1, k2 in ((0.4, 0.4), (0.2, 1.0), (0.5, 0.5)):
            entries.append(check_small_gain(SmallGainProblem(
                gains=(GainDescriptor.linear(0.0, 0.5), GainDescriptor.linear(0.0, 0.5)),
                betas=(k1, k2), ratios=(3.0, 4.0),
            )))
        for e in entries:
            assert np.isfinite(e.margin)
            if e.passed:
                assert e.margin >= 0.0
            else:
                assert e.margin <= 0.0

    def test_report_serialization(self):
        report = CertificateReport()
        report.add(CertificateEntry(name="a", status=PASS, margin=0.5, witness={"t": 1.0}))
        report.add(CertificateEntry(name="b", status=FAIL, margin=-0.1))
        assert not report.all_pass
        text = report.to_text()
        assert "FAILURES PRESENT" in text and "a  PASS" in text
        import json

        payload = json.loads(report.to_json())
        assert payload["all_pass"] is False
        assert payload["entries"][0]["name"] == "a"

    def test_non_finite_values_are_strict_json(self):
        witness = {"product": math.inf, "nested": {"ratios": [1.0, -math.inf, (math.nan, 2.5)]}}
        report = CertificateReport()
        report.add(CertificateEntry(name="a", status=FAIL, margin=-math.inf, witness=witness,
                                    tolerance=math.nan))
        report.add(CertificateEntry(name="b", status=PASS, margin=0.25, witness={"t": 1.0}))

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        a, b = json.loads(report.to_json(), parse_constant=reject)["entries"]
        assert (a["margin"], a["tolerance"], a["witness"]) == (
            "-inf", "nan", {"product": "inf", "nested": {"ratios": [1.0, "-inf", ["nan", 2.5]]}})
        assert (b["margin"], b["witness"]) == (0.25, {"t": 1.0})
        assert report.entries[0].witness is witness and witness["product"] == math.inf
        assert "Infinity" in report.to_text()  # the text report keeps json.dumps' own tokens
