import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decadapt import (
    DomainBox,
    GainDescriptor,
    IntegratorConfig,
    OscillatorScenario,
    Parametrization,
    SmallGainProblem,
    build_oscillator,
    check_small_gain,
    integrate,
    monitor_loop_bounds,
    monitor_tail_convergence,
    verify_coupling_bound,
    verify_monotonicity,
)
from decadapt import scenario
from decadapt.certify import (
    GROWTH_REL_SLACK,
    RATIO_FLOOR,
    SIGN_CONDITION_TOL,
    MonotonicityCertificate,
)
from decadapt.model import DEFAULT_SAMPLE_SEED, joint_sample
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
    damping,
)
from decadapt.simulate import integrate_loop, zero_disturbance


def shifted_alpha(growth=(1.5, 0.5)):
    return Parametrization(
        alpha=lambda s, t: (s[0] - 1.0,),
        grad_state=lambda s, t: ((1.0, 0.0),),
        d_time=lambda s, t: (0.0,),
        dim=1, growth_upper=growth[0], growth_lower=growth[1],
    )


STATE_BOX = DomainBox((-3.0, -3.0), (3.0, 3.0))
THETA_BOX = DomainBox((0.2,), (2.0,))


class TestVerifyMonotonicity:
    def test_linear_in_parameters_has_unit_ratios(self):
        param = shifted_alpha((1.0, 1.0))
        cert = verify_monotonicity(
            param, lambda s, th, t: th[0] * (s[0] - 1.0),
            STATE_BOX, THETA_BOX, n_samples=1000,
        )
        assert cert.entry.passed
        assert cert.d_hat == pytest.approx(1.0, abs=1e-9)
        assert cert.d1_hat == pytest.approx(1.0, abs=1e-9)

    def test_anti_monotone_fails_with_negative_margin(self):
        box = DomainBox((0.5, -1.0), (2.0, 1.0))
        param = Parametrization(
            alpha=lambda s, t: (s[0],),
            grad_state=lambda s, t: ((1.0, 0.0),),
            d_time=lambda s, t: (0.0,),
            dim=1, growth_upper=1.0, growth_lower=1.0,
        )
        cert = verify_monotonicity(
            param, lambda s, th, t: -th[0] * s[0], box, THETA_BOX, n_samples=500
        )
        assert cert.entry.status == FAIL
        assert cert.entry.margin < 0

    def test_estimates_tighten_with_more_samples(self):
        param = shifted_alpha()

        def f(s, th, t):
            return s[1] + th[0] * (s[0] - 1.0) + 0.5 * math.sin(th[0] * (s[0] - 1.0))

        small = verify_monotonicity(param, f, STATE_BOX, THETA_BOX, n_samples=500)
        large = verify_monotonicity(param, f, STATE_BOX, THETA_BOX, n_samples=1000)
        assert large.d_hat >= small.d_hat
        assert large.d1_hat <= small.d1_hat

    def test_two_parameter_linear_channel(self):
        param = Parametrization(
            alpha=lambda s, t: (s[0], s[1]),
            grad_state=lambda s, t: ((1.0, 0.0), (0.0, 1.0)),
            d_time=lambda s, t: (0.0, 0.0),
            dim=2, growth_upper=1.0, growth_lower=1.0,
        )
        theta_box = DomainBox((0.2, -1.0), (2.0, 1.0))
        cert = verify_monotonicity(
            param, lambda s, th, t: th[0] * s[0] + th[1] * s[1],
            STATE_BOX, theta_box, n_samples=2000,
        )
        assert cert.entry.passed
        assert cert.d_hat == pytest.approx(1.0, abs=1e-8)
        assert cert.d1_hat == pytest.approx(1.0, abs=1e-8)

    def test_degenerate_sampling_is_inconclusive(self):
        param = Parametrization(
            alpha=lambda s, t: (0.0,),
            grad_state=lambda s, t: ((0.0, 0.0),),
            d_time=lambda s, t: (0.0,),
            dim=1, growth_upper=1.0, growth_lower=1.0,
        )
        cert = verify_monotonicity(
            param, lambda s, th, t: 0.0, STATE_BOX, THETA_BOX, n_samples=100
        )
        assert cert.entry.status == INCONCLUSIVE
        assert cert.n_ratio_samples == 0

    def test_alpha_length_must_match_theta_box(self):
        param = Parametrization(
            alpha=lambda s, t: (s[0], s[1]),
            grad_state=lambda s, t: ((1.0, 0.0), (0.0, 1.0)),
            d_time=lambda s, t: (0.0, 0.0),
            dim=2, growth_upper=1.0, growth_lower=1.0,
        )
        with pytest.raises(ValueError):
            verify_monotonicity(param, lambda s, th, t: th[0] * s[0],
                                STATE_BOX, THETA_BOX, n_samples=10)

    @pytest.mark.parametrize("n", [0, -3])
    def test_rejects_nonpositive_sample_count(self, n):
        with pytest.raises(ValueError, match="n_samples must be >= 1"):
            verify_monotonicity(
                shifted_alpha(), lambda s, th, t: th[0] * (s[0] - 1.0),
                STATE_BOX, THETA_BOX, n_samples=n,
            )


def reference_monotonicity(param, f, state_box, theta_box, n_samples,
                           seed=DEFAULT_SAMPLE_SEED, time_range=(0.0, 0.0)):
    """The earlier per-row numpy loop of verify_monotonicity, kept as an oracle."""
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
    for state, th, th_alt, (t,) in zip(states, thetas, thetas_alt, times):
        alpha = np.asarray(param.alpha(state, t), dtype=float)
        df = float(f(state, th_alt, t)) - float(f(state, th, t))
        s = float(alpha @ (th_alt - th))
        prod = df * s
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


@functools.cache
def oscillator_channel(tag, sin=np.sin):
    """Parametrization and drift channel certify_oscillator checks for one loop.

    With np.sin the drift takes sample columns, as certify_oscillator's
    does; with math.sin it takes plain floats only.
    """
    sc = OscillatorScenario()
    sys = build_oscillator(sc)
    loop, offset, wobble = {
        "x": (sys.loop_x, sc.offset_x, WOBBLE_X), "y": (sys.loop_y, sc.offset_y, WOBBLE_Y),
    }[tag]

    def drift(state, theta_vec, t):
        return state[1] + damping(state[0], theta_vec[0], offset, wobble, sin)

    return loop.param, drift


def assert_same_certificate(got, want):
    assert got.entry.status == want.entry.status
    assert got.entry.margin == want.entry.margin
    assert got.entry.witness == want.entry.witness
    assert got.n_ratio_samples == want.n_ratio_samples
    if want.n_ratio_samples:
        assert (got.d_hat, got.d1_hat) == (want.d_hat, want.d1_hat)
    else:
        assert math.isnan(got.d_hat) and math.isnan(got.d1_hat)


def counting(f):
    """f with a call counter in its `calls` attribute."""
    def counted(*args):
        counted.calls += 1
        return f(*args)

    counted.calls = 0
    return counted


class TestMonotonicityMatchesRowLoop:
    """The column path and the per-sample walk reproduce the per-row numpy loop."""

    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2500])
    @pytest.mark.parametrize("tag", ["x", "y"])
    def test_oscillator_channels_exact(self, tag, n):
        param, drift = oscillator_channel(tag)
        args = (param, drift, MONOTONICITY_STATE_BOX, MONOTONICITY_THETA_BOX, n)
        assert_same_certificate(verify_monotonicity(*args), reference_monotonicity(*args))

    @pytest.mark.parametrize("n", [1, 2500])
    @pytest.mark.parametrize("tag", ["x", "y"])
    def test_scalar_only_oscillator_channels_exact(self, tag, n):
        # math.sin rejects arrays: the per-sample walk runs
        param, drift = oscillator_channel(tag, math.sin)
        args = (param, drift, MONOTONICITY_STATE_BOX, MONOTONICITY_THETA_BOX, n)
        assert_same_certificate(verify_monotonicity(*args), reference_monotonicity(*args))

    def test_mis_broadcasting_drift_is_walked(self):
        # on columns np.sum adds up the whole sample block into one scalar,
        # which broadcasts silently; the spot check against the plain-float
        # call must catch it and walk the samples instead
        n = 1500
        f = counting(lambda s, th, t: th[0] * float(np.sum(s)))
        args = (shifted_alpha(), f, STATE_BOX, THETA_BOX, n)
        got = verify_monotonicity(*args)
        assert f.calls > 2 * n
        assert_same_certificate(got, reference_monotonicity(*args))

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1))
    def test_columns_match_walk(self, n, seed):
        for tag in ("x", "y"):
            (param, columns), (_, walk) = oscillator_channel(tag), oscillator_channel(tag, math.sin)
            boxes = (MONOTONICITY_STATE_BOX, MONOTONICITY_THETA_BOX, n)
            assert_same_certificate(verify_monotonicity(param, columns, *boxes, seed=seed),
                                    verify_monotonicity(param, walk, *boxes, seed=seed))

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
        got, want = verify_monotonicity(*args), reference_monotonicity(*args)
        assert got.n_ratio_samples == want.n_ratio_samples
        assert got.entry.witness["state"] == want.entry.witness["state"]
        assert got.d_hat == pytest.approx(want.d_hat, rel=1e-9)
        assert got.d1_hat == pytest.approx(want.d1_hat, rel=1e-9)

    def test_nan_drift_on_part_of_box(self):
        param = shifted_alpha()

        def f(s, th, t):
            if s[0] > 1.5:
                return float("nan")
            return th[0] * (s[0] - 1.0) + 0.5 * math.sin(th[0] * (s[0] - 1.0))

        args = (param, f, STATE_BOX, THETA_BOX, 2500)
        assert_same_certificate(verify_monotonicity(*args), reference_monotonicity(*args))

    def test_ties_keep_first_witness(self):
        # a constant drift makes every ratio 0: the first sample is the witness
        args = (shifted_alpha(), lambda s, th, t: 0.0, STATE_BOX, THETA_BOX, 1500)
        got, want = verify_monotonicity(*args), reference_monotonicity(*args)
        assert got.d1_hat == 0.0
        assert_same_certificate(got, want)

    def test_zero_alpha_inconclusive(self):
        param = Parametrization(
            alpha=lambda s, t: (0.0,),
            grad_state=lambda s, t: ((0.0, 0.0),),
            d_time=lambda s, t: (0.0,),
            dim=1, growth_upper=1.0, growth_lower=1.0,
        )
        args = (param, lambda s, th, t: 0.0, STATE_BOX, THETA_BOX, 1500)
        got, want = verify_monotonicity(*args), reference_monotonicity(*args)
        assert got.entry.status == INCONCLUSIVE
        assert_same_certificate(got, want)


class TestColumnDrift:
    def test_damping_on_columns_matches_floats(self):
        # the certify drift evaluates damping with np.sin on the monotonicity
        # samples; the golden monotonicity entries rely on it matching the
        # per-float math.sin calls bit for bit
        time_box = DomainBox((0.0,), (0.0,))
        states, thetas, thetas_alt, _ = joint_sample(
            [MONOTONICITY_STATE_BOX, MONOTONICITY_THETA_BOX, MONOTONICITY_THETA_BOX, time_box],
            100_000,
        )
        sc = OscillatorScenario()
        for offset, wobble in ((sc.offset_x, WOBBLE_X), (sc.offset_y, WOBBLE_Y)):
            for th in (thetas[:, 0], thetas_alt[:, 0]):
                got = damping(states[:, 0], th, offset, wobble, np.sin)
                want = np.array([damping(p, q, offset, wobble)
                                 for p, q in zip(states[:, 0].tolist(), th.tolist())])
                assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_certify_calls_drift_on_columns(self, monkeypatch):
        # a silent fall back to the per-sample walk keeps every certificate
        # right but costs two drift calls per sample; count them
        drifts = []

        def verify(param, f, *args, **kwargs):
            drifts.append(counting(f))
            return verify_monotonicity(param, drifts[-1], *args, **kwargs)

        monkeypatch.setattr(scenario, "verify_monotonicity", verify)
        sc = OscillatorScenario(integrator=IntegratorConfig(step=1e-3, t_final=0.5))
        certify_oscillator(sc, n_monotonicity_samples=10_000, tail_window=0.25,
                           tail_threshold=1e6)
        assert len(drifts) == 2
        # two column calls, and two plain-float calls per spot-checked row
        # (row 0 and at most three extreme rows)
        assert all(f.calls <= 2 + 2 * 4 for f in drifts)


class TestSmallGainLinear:
    def osc_problem(self, k1, k2):
        return SmallGainProblem(
            gain_x22=GainDescriptor.linear(0.0, 0.5),
            gain_y22=GainDescriptor.linear(0.0, 0.5),
            beta_x=k1, beta_y=k2,
            ratio_x=3.0, ratio_y=4.0,
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
            gain_x22=GainDescriptor.linear(2.0, 0.5),
            gain_y22=GainDescriptor.linear(5.0, 0.5),
            beta_x=0.4, beta_y=0.4, ratio_x=3.0, ratio_y=4.0,
        )
        assert check_small_gain(with_offsets).passed


class TestSmallGainScanned:
    def test_tabulated_gain_pass(self):
        prob = SmallGainProblem(
            gain_x22=GainDescriptor.tabulated([(0.0, 0.0), (1000.0, 400.0)]),
            gain_y22=GainDescriptor.linear(0.0, 0.5),
            beta_x=0.5, beta_y=0.5, ratio_x=1.0, ratio_y=1.0,
            delta_max=400.0,
        )
        entry = check_small_gain(prob)
        assert entry.passed
        assert entry.witness["regime"] == "scanned"

    def test_uncovered_scan_range_is_inconclusive(self):
        prob = SmallGainProblem(
            gain_x22=GainDescriptor.tabulated([(0.0, 0.0), (10.0, 4.0)]),
            gain_y22=GainDescriptor.linear(0.0, 0.5),
            beta_x=0.5, beta_y=0.5, ratio_x=1.0, ratio_y=1.0,
            delta_max=1e3,
        )
        entry = check_small_gain(prob)
        assert entry.status == INCONCLUSIVE

    def test_contractive_fails_when_gain_too_large(self):
        prob = SmallGainProblem(
            gain_x22=GainDescriptor.tabulated([(0.0, 0.0), (1000.0, 900.0)]),
            gain_y22=GainDescriptor.linear(0.0, 0.9),
            beta_x=1.0, beta_y=1.0, ratio_x=1.0, ratio_y=1.0,
            delta_max=100.0,
        )
        entry = check_small_gain(prob)
        assert not entry.passed

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            SmallGainProblem(
                gain_x22=GainDescriptor.linear(0.0, 0.5),
                gain_y22=GainDescriptor.linear(0.0, 0.5),
                beta_x=0.1, beta_y=0.1, ratio_x=0.5, ratio_y=1.0,
            )
        with pytest.raises(ValueError):
            SmallGainProblem(
                gain_x22=GainDescriptor.linear(0.0, 0.5),
                gain_y22=GainDescriptor.linear(0.0, 0.5),
                beta_x=0.1, beta_y=0.1, ratio_x=1.0, ratio_y=1.0,
                probe_deltas=(0.0,),
            )


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

    def test_no_monotonicity_entry_under_disturbance(self, coupled_traj, oscillator):
        entries = monitor_loop_bounds(coupled_traj.loop_view("x"), oscillator.loop_x, (1.0,))
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
            for mode in ("pointwise", "l2"):
                assert verify_coupling_bound(traj, channel, 0.0, mode=mode).passed

    def test_pointwise_fails_where_l2_holds(self, coupled_traj):
        from decadapt.scenario import coupling_offsets

        off_x, off_y = coupling_offsets(OscillatorScenario())
        l2_x = verify_coupling_bound(coupled_traj, "into_x", 0.4, mode="l2", offset=off_x)
        l2_y = verify_coupling_bound(coupled_traj, "into_y", 0.4, mode="l2", offset=off_y)
        assert l2_x.passed and l2_y.passed
        pw = verify_coupling_bound(coupled_traj, "into_x", 0.4, mode="pointwise")
        assert not pw.passed  # channel tracks partner position, not the goal error


class TestConvergenceMonitor:
    def test_oscillator_tails_pass(self, coupled_traj):
        entries = monitor_tail_convergence(coupled_traj, 5.0, 1e-2, 1e-2)
        assert len(entries) == 4
        assert all(e.passed for e in entries)

    def test_constant_nonzero_goal_error_fails(self):
        # no adaptation drive, wrong fixed estimate: psi settles away from zero?
        # simpler: threshold far below the actual tail
        sc = OscillatorScenario(integrator=IntegratorConfig(step=1e-3, t_final=1.0))
        traj = integrate(build_oscillator(sc), sc.integrator, sc.initial_state())
        entries = monitor_tail_convergence(traj, 0.5, 1e-12, 1e-12)
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
        entries = monitor_tail_convergence(traj, 1.0, 1e6, 1e-9)
        mismatch = [e for e in entries if e.name.startswith("tail-mismatch")]
        assert all(e.passed for e in mismatch)

    def test_requires_completed_trajectory(self):
        sc = OscillatorScenario(
            integrator=IntegratorConfig(step=1e-3, t_final=1.0, divergence_bound=1.5)
        )
        traj = integrate(build_oscillator(sc), sc.integrator, sc.initial_state())
        with pytest.raises(ValueError, match="completed"):
            monitor_tail_convergence(traj, 0.5, 1.0, 1.0)


class TestReportConventions:
    def test_entry_validation(self):
        with pytest.raises(ValueError):
            CertificateEntry(name="", status=PASS, margin=0.0)
        with pytest.raises(ValueError):
            CertificateEntry(name="x", status="maybe", margin=0.0)

    def test_margin_sign_matches_verdict(self, coupled_traj, oscillator):
        entries = []
        entries += monitor_loop_bounds(coupled_traj.loop_view("x"), oscillator.loop_x, (1.0,))
        entries += monitor_tail_convergence(coupled_traj, 5.0, 1e-2, 1e-2)
        entries.append(verify_coupling_bound(coupled_traj, "into_x", 0.4, mode="pointwise"))
        for k1, k2 in ((0.4, 0.4), (0.2, 1.0), (0.5, 0.5)):
            entries.append(check_small_gain(SmallGainProblem(
                gain_x22=GainDescriptor.linear(0.0, 0.5),
                gain_y22=GainDescriptor.linear(0.0, 0.5),
                beta_x=k1, beta_y=k2, ratio_x=3.0, ratio_y=4.0,
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
        assert len(report.failures()) == 1
        text = report.to_text()
        assert "FAILURES PRESENT" in text and "a  PASS" in text
        import json

        payload = json.loads(report.to_json())
        assert payload["all_pass"] is False
        assert payload["entries"][0]["name"] == "a"
