"""Golden final rows: the integrators must reproduce these floats exactly.

The values are integrator output recorded with `repr()`.  Any change to
the order of floating-point operations on the closed-loop path shows up
here as an inequality, so a refactor that claims bit-identical states is
held to it.
"""

import math
from dataclasses import replace
from pathlib import Path

import pytest

import tests.test_adaptation as adaptation_tests
import tests.test_simulate as simulate_tests
from decadapt import (
    Disturbance,
    IntegratorConfig,
    build_oscillator,
    integrate,
    integrate_loop,
    integrate_virtual,
)
from decadapt.adaptation import parameter_estimate
from decadapt.scenario import certify_oscillator, load_scenario
from decadapt.simulate import exponential_disturbance, pulse_disturbance

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# (scenario, log_every) -> (status, samples, t, x, y, theta_i_x, theta_i_y,
#                           theta_hat_x, theta_hat_y) at the last logged row;
# step 1e-3, horizon 2.  The final point is logged on every grid, so the
# log_every 7 rows equal the log_every 1 rows.
COUPLED = {
    ("reference", 1): (
        "completed", 2001, 2.0,
        (-0.2702686384727334, 0.19294304325932374), (-0.4821577123939282, -0.34603131874624543),
        (0.9434429103753619,), (-0.5649746028256325,),
        (1.0416671889261935,), (0.6625321569988311,),
    ),
    ("reference", 7): (
        "completed", 287, 2.0,
        (-0.2702686384727334, 0.19294304325932374), (-0.4821577123939282, -0.34603131874624543),
        (0.9434429103753619,), (-0.5649746028256325,),
        (1.0416671889261935,), (0.6625321569988311,),
    ),
    ("strong-weak", 1): (
        "completed", 2001, 2.0,
        (-0.2894637205800329, 0.1337758790937372), (-0.4298140816284311, -0.46028970164670846),
        (0.862761663865512,), (-0.7692735628026457,),
        (1.0635154871975052,), (0.50340936063489,),
    ),
    ("strong-weak", 7): (
        "completed", 287, 2.0,
        (-0.2894637205800329, 0.1337758790937372), (-0.4298140816284311, -0.46028970164670846),
        (0.862761663865512,), (-0.7692735628026457,),
        (1.0635154871975052,), (0.50340936063489,),
    ),
    ("decoupled", 1): (
        "completed", 2001, 2.0,
        (-0.2523549275844947, 0.23403928869575122), (-0.410026488792858, -0.49893805375902384),
        (0.9770623193858158,), (-0.8386402650286904,),
        (0.9999999999999919,), (0.44302381734294594,),
    ),
    ("decoupled", 7): (
        "completed", 287, 2.0,
        (-0.2523549275844947, 0.23403928869575122), (-0.410026488792858, -0.49893805375902384),
        (0.9770623193858158,), (-0.8386402650286904,),
        (0.9999999999999919,), (0.44302381734294594,),
    ),
}

# x loop of reference.cfg under exponential_disturbance(0.5, 1.0), step 1e-3, horizon 2
LOOP = ("completed", 2001, (-0.25477441656980215, 0.21660882221639588),
        (0.8786746912287078,), (0.9265639026165429,))
VIRTUAL = ("completed", 2001, (-0.25477441656977745, 0.21660882221637745),
           (0.9265639026165503,))

# log_every -> (status, samples, t, state, theta_hat, psi) at the last logged
# row of the y loop of reference.cfg under pulse_disturbance(0.5, 1.0, 2.0),
# integrated by the reduced-form oracle; step 1e-3, horizon 2 (the final
# point on both grids)
VIRTUAL_PULSE_Y = {
    1: ("completed", 2001, 2.0, (-0.3449300945427801, -0.4948176819290001),
        (0.1604829124137347,), -0.8397477764717802),
    7: ("completed", 287, 2.0, (-0.3449300945427801, -0.4948176819290001),
        (0.1604829124137347,), -0.8397477764717802),
}


# loop -> ((status, samples, state, theta_i, theta_hat) of integrate_loop,
#          (status, samples, state, theta_hat, psi) of integrate_virtual) at
# the last logged row of the two test loops with more than one coordinate
# per block or parameter; step 1e-3, horizon 2
LAYOUTS = {
    "matrix-gain": (
        ("completed", 2001, (0.23080718436173764, -0.48944234563362815),
         (0.13693039217524874, 0.16782742940068837), (0.05257666024905244, -0.6122776061988012)),
        ("completed", 2001, (0.2308071843617368, -0.4894423456336297),
         (0.052576660249051645, -0.6122776061988037), -0.2586351612718929),
    ),
    "no-first-block": (
        ("completed", 2001, (0.9486830984864112, 0.28846254740142846),
         (0.21504196207243037,), (0.25664728269909104,)),
        ("completed", 2001, (0.9486830984864392, 0.2884625474014417),
         (0.2566472826990729,), 0.2884625474014417),
    ),
}


# Every entry of certify_oscillator on the shipped scenarios at horizon 0.5,
# 10^4 monotonicity samples, tail window 0.25 and tail threshold 1e6, in
# report order: (name, status, margin, witness, tolerance).  The checks on
# the loops' own maps depend only on the offsets, damping wobbles and boxes,
# which the three scenarios share, so their first ten entries coincide.
_MONO_X = ("monotonicity-growth-x", "pass", 3.1263286728611223e-10, {
    "state": [0.9982951324312515, -0.13117373127108944], "theta": [1.5306324123753892],
    "theta_alt": [1.5376160093224627], "t": 0.0, "product": 2.1263286728611224e-10,
    "d_hat": 1.4999999680954414, "d1_hat": 0.5000640070321414, "n_ratio_samples": 10000,
}, 1e-10)
_MONO_Y = ("monotonicity-growth-y", "pass", 3.2680835944802043e-10, {
    "state": [0.9982951324312515, -0.13117373127108944], "theta": [1.5306324123753892],
    "theta_alt": [1.5376160093224627], "t": 0.0, "product": 2.268083594480204e-10,
    "d_hat": 1.5999999617157932, "d1_hat": 0.40007680843854193, "n_ratio_samples": 10000,
}, 1e-10)
_CHECKS = [
    entry
    for tag in "xy"
    for entry in (
        (f"gradient-goal-{tag}", "pass", 9.999999295896559e-06,
         {"worst_rel_error": 7.041034422167785e-13}, 1e-05),
        (f"gradient-parametrization-{tag}", "pass", 9.999777955395076e-06,
         {"worst_rel_error": 2.220446049250313e-10}, 1e-05),
        (f"realizability-{tag}", "pass", 1e-07, {"residual": 0.0}, 1e-07),
        (f"poincare-symmetry-{tag}", "pass", 1e-06, {}, 1e-06),
    )
] + [_MONO_X, _MONO_Y]
_TAIL = {"window": 0.25, "from_t": 0.25}
REPORT = {
    "reference": _CHECKS + [
        ("small-gain", "pass", 0.19999999999999984,
         {"regime": "linear", "loop_product": 0.8000000000000002}, 0.0),
        ("mismatch-energy-bound-x", "pass", 0.0001, {"t": 0.0, "lhs": 0.0, "rhs": 0.0001}, 0.0001),
        ("parameter-error-bound-x", "pass", 0.0001, {"t": 0.0, "lhs": 0.0, "rhs": 0.0001}, 0.0001),
        ("mismatch-energy-bound-y", "pass", 2.683381572999748,
         {"t": 0.0, "lhs": 0.0, "rhs": 2.683381572999748}, 0.0001),
        ("parameter-error-bound-y", "pass", 9.999999999976694e-05,
         {"t": 0.0, "lhs": 9.0, "rhs": 9.0001}, 0.0001),
        ("coupling-bound-l2-into_x", "pass", 0.1843087486946257,
         {"t": 0.5, "beta": 0.4, "offset": 0.282842712474619}, 1e-06),
        ("coupling-bound-l2-into_y", "pass", 0.19404605135815373,
         {"t": 0.5, "beta": 0.4, "offset": 0.282842712474619}, 1e-06),
        ("tail-psi-x", "pass", 999999.4434411994, {"tail_sup": 0.5565588006669785, **_TAIL}, 0.0),
        ("tail-psi-y", "pass", 999999.4927101764, {"tail_sup": 0.5072898236528773, **_TAIL}, 0.0),
        ("tail-mismatch-x", "pass", 999999.7056784048,
         {"tail_sup": 0.29432159526315615, **_TAIL}, 0.0),
        ("tail-mismatch-y", "pass", 999999.050353618,
         {"tail_sup": 0.9496463820405198, **_TAIL}, 0.0),
    ],
    "strong-weak": _CHECKS + [
        ("small-gain", "pass", 0.5, {"regime": "linear", "loop_product": 0.5}, 0.0),
        ("mismatch-energy-bound-x", "pass", 0.0001, {"t": 0.0, "lhs": 0.0, "rhs": 0.0001}, 0.0001),
        ("parameter-error-bound-x", "pass", 0.0001, {"t": 0.0, "lhs": 0.0, "rhs": 0.0001}, 0.0001),
        ("mismatch-energy-bound-y", "pass", 2.6623880599539564,
         {"t": 0.5, "lhs": 0.2826894812026856, "rhs": 2.945077541156642}, 0.0001),
        ("parameter-error-bound-y", "pass", 9.999999999976694e-05,
         {"t": 0.0, "lhs": 9.0, "rhs": 9.0001}, 0.0001),
        ("coupling-bound-l2-into_x", "pass", 0.4840714884831061,
         {"t": 0.5, "beta": 1.0, "offset": 0.7071067811865475}, 1e-06),
        ("coupling-bound-l2-into_y", "pass", 0.045759842436159104,
         {"t": 0.5, "beta": 0.1, "offset": 0.07071067811865475}, 1e-06),
        ("tail-psi-x", "pass", 999999.5147362751, {"tail_sup": 0.48526372494557835, **_TAIL}, 0.0),
        ("tail-psi-y", "pass", 999999.4321641711, {"tail_sup": 0.5678358289158784, **_TAIL}, 0.0),
        ("tail-mismatch-x", "pass", 999999.2282771947,
         {"tail_sup": 0.7717228053117039, **_TAIL}, 0.0),
        ("tail-mismatch-y", "pass", 999999.1595848459,
         {"tail_sup": 0.8404151540745879, **_TAIL}, 0.0),
    ],
    "decoupled": _CHECKS + [
        ("small-gain", "pass", 1.0, {"regime": "linear", "loop_product": 0.0}, 0.0),
        ("mismatch-energy-bound-x", "pass", 9.999999998049923e-05,
         {"t": 0.5, "lhs": 1.9500768300255874e-14, "rhs": 0.0001}, 0.0001),
        ("parameter-error-bound-x", "pass", 0.0001, {"t": 0.0, "lhs": 0.0, "rhs": 0.0001}, 0.0001),
        ("parameter-error-monotone-x", "pass", 1e-08,
         {"t": 0.066, "increase": 1.2646426386824346e-29}, 1e-08),
        ("mismatch-energy-bound-y", "pass", 2.4133997455267724,
         {"t": 0.5, "lhs": 0.2699818274729756, "rhs": 2.683381572999748}, 0.0001),
        ("parameter-error-bound-y", "pass", 9.999999999976694e-05,
         {"t": 0.0, "lhs": 9.0, "rhs": 9.0001}, 0.0001),
        ("parameter-error-monotone-y", "pass", 1e-08, {"t": 0.001, "increase": 0.0}, 1e-08),
        ("coupling-bound-l2-into_x", "pass", 1e-06, {"t": 0.0, "beta": 0.0, "offset": 0.0}, 1e-06),
        ("coupling-bound-l2-into_y", "pass", 1e-06, {"t": 0.0, "beta": 0.0, "offset": 0.0}, 1e-06),
        ("tail-psi-x", "pass", 999999.3934693403, {"tail_sup": 0.6065306597126976, **_TAIL}, 0.0),
        ("tail-psi-y", "pass", 999999.4121049116, {"tail_sup": 0.5878950884102208, **_TAIL}, 0.0),
        ("tail-mismatch-x", "pass", 1000000.0, {"tail_sup": 4.929390229335695e-14, **_TAIL}, 0.0),
        ("tail-mismatch-y", "pass", 999999.1961905787,
         {"tail_sup": 0.8038094212117958, **_TAIL}, 0.0),
    ],
}


def _row(arr) -> tuple:
    return tuple(float(v) for v in arr[-1])


@pytest.mark.parametrize("name, every", sorted(COUPLED))
def test_coupled_final_row(name, every):
    sc = load_scenario(SCENARIOS / f"{name}.cfg")
    cfg = IntegratorConfig(step=1e-3, t_final=2.0, log_every=every)
    traj = integrate(build_oscillator(sc), cfg, sc.initial_state())
    lx, ly = traj.loops["x"], traj.loops["y"]
    got = (
        traj.status, traj.t.shape[0], float(traj.t[-1]),
        _row(lx.state), _row(ly.state), _row(lx.theta_i), _row(ly.theta_i),
        _row(lx.theta_hat), _row(ly.theta_hat),
    )
    assert got == COUPLED[(name, every)]


def test_single_loop_and_virtual_final_rows():
    sc = load_scenario(SCENARIOS / "reference.cfg")
    sys = build_oscillator(sc)
    cfg = IntegratorConfig(step=1e-3, t_final=2.0)
    dist = exponential_disturbance(0.5, 1.0)
    state0, ti0 = (sc.x1_0, sc.x2_0), (sc.theta_i_x0,)
    real = integrate_loop(sys.loop_x, sys.theta_true_x, dist, cfg, state0, ti0)
    th0 = parameter_estimate(sys.loop_x, state0, 0.0, ti0)
    virt = integrate_virtual(sys.loop_x, sys.theta_true_x, dist, cfg, state0, th0)
    assert (real.status, real.t.shape[0], _row(real.state), _row(real.theta_i),
            _row(real.theta_hat)) == LOOP
    assert (virt.status, virt.t.shape[0], _row(virt.state), _row(virt.theta_hat)) == VIRTUAL


@pytest.mark.parametrize("every", sorted(VIRTUAL_PULSE_Y))
def test_virtual_pulse_final_row(every):
    sc = load_scenario(SCENARIOS / "reference.cfg")
    sys = build_oscillator(sc)
    cfg = IntegratorConfig(step=1e-3, t_final=2.0, log_every=every)
    state0 = (sc.y1_0, sc.y2_0)
    th0 = parameter_estimate(sys.loop_y, state0, 0.0, (sc.theta_i_y0,))
    virt = integrate_virtual(sys.loop_y, sys.theta_true_y, pulse_disturbance(0.5, 1.0, 2.0),
                             cfg, state0, th0)
    got = (virt.status, virt.t.shape[0], float(virt.t[-1]), _row(virt.state),
           _row(virt.theta_hat), float(virt.psi[-1]))
    assert got == VIRTUAL_PULSE_Y[every]


@pytest.mark.parametrize("name", sorted(REPORT))
def test_report_entries(name):
    sc = load_scenario(SCENARIOS / f"{name}.cfg")
    sc = replace(sc, integrator=IntegratorConfig(step=1e-3, t_final=0.5))
    report, _ = certify_oscillator(sc, n_monotonicity_samples=10000, tail_window=0.25,
                                   tail_threshold=1e6)
    got = [(e.name, e.status, e.margin, e.witness, e.tolerance) for e in report.entries]
    assert got == REPORT[name]


def _layout_runs(name):
    """integrate_loop and integrate_virtual on one of the LAYOUTS loops, from rest estimates."""
    if name == "matrix-gain":
        loop, theta = adaptation_tests.TestMatrixGainLoop.build(), (0.8, 1.2)
        state0, ti0, dist = (0.5, -0.2), (0.0, 0.0), exponential_disturbance(0.5, 1.0)
    else:
        loop, theta = simulate_tests.TestNoFirstBlock.build_loop(), (0.9,)
        state0, ti0 = (0.4, -0.1), (0.0,)
        dist = Disturbance(signal=lambda t: 0.5 * math.exp(-t), direction=(0.3, 0.7))
    cfg = IntegratorConfig(step=1e-3, t_final=2.0)
    real = integrate_loop(loop, theta, dist, cfg, state0, ti0)
    th0 = parameter_estimate(loop, state0, 0.0, ti0)
    virt = integrate_virtual(loop, theta, dist, cfg, state0, th0)
    return ((real.status, real.t.shape[0], _row(real.state), _row(real.theta_i),
             _row(real.theta_hat)),
            (virt.status, virt.t.shape[0], _row(virt.state), _row(virt.theta_hat),
             float(virt.psi[-1])))


@pytest.mark.parametrize("name", sorted(LAYOUTS))
def test_layout_final_rows(name):
    assert _layout_runs(name) == LAYOUTS[name]
