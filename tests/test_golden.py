"""Golden final rows: the integrators must reproduce these floats exactly.

The values are integrator output recorded with `repr()`.  Any change to
the order of floating-point operations on the closed-loop path shows up
here as an inequality, so a refactor that claims bit-identical states is
held to it.
"""

from dataclasses import replace
from pathlib import Path

import pytest

from decadapt import (
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
# step 1e-3, horizon 2
COUPLED = {
    ("reference", 1): (
        "completed", 2001, 2.0,
        (-0.2702686384727334, 0.19294304325932374), (-0.4821577123939282, -0.34603131874624543),
        (0.9434429103753619,), (-0.5649746028256325,),
        (1.0416671889261935,), (0.6625321569988311,),
    ),
    ("reference", 7): (
        "completed", 286, 1.995,
        (-0.27123549669467173, 0.1938011850112211), (-0.4804113399750217, -0.3525221981631361),
        (0.9423847861889191,), (-0.5758271176389599,),
        (1.0408220318630406,), (0.6572571376662862,),
    ),
    ("strong-weak", 1): (
        "completed", 2001, 2.0,
        (-0.2894637205800329, 0.1337758790937372), (-0.4298140816284311, -0.46028970164670846),
        (0.862761663865512,), (-0.7692735628026457,),
        (1.0635154871975052,), (0.50340936063489,),
    ),
    ("strong-weak", 7): (
        "completed", 286, 1.995,
        (-0.29013461472454877, 0.13458331149938518), (-0.4274963383488459, -0.4668090132207477),
        (0.8606500744684011,), (-0.7799522175218186,),
        (1.061332195124699,), (0.4966653972095535,),
    ),
    ("decoupled", 1): (
        "completed", 2001, 2.0,
        (-0.2523549275844947, 0.23403928869575122), (-0.410026488792858, -0.49893805375902384),
        (0.9770623193858158,), (-0.8386402650286904,),
        (0.9999999999999919,), (0.44302381734294594,),
    ),
    ("decoupled", 7): (
        "completed", 286, 1.995,
        (-0.25352759421388255, 0.235027880094054), (-0.4075156706590881, -0.505389343410277),
        (0.9768100978657185,), (-0.8491860951175935,),
        (0.9999999999999918,), (0.43574201800829326,),
    ),
}

# x loop of reference.cfg under exponential_disturbance(0.5, 1.0), step 1e-3, horizon 2
LOOP = ("completed", 2001, (-0.25477441656980215, 0.21660882221639588),
        (0.8786746912287078,), (0.9265639026165429,))
VIRTUAL = ("completed", 2001, (-0.25477441656977745, 0.21660882221637745),
           (0.9265639026165503,))

# log_every -> (status, samples, t, state, theta_hat, psi) at the last logged
# row of the y loop of reference.cfg under pulse_disturbance(0.5, 1.0, 2.0),
# integrated by the reduced-form oracle; step 1e-3, horizon 2
VIRTUAL_PULSE_Y = {
    1: ("completed", 2001, 2.0, (-0.3449300945427801, -0.4948176819290001),
        (0.1604829124137347,), -0.8397477764717802),
    7: ("completed", 286, 1.995, (-0.3424428254863164, -0.5001715201085096),
        (0.1530322620758519,), -0.8426143455948261),
}


# monotonicity-growth entries of certify_oscillator at 10^4 samples:
# (status, margin, witness).  The three shipped scenarios share the offsets
# and damping wobbles the check depends on, so their entries coincide.
_MONO_X = ("pass", 3.1263286728611223e-10, {
    "state": [0.9982951324312515, -0.13117373127108944], "theta": [1.5306324123753892],
    "theta_alt": [1.5376160093224627], "t": 0.0, "product": 2.1263286728611224e-10,
    "d_hat": 1.4999999680954414, "d1_hat": 0.5000640070321414, "n_ratio_samples": 10000,
})
_MONO_Y = ("pass", 3.2680835944802043e-10, {
    "state": [0.9982951324312515, -0.13117373127108944], "theta": [1.5306324123753892],
    "theta_alt": [1.5376160093224627], "t": 0.0, "product": 2.268083594480204e-10,
    "d_hat": 1.5999999617157932, "d1_hat": 0.40007680843854193, "n_ratio_samples": 10000,
})
MONOTONICITY = {
    name: {"monotonicity-growth-x": _MONO_X, "monotonicity-growth-y": _MONO_Y}
    for name in ("reference", "strong-weak", "decoupled")
}


def _row(arr) -> tuple:
    return tuple(float(v) for v in arr[-1])


@pytest.mark.parametrize("name, every", sorted(COUPLED))
def test_coupled_final_row(name, every):
    sc = load_scenario(SCENARIOS / f"{name}.cfg")
    cfg = IntegratorConfig(step=1e-3, t_final=2.0, log_every=every)
    traj = integrate(build_oscillator(sc), cfg, sc.initial_state())
    got = (
        traj.status, traj.t.shape[0], float(traj.t[-1]),
        _row(traj.x), _row(traj.y), _row(traj.theta_i_x), _row(traj.theta_i_y),
        _row(traj.theta_hat_x), _row(traj.theta_hat_y),
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


@pytest.mark.parametrize("name", sorted(MONOTONICITY))
def test_monotonicity_entries(name):
    sc = load_scenario(SCENARIOS / f"{name}.cfg")
    sc = replace(sc, integrator=IntegratorConfig(step=1e-3, t_final=0.5))
    report, _ = certify_oscillator(sc, n_monotonicity_samples=10000, tail_window=0.25,
                                   tail_threshold=1e6)
    got = {e.name: (e.status, e.margin, e.witness)
           for e in report.entries if e.name.startswith("monotonicity")}
    assert got == MONOTONICITY[name]
