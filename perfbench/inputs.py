"""Seeded scenario files for the benchmark.

Seed 0 reproduces the three shipped scenario files byte for byte.  Any
other seed perturbs the initial states and integral estimates inside the
state domain box and draws the couplings from the region where the
small-gain condition k1 k2 < lambda_x lambda_y / 20 holds (the decoupled
scenario stays decoupled).  The program under test only ever sees the
files written here.
"""

from __future__ import annotations

import random
from pathlib import Path

SCENARIO_NAMES = ("decoupled", "reference", "strong-weak")

# Shipped parameters, in file order; every value is written with repr().
_SUBSYSTEM = {"lambda": 2.0, "offset": 1.0, "theta": 1.0, "gamma": 1.0}
_BASE = {
    "decoupled": {"k1": 0.0, "k2": 0.0},
    "reference": {"k1": 0.4, "k2": 0.4},
    "strong-weak": {"k1": 1.0, "k2": 0.1},
}
_INIT_X = {"init1": -1.0, "init2": 0.0, "theta_i": -1.0}
_INIT_Y = {"init1": 1.0, "init2": 0.0, "theta_i": -2.0}
_INTEGRATOR = {"step": 0.001, "t_final": 50.0, "divergence_bound": 1000000.0, "log_every": 1}

PERTURBATION = 0.5  # half-width of the initial-state and theta_I perturbation
SMALL_GAIN_SHARE = 0.9  # couplings are drawn with k1 k2 below this share of the bound


def small_gain_bound(lambda_x: float = 2.0, lambda_y: float = 2.0) -> float:
    """Coupling-product bound of the oscillator family: lambda_x lambda_y / 20."""
    return lambda_x * lambda_y / 20.0


def _draw_couplings(name: str, rng: random.Random) -> dict:
    if name == "decoupled":
        return {"k1": 0.0, "k2": 0.0}
    cap = SMALL_GAIN_SHARE * small_gain_bound()
    if name == "strong-weak":
        k1 = rng.uniform(0.8, 1.2)
        k2 = rng.uniform(0.05, min(0.15, cap / k1))
    else:
        k1 = rng.uniform(0.1, 0.6)
        k2 = rng.uniform(0.1, min(0.6, cap / k1))
    return {"k1": k1, "k2": k2}


def _perturbed(values: dict, rng: random.Random) -> dict:
    return {key: v + rng.uniform(-PERTURBATION, PERTURBATION) for key, v in values.items()}


def scenario_text(name: str, seed: int) -> str:
    """Scenario file contents for one named scenario under a workload seed."""
    if name not in _BASE:
        raise ValueError(f"unknown scenario {name!r}")
    coupling, init_x, init_y = _BASE[name], _INIT_X, _INIT_Y
    if seed != 0:
        # one stream per (seed, scenario) so adding a scenario changes no other
        rng = random.Random(f"{seed}:{name}")
        coupling = _draw_couplings(name, rng)
        init_x = _perturbed(init_x, rng)
        init_y = _perturbed(init_y, rng)
    sections = (
        ("coupling", coupling),
        ("subsystem.x", {**_SUBSYSTEM, **init_x}),
        ("subsystem.y", {**_SUBSYSTEM, **init_y}),
        ("integrator", _INTEGRATOR),
    )
    out = []
    for section, values in sections:
        out.append(f"[{section}]\n")
        out.extend(f"{key} = {value!r}\n" for key, value in values.items())
        out.append("\n")
    return "".join(out)


def write_scenarios(directory: Path, seed: int) -> dict:
    """Write every scenario for `seed` under `directory`; returns name -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in SCENARIO_NAMES:
        path = directory / f"{name}.cfg"
        path.write_text(scenario_text(name, seed), encoding="utf-8")
        paths[name] = path
    return paths
