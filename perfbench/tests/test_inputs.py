"""Seeded scenario files: seed 0 is the shipped set, every seed is reproducible."""

import configparser
from pathlib import Path

import pytest

from inputs import PERTURBATION, SCENARIO_NAMES, scenario_text, small_gain_bound, write_scenarios

SHIPPED = Path(__file__).resolve().parents[2] / "scenarios"


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_seed_zero_reproduces_shipped_files(name):
    assert scenario_text(name, 0) == (SHIPPED / f"{name}.cfg").read_text(encoding="utf-8")


@pytest.mark.parametrize("seed", [1, 7, 123456])
def test_same_seed_same_bytes(tmp_path, seed):
    first = write_scenarios(tmp_path / "a", seed)
    second = write_scenarios(tmp_path / "b", seed)
    for name in SCENARIO_NAMES:
        assert first[name].read_bytes() == second[name].read_bytes()
    assert scenario_text("reference", seed) != scenario_text("reference", seed + 1)


def _parse(text):
    cp = configparser.ConfigParser()
    cp.read_string(text)
    return cp


@pytest.mark.parametrize("seed", range(1, 41))
def test_other_seeds_stay_in_the_domain_and_small_gain_region(seed):
    for name in SCENARIO_NAMES:
        cp = _parse(scenario_text(name, seed))
        base = _parse(scenario_text(name, 0))
        k1, k2 = float(cp["coupling"]["k1"]), float(cp["coupling"]["k2"])
        if name == "decoupled":
            assert k1 == k2 == 0.0
        else:
            assert k1 > 0 and k2 > 0 and k1 * k2 < small_gain_bound()
        for section in ("subsystem.x", "subsystem.y"):
            for key in ("init1", "init2", "theta_i"):
                delta = float(cp[section][key]) - float(base[section][key])
                assert abs(delta) <= PERTURBATION
                assert abs(float(cp[section][key])) < 5.0  # state domain box
            for key in ("lambda", "offset", "theta", "gamma"):
                assert cp[section][key] == base[section][key]
        assert dict(cp["integrator"]) == dict(base["integrator"])
