"""The four benchmark workloads: operations, what they observe, and checks.

Each operation drives a public entry point the way a user does:
`decadapt.cli.run_cli` for `simulate`, `sweep` and `certify`, and
`simulate.integrate_loop` / `integrate_virtual` for the library-only
oracle path.  `run()` performs the timed work; `observe()` reads its
outputs afterwards (untimed) into plain values; `check()` compares those
values with the recorded seed-0 reference, or, for other seeds, with the
properties every valid output has.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

from inputs import SCENARIO_NAMES, small_gain_bound

SIMULATE_T_FINAL = "10"
SWEEP_T_FINAL = "4"
SWEEP_TAIL_WINDOW = "2"
SWEEP_CELLS = 16  # the default 4x4 k1,k2 grid
CERTIFY_ARGS = ("--t-final", "10", "--tail-window", "2", "--monotonicity-samples", "100000")
LOOP_T_FINAL = 10.0
LOOP_STEP = 1e-3

STATE_TOL = 1e-12  # final states must match the seed-0 reference this closely
STATE_BOUND = 10.0  # criterion-2 bound on every state coordinate
AGREEMENT_BOUND = 1e-4  # criterion-5 bound on |theta_hat realizable - virtual|
STATE_COLUMNS = ("t", "x1", "x2", "y1", "y2", "thetaHatX1", "thetaHatY1")
SWEEP_HEADER = "k1,k2,smallGainPass,status,tailSupPsiX,tailSupPsiY"


def run_cli(argv: list) -> int:
    """Call the CLI in process with its stdout captured; returns the exit code."""
    from decadapt import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.run_cli(argv)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= STATE_TOL


class SimulateOp:
    kind = "simulate"

    def __init__(self, scenario: str, path: Path, out_dir: Path):
        self.name = f"simulate:{scenario}"
        self.ref_key = scenario
        self.csv = f"simulate-{scenario}.csv"
        self.out = out_dir / self.csv
        self.argv = ["simulate", str(path), "--t-final", SIMULATE_T_FINAL,
                     "--log-every", "1", "--out", self.csv]

    def run(self, serial: bool = False):
        return run_cli(self.argv)

    def observe(self, rc) -> dict:
        with open(self.out, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            rows = [line.rstrip("\n").split(",") for line in fh]
        cols = header.split(",")
        idx = [cols.index(c) for c in STATE_COLUMNS if c in cols]
        peak = max(abs(float(r[i])) for r in rows for i in idx[1:5])
        final = {cols[i]: float(rows[-1][i]) for i in idx}
        return {"exit": rc, "header": header, "rows": len(rows), "final": final,
                "peak_state": peak}

    def check(self, obs: dict, ref: dict, ref_key: str | None) -> list:
        problems = []
        if obs["exit"] != 0:
            problems.append(f"exit code {obs['exit']}")
        if obs["header"] != ref["header"]:
            problems.append("CSV header differs")
        if obs["rows"] != ref["rows"]:
            problems.append(f"{obs['rows']} rows, expected {ref['rows']}")
        if not obs["peak_state"] <= STATE_BOUND:
            problems.append(f"state reached {obs['peak_state']!r}")
        if ref_key is not None:
            want = ref["final"][ref_key]
            got = obs["final"]
            bad = [c for c in STATE_COLUMNS if c not in got or not _close(got[c], want[c])]
            if bad:
                problems.append(f"final state differs in {bad}")
        return problems


class SweepOp:
    kind = "sweep"

    def __init__(self, path: Path, out_dir: Path, workers: int):
        self.name = "sweep:reference"
        self.ref_key = "reference"
        self.out = out_dir / "sweep.csv"
        self.base = ["sweep", str(path), "--t-final", SWEEP_T_FINAL, "--log-every", "100",
                     "--tail-window", SWEEP_TAIL_WINDOW, "--out", "sweep.csv"]
        self.workers = workers

    def run(self, serial: bool = False):
        # traced runs execute the cells serially in process, so that each
        # cell's calls are recorded; untraced runs use the process pool
        workers = 1 if serial else self.workers
        return run_cli(self.base + ["--workers", str(workers)])

    def observe(self, rc) -> dict:
        lines = self.out.read_text(encoding="utf-8").splitlines()
        cells = [line.split(",") for line in lines[1:]]
        return {"exit": rc, "header": lines[0], "cells": cells}

    def check(self, obs: dict, ref: dict, ref_key: str | None) -> list:
        problems = []
        if obs["exit"] != 0:
            problems.append(f"exit code {obs['exit']}")
        if obs["header"] != SWEEP_HEADER:
            problems.append("CSV header differs")
        cells = obs["cells"]
        if len(cells) != SWEEP_CELLS:
            problems.append(f"{len(cells)} cells, expected {SWEEP_CELLS}")
        bound = small_gain_bound()
        for k1, k2, ok, status, tail_x, tail_y in cells:
            if (ok == "1") != (float(k1) * float(k2) < bound):
                problems.append(f"smallGainPass={ok} wrong for k1={k1} k2={k2}")
            if status != "completed" or not all(
                math.isfinite(float(v)) and float(v) <= STATE_BOUND for v in (tail_x, tail_y)
            ):
                problems.append(f"cell k1={k1} k2={k2}: {status}, tails {tail_x} {tail_y}")
        if ref_key is not None:
            verdicts = [[c[0], c[1], c[2], c[3]] for c in cells]
            if verdicts != ref["cells"]:
                problems.append("smallGainPass/status columns differ from the reference")
        return problems


class CertifyOp:
    kind = "certify"

    def __init__(self, scenario: str, path: Path, out_dir: Path):
        self.name = f"certify:{scenario}"
        self.ref_key = scenario
        self.report = out_dir / f"certify-{scenario}.json"
        self.argv = ["certify", str(path), *CERTIFY_ARGS, "--out", f"certify-{scenario}"]

    def run(self, serial: bool = False):
        return run_cli(self.argv)

    def observe(self, rc) -> dict:
        report = json.loads(self.report.read_text(encoding="utf-8"))
        failing = [e["name"] for e in report["entries"] if e["status"] != "pass"]
        return {"exit": rc, "all_pass": report["all_pass"], "failing": failing}

    def check(self, obs: dict, ref: dict, ref_key: str | None) -> list:
        problems = []
        if obs["exit"] not in (0, 1) or (obs["exit"] == 0) != obs["all_pass"]:
            problems.append(f"exit code {obs['exit']} with all_pass={obs['all_pass']}")
        if ref_key is not None:
            want = ref[ref_key]
            if obs["exit"] != want["exit"] or obs["failing"] != want["failing"]:
                problems.append(
                    f"exit {obs['exit']} failing {obs['failing']}, "
                    f"expected exit {want['exit']} failing {want['failing']}"
                )
        return problems


class LoopOracleOp:
    """integrate_loop, then integrate_virtual from consistent initial data."""

    kind = "loop-oracle"

    def __init__(self, tag: str, disturbance: str, path: Path):
        self.name = f"loop:{tag}-{disturbance}"
        self.ref_key = f"{tag}-{disturbance}"
        self.tag = tag
        self.disturbance = disturbance
        self.path = path

    def run(self, serial: bool = False):
        # module attributes are looked up at call time, so traced runs see the hooks
        from decadapt import adaptation, scenario, simulate

        sc = scenario.load_scenario(self.path)
        closed = scenario.build_oscillator(sc)
        if self.tag == "x":
            loop, theta = closed.loop_x, closed.theta_true_x
            state0, ti0 = (sc.x1_0, sc.x2_0), (sc.theta_i_x0,)
        else:
            loop, theta = closed.loop_y, closed.theta_true_y
            state0, ti0 = (sc.y1_0, sc.y2_0), (sc.theta_i_y0,)
        if self.disturbance == "exponential":
            dist = simulate.exponential_disturbance(0.5, 1.0)
        else:
            dist = simulate.pulse_disturbance(0.5, 1.0, 2.0)
        cfg = simulate.IntegratorConfig(step=LOOP_STEP, t_final=LOOP_T_FINAL)
        real = simulate.integrate_loop(loop, theta, dist, cfg, state0, ti0)
        theta_hat0 = adaptation.parameter_estimate(loop, state0, 0.0, ti0)
        virt = simulate.integrate_virtual(loop, theta, dist, cfg, state0, theta_hat0)
        return real, virt

    def observe(self, outcome) -> dict:
        import numpy as np

        real, virt = outcome
        n = min(real.t.shape[0], virt.t.shape[0])
        return {
            "status": [real.status, virt.status],
            "rows": [int(real.t.shape[0]), int(virt.t.shape[0])],
            "discrepancy": float(np.max(np.abs(real.theta_hat[:n] - virt.theta_hat[:n]))),
            "peak_state": float(max(np.abs(real.state).max(), np.abs(virt.state).max())),
            "final": [float(v) for v in (*real.state[-1], *real.theta_hat[-1],
                                         *virt.state[-1], *virt.theta_hat[-1])],
        }

    def check(self, obs: dict, ref: dict, ref_key: str | None) -> list:
        problems = []
        n = round(LOOP_T_FINAL / LOOP_STEP) + 1
        if obs["status"] != ["completed", "completed"] or obs["rows"] != [n, n]:
            problems.append(f"status {obs['status']}, rows {obs['rows']}")
        if not obs["peak_state"] <= STATE_BOUND:
            problems.append(f"state reached {obs['peak_state']!r}")
        if not obs["discrepancy"] <= AGREEMENT_BOUND:
            problems.append(f"realizable/virtual discrepancy {obs['discrepancy']!r}")
        if ref_key is not None:
            want = ref[ref_key]
            if not _close(obs["discrepancy"], want["discrepancy"]) or not all(
                _close(a, b) for a, b in zip(obs["final"], want["final"])
            ):
                problems.append("final states or agreement differ from the reference")
        return problems


WORKLOADS = ("simulate-fine", "sweep-coarse", "certify-dense", "loop-oracle")


def build_ops(workload: str, paths: dict, out_dir: Path, workers: int) -> list:
    """Operations of one workload, in the order a run cycles through them."""
    if workload == "simulate-fine":
        return [SimulateOp(s, paths[s], out_dir) for s in SCENARIO_NAMES]
    if workload == "sweep-coarse":
        return [SweepOp(paths["reference"], out_dir, workers)]
    if workload == "certify-dense":
        return [CertifyOp(s, paths[s], out_dir) for s in SCENARIO_NAMES]
    if workload == "loop-oracle":
        return [LoopOracleOp(tag, d, paths["reference"])
                for tag in ("x", "y") for d in ("exponential", "pulse")]
    raise ValueError(f"unknown workload {workload!r}")
