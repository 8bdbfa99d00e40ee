"""Command-line interface.

Subcommands: simulate (trajectory CSV), certify (assumption checks,
small-gain evaluation, and runtime monitors, written as text and JSON),
sweep (coupling-grid pass/fail and tail-error table), plotdata (per-panel
CSV files of the four state coordinates against time).

Exit codes: 0 success (and, for certify, all checks passed); 1 at least
one certificate entry did not pass; 2 usage error; 3 simulation aborted
(diverged or controller singularity).

Relative output paths are resolved under $DECADAPT_OUT_DIR when it is set.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from .scenario import (
    OscillatorScenario,
    build_oscillator,
    certify_oscillator,
    load_scenario,
    small_gain_problem,
)
from .certify import check_small_gain
from .simulate import STATUS_COMPLETED, integrate, write_trajectory_csv

EXIT_OK = 0
EXIT_CERT_FAIL = 1
EXIT_USAGE = 2
EXIT_SIM_ABORT = 3


def _out_path(raw: str) -> Path:
    path = Path(raw)
    if not path.is_absolute():
        base = os.environ.get("DECADAPT_OUT_DIR")
        if base:
            path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _scenario(args) -> OscillatorScenario:
    """The named scenario with the override flags applied; each flag's dest is its field."""
    sc = OscillatorScenario() if args.scenario == "oscillator" else load_scenario(args.scenario)
    given = {name: value for name, value in vars(args).items() if value is not None}
    updates = {name: given[name] for name in ("k1", "k2", "lambda_x", "lambda_y") if name in given}
    # one replace, so the integrator is validated on the final combination only
    integ_updates = {name: given[name] for name in ("t_final", "step", "log_every")
                     if name in given}
    if integ_updates:
        updates["integrator"] = replace(sc.integrator, **integ_updates)
    return replace(sc, **updates) if updates else sc


def _checked(convert, ok, need: str):
    """An argparse type: convert, then reject values failing ok as not `need`."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {need}, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid float value"
    return parse


_FINITE = _checked(float, math.isfinite, "finite")
_WINDOW = _checked(float, lambda v: 0.0 <= v < math.inf, "finite and >= 0")


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("scenario", help="'oscillator' or a scenario file path")
    parser.add_argument("--k1", type=float, default=None, help="coupling into the x subsystem")
    parser.add_argument("--k2", type=float, default=None, help="coupling into the y subsystem")
    parser.add_argument("--lambda-x", dest="lambda_x", type=float, default=None,
                        help="x target-shaper rate")
    parser.add_argument("--lambda-y", dest="lambda_y", type=float, default=None,
                        help="y target-shaper rate")
    parser.add_argument("--t-final", dest="t_final", type=float, default=None,
                        help="simulation horizon")
    parser.add_argument("--dt", dest="step", type=float, default=None, help="integrator step")
    parser.add_argument("--log-every", dest="log_every", type=int, default=None,
                        help="log every N steps")


def _cmd_simulate(args) -> int:
    sc = _scenario(args)
    traj = integrate(build_oscillator(sc), sc.integrator, sc.initial_state())
    out = _out_path(args.out)
    write_trajectory_csv(traj, out)
    print(f"status: {traj.status}; {traj.t.shape[0]} samples -> {out}")
    return EXIT_OK if traj.status == STATUS_COMPLETED else EXIT_SIM_ABORT


def _cmd_certify(args) -> int:
    sc = _scenario(args)
    report, traj = certify_oscillator(
        sc,
        n_monotonicity_samples=args.monotonicity_samples,
        tail_window=args.tail_window,
        tail_threshold=args.tail_threshold,
    )
    text = report.to_text()
    sys.stdout.write(text)
    if args.out:
        base = _out_path(args.out)
        base.with_suffix(".txt").write_text(text, encoding="utf-8")
        base.with_suffix(".json").write_text(report.to_json(), encoding="utf-8")
        print(f"report -> {base.with_suffix('.txt')} / {base.with_suffix('.json')}")
    if traj is None:
        return EXIT_SIM_ABORT
    return EXIT_OK if report.all_pass else EXIT_CERT_FAIL


def _parse_grid(spec: str) -> list:
    """Grid syntax: 'start:stop:count' (inclusive linspace) or 'v1,v2,...'; finite, non-empty."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError("grid must be start:stop:count or a comma list")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ValueError("grid count must be >= 1")
        if count == 1:
            values = [start]
        else:
            step = (stop - start) / (count - 1)
            values = [start + i * step for i in range(count)]
    else:
        values = [float(v) for v in spec.split(",") if v]
    if not values or not all(math.isfinite(v) for v in values):
        raise ValueError(f"grid {spec!r} must hold at least one value, all of them finite")
    return values


def _sweep_cell(payload) -> tuple:
    sc, tail_window = payload
    gain_entry = check_small_gain(small_gain_problem(sc))
    traj = integrate(build_oscillator(sc), sc.integrator, sc.initial_state())
    if traj.status == STATUS_COMPLETED:
        mask = traj.t >= traj.t[-1] - tail_window
        tail_x = float(abs(traj.loops["x"].psi[mask]).max())
        tail_y = float(abs(traj.loops["y"].psi[mask]).max())
    else:
        tail_x = float("nan")
        tail_y = float("nan")
    return (sc.k1, sc.k2, gain_entry.passed, traj.status, tail_x, tail_y)


def _cmd_sweep(args) -> int:
    base = _scenario(args)
    cells = [
        (replace(base, k1=k1, k2=k2), args.tail_window)
        for k1 in _parse_grid(args.k1_grid)
        for k2 in _parse_grid(args.k2_grid)
    ]
    workers = args.workers or min(len(cells), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_cell, cells))
    else:
        rows = [_sweep_cell(c) for c in cells]
    out = _out_path(args.out)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("k1,k2,smallGainPass,status,tailSupPsiX,tailSupPsiY\n")
        for k1, k2, ok, status, tx, ty in rows:
            fh.write(f"{k1!r},{k2!r},{int(ok)},{status},{tx!r},{ty!r}\n")
    print(f"{len(rows)} cells -> {out}")
    return EXIT_OK


def _cmd_plotdata(args) -> int:
    sc = _scenario(args)
    traj = integrate(build_oscillator(sc), sc.integrator, sc.initial_state())
    out_dir = _out_path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    panels = (
        ("a", "x1", traj.x[:, 0]),
        ("b", "x2", traj.x[:, 1]),
        ("c", "y1", traj.y[:, 0]),
        ("d", "y2", traj.y[:, 1]),
    )
    for panel, column, series in panels:
        np.savetxt(out_dir / f"panel_{panel}.csv", np.column_stack((traj.t, series)),
                   fmt="%.17g", delimiter=",", header=f"t,{column}", comments="")
    print(f"panels a-d -> {out_dir}")
    return EXIT_OK if traj.status == STATUS_COMPLETED else EXIT_SIM_ABORT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decadapt",
        description="Decentralized adaptive control: simulate and certify interconnected loops.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="integrate a scenario and export the trajectory")
    _add_scenario_args(p_sim)
    p_sim.add_argument("--out", default="trajectory.csv", help="output CSV path")
    p_sim.set_defaults(func=_cmd_simulate)

    p_cert = sub.add_parser("certify", help="run assumption checks, small gain, and monitors")
    _add_scenario_args(p_cert)
    p_cert.add_argument("--out", default=None, help="report base path (.txt and .json)")
    p_cert.add_argument("--monotonicity-samples", type=int, default=10000)
    p_cert.add_argument("--tail-window", type=_WINDOW, default=5.0)
    p_cert.add_argument("--tail-threshold", type=_FINITE, default=1e-2)
    p_cert.set_defaults(func=_cmd_certify)

    p_sweep = sub.add_parser("sweep", help="grid over couplings: pass/fail and tail errors")
    _add_scenario_args(p_sweep)
    p_sweep.add_argument("--k1-grid", dest="k1_grid", default="0.1:1.0:4",
                         help="start:stop:count or comma list")
    p_sweep.add_argument("--k2-grid", dest="k2_grid", default="0.1:1.0:4")
    p_sweep.add_argument("--tail-window", type=_WINDOW, default=5.0)
    p_sweep.add_argument("--workers", type=_checked(int, lambda v: v >= 0, ">= 0"), default=0,
                         help="0 = one per CPU")
    p_sweep.add_argument("--out", default="sweep.csv")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_plot = sub.add_parser("plotdata", help="per-panel CSVs: t against x1, x2, y1, y2")
    _add_scenario_args(p_plot)
    p_plot.add_argument("--out-dir", dest="out_dir", default="plotdata")
    p_plot.set_defaults(func=_cmd_plotdata)

    return parser


def run_cli(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, ValueError) as err:
        parser.exit(EXIT_USAGE, f"error: {err}\n")


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
