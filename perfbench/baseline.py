"""Fixed-size probe run at the end of every traced run.

It reproduces the ROADMAP "Baseline" configurations: an in-process
`certify_oscillator` of the reference scenario (t_final 50, step 1e-3,
10^4 monotonicity samples, which includes `build_oscillator`,
`small_gain_problem` and a 50 000-step `integrate`), the 50 001-row CSV
export of its trajectory, one single-loop and one virtual integration, and a
two-cell CLI sweep (once on the pool untraced, for the pool efficiency, then
serially traced).  Every layer is reached here, so a workload that does not
reach a layer still reports a measured value for it.
"""

from __future__ import annotations

import time
from pathlib import Path

from spans import Tracer, cycle_totals, patched, summarize
from workloads import run_cli

PROBE_SWEEP = ["sweep", "oscillator", "--k1-grid", "0.1,0.4", "--k2-grid", "0.1",
               "--t-final", "0.5", "--log-every", "100", "--out", "probe-sweep.csv"]


def run_probe(tracer: Tracer, out_dir: Path, workers: int) -> tuple:
    """Returns (cycle, per_call, extra) in the shape the layer metrics take."""
    from decadapt import adaptation, scenario, simulate

    start = time.perf_counter()
    run_cli(PROBE_SWEEP + ["--workers", str(workers)])
    pool_wall = time.perf_counter() - start

    tracer.reset()
    with patched(tracer), tracer.span("op"):
        report, traj = scenario.certify_oscillator(scenario.OscillatorScenario())
        report.to_text()
        report.to_json()
        simulate.write_trajectory_csv(traj, out_dir / "probe.csv")
        closed = scenario.build_oscillator(scenario.OscillatorScenario(k1=0.0, k2=0.0))
        cfg = simulate.IntegratorConfig(step=1e-3, t_final=2.0)
        dist = simulate.zero_disturbance()
        state0, ti0 = (1.0, 0.0), (-2.0,)
        simulate.integrate_loop(closed.loop_y, (1.0,), dist, cfg, state0, ti0)
        theta_hat0 = adaptation.parameter_estimate(closed.loop_y, state0, 0.0, ti0)
        simulate.integrate_virtual(closed.loop_y, (1.0,), dist, cfg, state0, theta_hat0)
        run_cli(PROBE_SWEEP + ["--workers", "1"])
    totals, per_call = summarize(tracer.spans)
    tracer.reset()
    return cycle_totals({"probe": [totals]}), per_call, {"workers": workers,
                                                          "pool_wall_s": pool_wall}
