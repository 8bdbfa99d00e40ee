"""Per-layer metrics and the ROADMAP baseline rows, computed from span totals.

`cycle` is the output of `spans.cycle_totals`: per-layer totals for one
pass over the workload's operations (the sum over operations of each
operation's median).  `per_call` maps a span name to the durations of
all its traced calls.  A layer the workload never reaches is measured by
the run's fixed-size probe instead (see `baseline.py`); `source()` says
which one a value came from.
"""

from __future__ import annotations

from statistics import median


def _calls(span):
    return lambda c, p, x: c.get(f"{span}.calls", 0)


def _total(span, scale):
    return lambda c, p, x: c.get(f"{span}.s", 0.0) * scale


def _self(span, scale):
    return lambda c, p, x: c.get(f"{span}.self_s", 0.0) * scale


def _per_call(span, scale):
    return lambda c, p, x: median(p[span]) * scale if p.get(span) else 0.0


def _per_step(span):
    def fn(c, p, x):
        steps = c.get(f"{span}.steps", 0)
        return c.get(f"{span}.s", 0.0) / steps * 1e6 if steps else 0.0

    return fn


def _per_second(span, count):
    def fn(c, p, x):
        seconds = c.get(f"{span}.s", 0.0)
        return c.get(f"{span}.{count}", 0) / seconds if seconds else 0.0

    return fn


_INTEGRATORS = ("simulate.integrate", "simulate.integrate_loop", "simulate.integrate_virtual")


def _integrator_sum(count):
    return lambda c, p, x: sum(c.get(f"{s}.{count}", 0) for s in _INTEGRATORS)


def _pool_efficiency(c, p, x):
    # serial per-cell time divided by the worker-seconds the pool run took
    pool = x["workers"] * x["pool_wall_s"]
    return c.get("cli.sweep_cell.s", 0.0) / pool if pool else 0.0


# (name, unit, span whose calls decide between workload and probe, value)
LAYER_METRICS = (
    ("scenario.build_oscillator_ms", "ms", "scenario.build_oscillator",
     _per_call("scenario.build_oscillator", 1e3)),
    ("scenario.small_gain_problem_ms", "ms", "scenario.small_gain_problem",
     _per_call("scenario.small_gain_problem", 1e3)),
    ("certify.check_small_gain_us", "us", "certify.check_small_gain",
     _per_call("certify.check_small_gain", 1e6)),
    ("model.domain_sample_calls", "count", "model.domain_sample", _calls("model.domain_sample")),
    ("model.domain_sample_ms", "ms", "model.domain_sample", _total("model.domain_sample", 1e3)),
    ("model.check_gradient_ms", "ms", "model.check_gradient",
     _total("model.check_gradient", 1e3)),
    ("adaptation.realizability_residual_ms", "ms", "adaptation.realizability_residual",
     _total("adaptation.realizability_residual", 1e3)),
    ("adaptation.check_poincare_ms", "ms", "adaptation.check_poincare",
     _total("adaptation.check_poincare", 1e3)),
    ("simulate.steps", "count", None, _integrator_sum("steps")),
    ("simulate.logged_samples", "count", None, _integrator_sum("logged_samples")),
    ("simulate.integrate_s", "s", "simulate.integrate", _total("simulate.integrate", 1.0)),
    ("simulate.integrate_us_per_step", "us", "simulate.integrate",
     _per_step("simulate.integrate")),
    ("simulate.write_csv_s", "s", "simulate.write_csv", _total("simulate.write_csv", 1.0)),
    ("simulate.csv_bytes", "bytes", "simulate.write_csv",
     lambda c, p, x: c.get("simulate.write_csv.bytes", 0)),
    ("simulate.csv_mb_per_s", "MB/s", "simulate.write_csv",
     lambda c, p, x: _per_second("simulate.write_csv", "bytes")(c, p, x) / 1e6),
    ("simulate.integrate_loop_us_per_step", "us", "simulate.integrate_loop",
     _per_step("simulate.integrate_loop")),
    ("simulate.integrate_virtual_us_per_step", "us", "simulate.integrate_virtual",
     _per_step("simulate.integrate_virtual")),
    ("certify.verify_monotonicity_ms", "ms", "certify.verify_monotonicity",
     _total("certify.verify_monotonicity", 1e3)),
    ("certify.monotonicity_samples_per_s", "1/s", "certify.verify_monotonicity",
     _per_second("certify.verify_monotonicity", "samples")),
    ("certify.monitors_ms", "ms", "certify.monitors", _total("certify.monitors", 1e3)),
    ("report.serialize_ms", "ms", "report.serialize", _total("report.serialize", 1e3)),
    ("scenario.certify_oscillator_self_ms", "ms", "scenario.certify_oscillator",
     _self("scenario.certify_oscillator", 1e3)),
    ("cli.self_ms", "ms", "cli.run_cli", _self("cli.run_cli", 1e3)),
    ("cli.sweep_cell_ms", "ms", "cli.sweep_cell", _per_call("cli.sweep_cell", 1e3)),
    ("cli.sweep_pool_efficiency", "ratio", "cli.sweep_cell", _pool_efficiency),
)

# ROADMAP "Baseline" rows, always taken from the probe: (metric, unit, ROADMAP
# figure in the same unit, what the ROADMAP measured)
BASELINE_ROWS = (
    ("import.decadapt_s", "s", 1.04, "import decadapt"),
    ("baseline.build_oscillator_ms", "ms", 19.0, "build_oscillator"),
    ("baseline.small_gain_problem_ms", "ms", 15.0, "small_gain_problem"),
    ("baseline.integrate_us_per_step", "us", 104.0, "integrate, 50 000 steps (5.2-7.3 s)"),
    ("baseline.csv_rows_per_s", "1/s", 50001 / 1.37, "write_trajectory_csv, 50 001 rows"),
    ("baseline.monotonicity_samples_per_s", "1/s", 1e4 / 0.064,
     "verify_monotonicity, 10^4 samples"),
    ("baseline.certify_s", "s", 5.3, "certify_oscillator, in process"),
)

_BASELINE_FNS = {
    "baseline.build_oscillator_ms": _per_call("scenario.build_oscillator", 1e3),
    "baseline.small_gain_problem_ms": _per_call("scenario.small_gain_problem", 1e3),
    "baseline.integrate_us_per_step": _per_step("simulate.integrate"),
    "baseline.csv_rows_per_s": _per_second("simulate.write_csv", "rows"),
    "baseline.monotonicity_samples_per_s": _per_second("certify.verify_monotonicity", "samples"),
    "baseline.certify_s": _per_call("scenario.certify_oscillator", 1.0),
}


def source(cycle: dict, span) -> str:
    """'workload' when the workload's traced operations reached the span."""
    return "workload" if span is None or cycle.get(f"{span}.calls", 0) else "probe"


def layer_values(cycle, per_call, extra, probe_cycle, probe_per_call, probe_extra) -> dict:
    """name -> (value, unit, source) for every layer metric."""
    out = {}
    for name, unit, span, fn in LAYER_METRICS:
        if source(cycle, span) == "workload":
            out[name] = (fn(cycle, per_call, extra), unit, "workload")
        else:
            out[name] = (fn(probe_cycle, probe_per_call, probe_extra), unit, "probe")
    return out


def baseline_values(probe_cycle, probe_per_call) -> dict:
    return {name: fn(probe_cycle, probe_per_call, None) for name, fn in _BASELINE_FNS.items()}
