"""In-memory spans around the program's public calls, installed from outside.

The benchmark never edits the program.  `patched(tracer)` replaces module
attributes (the names `cli`, `scenario`, `adaptation`, `certify` and
`simulate` look up at call time) with thin wrappers that record one span per
call, and restores the originals on exit.  A hook whose target no longer
exists is skipped, so a later refactor loses the span instead of breaking
the benchmark.

Spans are kept in a list and summarised after each operation; nothing is
written while the operation runs.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from statistics import median

# Spans that only dispatch to layers.  Their self time is what the named
# layers leave uncovered (`trace.coverage_frac`).
DRIVER_SPANS = frozenset(
    {"op", "cli.run_cli", "scenario.certify_oscillator", "cli.sweep_cell"}
)


def _step_counts(cfg_position: int):
    """Counter for an integrator whose IntegratorConfig is argument `cfg_position`."""

    def counts(args, kwargs, result):
        cfg = args[cfg_position] if len(args) > cfg_position else kwargs["cfg"]
        samples = int(result.t.shape[0])
        completed = result.status == "completed"
        steps = cfg.n_steps if completed else (samples - 1) * cfg.log_every
        return {"steps": steps, "logged_samples": samples}

    return counts


_trajectory_counts = _step_counts(1)  # integrate(sys, cfg, aug0)
_loop_counts = _step_counts(3)  # integrate_loop / integrate_virtual(loop, theta, dist, cfg, ...)


def _csv_counts(args, kwargs, result):
    traj = args[0] if args else kwargs["traj"]
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"rows": int(traj.t.shape[0]), "bytes": os.path.getsize(path)}


def _monotonicity_counts(args, kwargs, result):
    return {"samples": kwargs.get("n_samples", args[4] if len(args) > 4 else 1000)}


# (module, attribute, span name, counter); "Class.method" patches the class.
HOOKS = (
    ("decadapt.cli", "run_cli", "cli.run_cli", None),
    ("decadapt.cli", "load_scenario", "scenario.load_scenario", None),
    ("decadapt.cli", "build_oscillator", "scenario.build_oscillator", None),
    ("decadapt.cli", "small_gain_problem", "scenario.small_gain_problem", None),
    ("decadapt.cli", "check_small_gain", "certify.check_small_gain", None),
    ("decadapt.cli", "certify_oscillator", "scenario.certify_oscillator", None),
    ("decadapt.cli", "integrate", "simulate.integrate", _trajectory_counts),
    ("decadapt.cli", "write_trajectory_csv", "simulate.write_csv", _csv_counts),
    ("decadapt.cli", "_sweep_cell", "cli.sweep_cell", None),
    ("decadapt.scenario", "build_oscillator", "scenario.build_oscillator", None),
    ("decadapt.scenario", "small_gain_problem", "scenario.small_gain_problem", None),
    ("decadapt.scenario", "certify_oscillator", "scenario.certify_oscillator", None),
    ("decadapt.scenario", "check_small_gain", "certify.check_small_gain", None),
    ("decadapt.scenario", "integrate", "simulate.integrate", _trajectory_counts),
    ("decadapt.scenario", "check_gradient", "model.check_gradient", None),
    ("decadapt.scenario", "realizability_residual", "adaptation.realizability_residual", None),
    ("decadapt.scenario", "check_poincare", "adaptation.check_poincare", None),
    ("decadapt.scenario", "verify_monotonicity", "certify.verify_monotonicity",
     _monotonicity_counts),
    ("decadapt.scenario", "monitor_loop_bounds", "certify.monitors", None),
    ("decadapt.scenario", "verify_coupling_bound", "certify.monitors", None),
    ("decadapt.scenario", "monitor_tail_convergence", "certify.monitors", None),
    ("decadapt.adaptation", "check_gradient", "model.check_gradient", None),
    ("decadapt.adaptation", "realizability_residual", "adaptation.realizability_residual", None),
    ("decadapt.adaptation", "parameter_estimate", "adaptation.parameter_estimate", None),
    ("decadapt.model", "DomainBox.sample", "model.domain_sample", None),
    ("decadapt.certify", "joint_sample", "model.domain_sample", None),
    ("decadapt.report", "CertificateReport.to_text", "report.serialize", None),
    ("decadapt.report", "CertificateReport.to_json", "report.serialize", None),
    ("decadapt.simulate", "integrate_loop", "simulate.integrate_loop", _loop_counts),
    ("decadapt.simulate", "integrate_virtual", "simulate.integrate_virtual", _loop_counts),
    ("decadapt.simulate", "write_trajectory_csv", "simulate.write_csv", _csv_counts),
)


class Tracer:
    """Span recorder: name, start, end, parent index and counts per span."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = {"name": name, "parent": parent, "start": time.perf_counter(),
                  "end": None, "counts": {}}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if counter is not None:
                record["counts"] = counter(args, kwargs, result)
            return result

        return wrapper


def _resolve(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, leaf
    return owner, leaf


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install every hook's wrapper for the duration of the block."""
    saved = []
    try:
        for module_name, attr, name, counter in HOOKS:
            owner, leaf = _resolve(module_name, attr)
            if owner is None or leaf not in vars(owner):
                continue
            original = vars(owner)[leaf]
            saved.append((owner, leaf, original))
            setattr(owner, leaf, tracer.wrap(name, original, counter))
        yield tracer
    finally:
        for owner, leaf, original in reversed(saved):
            setattr(owner, leaf, original)


def summarize(spans: list) -> tuple:
    """Per-layer totals of one traced operation.

    Returns (totals, per_call): totals maps "<span>.calls", "<span>.s" (inclusive
    seconds), "<span>.self_s" and "<span>.<count>" to numbers, plus "covered_s",
    the self time of non-driver spans; per_call maps span name to the list of
    inclusive durations of its calls.
    """
    child_time = [0.0] * len(spans)
    for sp in spans:
        if sp["parent"] >= 0:
            child_time[sp["parent"]] += sp["end"] - sp["start"]
    totals = {"covered_s": 0.0}
    per_call = {}
    for sp, inner in zip(spans, child_time):
        name = sp["name"]
        dur = sp["end"] - sp["start"]
        self_s = dur - inner
        totals[f"{name}.calls"] = totals.get(f"{name}.calls", 0) + 1
        totals[f"{name}.s"] = totals.get(f"{name}.s", 0.0) + dur
        totals[f"{name}.self_s"] = totals.get(f"{name}.self_s", 0.0) + self_s
        for key, value in sp["counts"].items():
            totals[f"{name}.{key}"] = totals.get(f"{name}.{key}", 0) + value
        per_call.setdefault(name, []).append(dur)
        if name not in DRIVER_SPANS:
            totals["covered_s"] += self_s
    return totals, per_call


def cycle_totals(samples_by_op: dict) -> dict:
    """Sum over operations of the per-operation median of every total.

    samples_by_op maps an operation to the list of `totals` dicts of its
    traced executions; a key absent from one execution counts as zero.
    """
    cycle = {}
    for samples in samples_by_op.values():
        keys = set().union(*samples)
        for key in keys:
            cycle[key] = cycle.get(key, 0.0) + median(s.get(key, 0.0) for s in samples)
    return cycle
