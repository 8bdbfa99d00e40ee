"""decadapt benchmark: one workload in one fresh process.

    python3 perfbench/run.py --workload simulate-fine --seed 0 --seconds 25 --trace 0

Run from anywhere; the program is imported from `src/` next to this
directory, never from an installed copy.  The run writes seeded scenario
files and every program output under a temporary directory inside the
checkout (`.perfbench_tmp/`, removed at the end), cycles through the
workload's operations for `--seconds`, checks every output, and prints as
its last stdout line one JSON object: `correct`, `attempted`, `failed` and
`metrics`.  With `--trace 0` the metrics are the end-to-end ones; with
`--trace 1` they are the per-layer ones from a traced run (see README.md).
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread per process, so the sweep pool's workers do not
# oversubscribe the CPUs.  Set before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

from baseline import run_probe  # noqa: E402
from inputs import write_scenarios  # noqa: E402
from metrics import BASELINE_ROWS, baseline_values, layer_values  # noqa: E402
from spans import Tracer, cycle_totals, patched, summarize  # noqa: E402
from workloads import WORKLOADS, build_ops  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
TMP_PARENT = ROOT / ".perfbench_tmp"
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 60
BASELINE_ROWS_UNITS = {name: unit for name, unit, _, _ in BASELINE_ROWS}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import decadapt from this checkout's src/, refusing any other copy."""
    if not (SRC / "decadapt" / "__init__.py").is_file():
        raise SystemExit(f"error: no decadapt sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import decadapt

    if Path(decadapt.__file__).resolve().parent != SRC / "decadapt":
        raise SystemExit(f"error: imported decadapt from {decadapt.__file__}, not {SRC}")
    return decadapt


def machine_info(workers: int) -> dict:
    import numpy
    import scipy

    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workers": workers,
        "thread_vars": {v: os.environ[v] for v in THREAD_VARS},
    }


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest reaped child."""
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (me + kids) / 1024.0  # ru_maxrss is in KiB on Linux


def measure_setup(samples: int) -> list:
    """`import decadapt` plus the first build_oscillator, each in a fresh interpreter."""
    out = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), str(SRC)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


class Runner:
    """Runs operations, verifies each output, and keeps the samples."""

    def __init__(self, reference: dict, seed: int):
        self.reference = reference
        self.seed = seed
        self.attempted = 0
        self.failed = 0

    def attempt(self, op, serial: bool = False, tracer=None):
        """Run op once, under the hooks when a tracer is given, then check its output.

        Returns (wall, cpu), or None when the operation raised or its output
        failed a check.
        """
        self.attempted += 1
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        try:
            if tracer is None:
                outcome = op.run(serial)
            else:
                with patched(tracer), tracer.span("op"):
                    outcome = op.run(serial)
        except (Exception, SystemExit):  # a failed operation is counted, not fatal
            self.failed += 1
            print(f"FAIL {op.name}: raised\n{traceback.format_exc()}", file=sys.stderr)
            return None
        wall = time.perf_counter() - start
        cpu = cpu_seconds() - cpu0
        try:
            obs = op.observe(outcome)
            ref_key = op.ref_key if self.seed == 0 else None
            problems = op.check(obs, self.reference[op.kind], ref_key)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as err:
            problems = [f"unreadable output: {err!r}"]
        if problems:
            self.failed += 1
            print(f"FAIL {op.name}: {problems}", file=sys.stderr)
            return None
        return wall, cpu


def measure(ops, seconds: float, runner: Runner, tracer) -> dict:
    """Cycle through the operations until the next visit would pass `seconds`.

    Every operation runs at least once.  Untraced runs time each operation;
    traced runs (tracer given) also run it again under the hooks, serially for
    the sweep, with an untraced serial run as the overhead baseline.
    """
    timed = {op.name: [] for op in ops}
    serial = {op.name: [] for op in ops}
    traced = {op.name: [] for op in ops}
    per_call = {}
    last_visit = {}
    start = time.perf_counter()
    visits = 0
    while True:
        op = ops[visits % len(ops)]
        elapsed = time.perf_counter() - start
        if visits >= len(ops) and elapsed + last_visit.get(op.name, 0.0) > seconds:
            break
        visit_start = time.perf_counter()
        sample = runner.attempt(op)
        if sample:
            timed[op.name].append(sample)
        if tracer is not None:
            if op.kind == "sweep":
                sample = runner.attempt(op, serial=True)
            if sample:
                serial[op.name].append(sample[0])
            tracer.reset()
            if runner.attempt(op, serial=True, tracer=tracer):
                totals, calls = summarize(tracer.spans)
                traced[op.name].append(totals)
                for name, durations in calls.items():
                    per_call.setdefault(name, []).extend(durations)
            tracer.reset()
        last_visit[op.name] = time.perf_counter() - visit_start
        visits += 1
    return {"timed": timed, "serial": serial, "traced": traced, "per_call": per_call}


def _sum_of_medians(samples: dict, index=None) -> float:
    return sum(
        median(s if index is None else s[index] for s in values)
        for values in samples.values() if values
    )


def end_to_end(result: dict, setup: list, rss_mb: float) -> dict:
    return {
        "setup_s": {"value": median(s["import_s"] + s["build_s"] for s in setup), "unit": "s"},
        "wall_s": {"value": _sum_of_medians(result["timed"], 0), "unit": "s"},
        "cpu_s": {"value": _sum_of_medians(result["timed"], 1), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def per_layer(result, setup, ops, workers, probe) -> dict:
    """name -> (value, unit, source) of every per-layer metric."""
    cycle = cycle_totals(result["traced"])
    sweep_wall = _sum_of_medians(
        {op.name: result["timed"][op.name] for op in ops if op.kind == "sweep"}, 0
    )
    extra = {"workers": workers, "pool_wall_s": sweep_wall}
    layers = layer_values(cycle, result["per_call"], extra, *probe)
    traced_wall = cycle.get("op.s", 0.0)
    untraced_wall = _sum_of_medians(result["serial"])
    metrics = {
        "import.decadapt_s": (median(s["import_s"] for s in setup), "s", "setup"),
        "import.modules_loaded": (median(s["modules"] for s in setup), "count", "setup"),
        **layers,
        "trace.overhead_frac": (traced_wall / untraced_wall - 1.0 if untraced_wall else 0.0,
                                "ratio", "workload"),
        "trace.coverage_frac": (cycle.get("covered_s", 0.0) / traced_wall if traced_wall else 0.0,
                                "ratio", "workload"),
    }
    for name, value in baseline_values(probe[0], probe[1]).items():
        metrics[name] = (value, BASELINE_ROWS_UNITS[name], "probe")
    return metrics


def print_layers(metrics: dict) -> None:
    print("# per-layer metrics (source: workload = this workload's traced operations,"
          " probe = fixed-size probe, setup = fresh interpreters)")
    for name, (value, unit, src) in metrics.items():
        print(f"#   {name:<42} {value:>14.6g} {unit:<6} {src}")
    print("# ROADMAP baseline rows (this run vs the ROADMAP figure)")
    for name, unit, roadmap, what in BASELINE_ROWS:
        value = metrics[name][0]
        print(f"#   {what:<40} {value:>12.6g} {unit:<4} ROADMAP {roadmap:.6g}"
              f"  ({value / roadmap:.2f}x)")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    workers = len(os.sched_getaffinity(0))
    env = machine_info(workers)
    env["loadavg_start"] = os.getloadavg()
    TMP_PARENT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=TMP_PARENT))
    try:
        out_dir = work / "out"
        out_dir.mkdir()
        os.environ["DECADAPT_OUT_DIR"] = str(out_dir)
        paths = write_scenarios(work / "scenarios", args.seed)
        ops = build_ops(args.workload, paths, out_dir, workers)
        runner = Runner(reference, args.seed)
        tracer = Tracer() if args.trace else None
        result = measure(ops, args.seconds, runner, tracer)
        rss_mb = peak_rss_mb()
        # fresh interpreters last, so that their memory stays out of peak_rss_mb
        setup = measure_setup(SETUP_SAMPLES)
        if args.trace:
            metrics = per_layer(result, setup, ops, workers,
                                run_probe(tracer, out_dir, workers))
        else:
            metrics = end_to_end(result, setup, rss_mb)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            TMP_PARENT.rmdir()
        except OSError:
            pass  # another run still uses it
    env["loadavg_end"] = os.getloadavg()
    env["operations"] = {name: len(samples) for name, samples in result["timed"].items()}
    print("# env " + json.dumps(env, sort_keys=True))
    if args.trace:
        print_layers(metrics)
        metrics = {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()}
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
