"""Run the benchmark on every workload and print one row per workload.

    python3 perfbench/summary.py [--workloads a,b] [--runs N] [--first-seed S] [--seconds T]

Each run is a separate `run.py` process with its own seed (S, S+1, ...).
For every end-to-end metric the table gives the median over the runs and
the spread: the distance between the first and third quartile as a share
of the median (`statistics.quantiles(values, n=4)`), the figure that
BENCHMARK.json's bounds are checked against.  `fail_frac` is failed over
attempted operations, summed over the runs.  Under each row, `#` lines list
every run's value in seed order.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = quantiles(values, n=4)
    return (q3 - q1) / median(values)


def main(argv=None) -> int:
    names = [w["name"] for w in BENCHMARK["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    args = parser.parse_args(argv)

    metrics = [(m["name"], m["unit"], m["bound"]) for m in BENCHMARK["end_to_end"]]
    head = "".join(f"{f'{n} [{u}]':>24}" for n, u, _ in metrics)
    print(f"{'workload':<15}{head}{'fail_frac':>11}  runs")
    for workload in args.workloads.split(","):
        results = [run_once(workload, args.first_seed + i, args.seconds, 0)
                   for i in range(args.runs)]
        cells = []
        per_run = []
        for name, _, bound in metrics:
            values = [r["metrics"][name]["value"] for r in results]
            per_run.append(f"#   {name}: " + " ".join(f"{v:.4g}" for v in values))
            cells.append(f"{median(values):>12.4f} ±{spread(values):6.1%}"
                         f"{'!' if spread(values) > bound / 3 else ' ':>1}   ")
        attempted = sum(r["attempted"] for r in results)
        fail_frac = sum(r["failed"] for r in results) / attempted
        print(f"{workload:<15}{''.join(cells)}{fail_frac:>11.4f}  {len(results)}")
        print("\n".join(per_run), flush=True)
    print("± is (q3 - q1) / median over the runs; ! marks a spread above a third of "
          "the metric's bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
