"""Record the seed-0 correctness reference (reference.json) from the current code.

    python3 perfbench/make_reference.py

Runs every workload's operations once on the shipped scenarios and stores
what later runs are checked against: final states and CSV shape of
`simulate`, the smallGainPass/status columns of `sweep`, exit codes and
failing entries of `certify`, and final states plus realizable-versus-virtual
agreement of the loop oracle.  Regenerate only when the benchmark itself
changes, never to make a program change pass.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from run import REFERENCE, TMP_PARENT, import_program
from inputs import write_scenarios
from workloads import WORKLOADS, build_ops

KINDS = {"simulate-fine": "simulate", "sweep-coarse": "sweep", "certify-dense": "certify",
         "loop-oracle": "loop-oracle"}


def record(workload: str, work: Path) -> dict:
    out_dir = work / workload
    out_dir.mkdir()
    os.environ["DECADAPT_OUT_DIR"] = str(out_dir)
    paths = write_scenarios(work / "scenarios", 0)
    observed = {}
    for op in build_ops(workload, paths, out_dir, workers=2):
        observed[op.ref_key] = op.observe(op.run())
    if workload == "simulate-fine":
        first = next(iter(observed.values()))
        return {"header": first["header"], "rows": first["rows"],
                "final": {k: v["final"] for k, v in observed.items()}}
    if workload == "sweep-coarse":
        return {"cells": [c[:4] for c in observed["reference"]["cells"]]}
    if workload == "certify-dense":
        return {k: {"exit": v["exit"], "failing": v["failing"]} for k, v in observed.items()}
    return {k: {"discrepancy": v["discrepancy"], "final": v["final"]}
            for k, v in observed.items()}


def main() -> int:
    import_program()
    TMP_PARENT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=TMP_PARENT))
    try:
        reference = {KINDS[w]: record(w, work) for w in WORKLOADS}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            TMP_PARENT.rmdir()
        except OSError:
            pass
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
