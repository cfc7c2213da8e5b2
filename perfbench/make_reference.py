"""Write perfbench/reference.json from the current program:

    python3 perfbench/make_reference.py

For every workload and each seed in SEEDS it runs one untraced unit and
stores the signature of each operation: the sha256 of its CSV bytes and its
simulated counts. run.py then fails any unit whose signatures differ. Regenerate only
for a change that is meant to alter simulated output.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run

SEEDS = range(32)


def main() -> int:
    for workload in run.WORKLOADS:
        run.check_checkout(workload)
    run.WORK.mkdir(exist_ok=True)
    try:
        reference = collect()
    finally:
        run.clean_work()
    if reference is None:
        return 1
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    return 0


def collect():
    reference = {}
    for workload in run.WORKLOADS:
        unit_fn = run.cli_unit if workload == "cli-short" else run.worker_unit
        reference[workload] = {}
        for seed in SEEDS:
            ctx = run.Context(workload, seed, time.monotonic() + 170.0)
            ctx.expected = None
            try:
                unit = unit_fn(ctx, False)
            finally:
                shutil.rmtree(ctx.dir, ignore_errors=True)
            if not all(unit["ok"]):
                print(f"error: {workload} seed {seed} failed its own checks", file=sys.stderr)
                return None
            signature = unit["signature"]
            reference[workload][str(seed)] = (
                signature if isinstance(signature, list) else [signature])
            print(f"{workload} seed={seed} ok", flush=True)
    return reference


if __name__ == "__main__":
    sys.exit(main())
