"""Regenerate pins.json: the verdict of every job a workload can produce.

Run from the repository root on the commit whose outputs are the
reference:

    python3 perfbench/pin.py

The pins were recorded on the commit that introduced the benchmark.
Regenerating them on a later commit makes that commit the reference, so
do it only when a report is meant to change.
"""

from __future__ import annotations

import json
import sys

from worker import run_job

import gate
import jobs


def main() -> int:
    pins = {}
    for workload in jobs.WORKLOADS:
        for argv in jobs.universe(workload):
            code, _, out, error = run_job(argv)
            if error:
                print(f"{jobs.job_key(argv)}: {error}", file=sys.stderr)
                return 1
            pins[jobs.job_key(argv)] = {"code": code, "report": gate.flatten(json.loads(out))}
        print(f"{workload}: {len(jobs.universe(workload))} jobs pinned", file=sys.stderr)
    with open(gate.PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
