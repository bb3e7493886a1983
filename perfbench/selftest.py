"""Self-test of the benchmark's own machinery; exits 1 on any failure.

    python3 perfbench/selftest.py

1. Tracer coverage: with the tracer installed, one tiny job per
   subcommand must record at least one span in every wrapped function,
   so a binding the tracer missed cannot silently zero a layer.
2. Gate: a pinned job passes; the same job fed one wrong pinned value,
   or a wrong pinned exit status, is counted as failed.
3. A job that argparse rejects ("--chi-pi -1/3", spaced) raises
   SystemExit inside cli.run; it is caught and counted as failed.
"""

from __future__ import annotations

import copy
import sys

from worker import run_job

import gate
from tracer import Tracer

# One tiny job per subcommand, each dispatched the way the workloads'
# jobs are (through cli.COMMANDS), so a missed binding on that path shows.
TINY_JOBS = [
    ["presentation", "--e", "3", "--samples", "2"],
    ["eigen", "--e", "3", "--L", "2", "--chi-pi=-1/3"],
    ["coefficient", "--e", "3", "--L", "2", "--samples", "2"],
    ["growth", "--e", "3", "--L", "3"],
    ["poincare", "--e", "3"],
    ["distinction", "--e", "3", "--L", "3"],
    ["gelfand"],
]
GATED_JOB = ["growth", "--e", "3", "--L", "12"]


def record(argv: list[str]) -> dict:
    code, ns, out, error = run_job(argv)
    return {"argv": argv, "code": code, "ns": ns, "out": out, "error": error}


def main() -> int:
    problems = []

    tracer = Tracer()
    tracer.install()
    for argv in TINY_JOBS:
        code, _, _, error = run_job(argv)
        if code != 0 or error:
            problems.append(f"tiny job {' '.join(argv)} exited {code}: {error}")
    for name in tracer.unused():
        problems.append(f"no span recorded for {name}")

    pins = gate.load_pins()
    key = " ".join(GATED_JOB)
    rec = record(GATED_JOB)
    if gate.tally([rec], pins)["failed"] != 0:
        problems.append(f"{key} fails against its own pin")
    wrong_value = copy.deepcopy(pins)
    path = sorted(wrong_value[key]["report"])[0]
    wrong_value[key]["report"][path] = "wrong"
    if gate.tally([rec], wrong_value)["failed"] != 1:
        problems.append(f"a wrong pinned value for {path} was not counted as a failed job")
    wrong_code = copy.deepcopy(pins)
    wrong_code[key]["code"] = 1
    if gate.tally([rec], wrong_code)["failed"] != 1:
        problems.append("a wrong pinned exit status was not counted as a failed job")

    rejected = record(["eigen", "--chi-pi", "-1/3"])
    if not rejected["error"].startswith("SystemExit"):
        problems.append(f"spaced negative --chi-pi did not raise SystemExit: {rejected}")
    if gate.tally([rejected], pins)["failed"] != 1:
        problems.append("a job rejected by argparse was not counted as failed")

    for p in problems:
        print(f"self-test: {p}", file=sys.stderr)
    print(f"self-test: {len(tracer.names)} functions wrapped, {tracer.patched} bindings patched, "
          f"{'FAIL' if problems else 'ok'}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
