"""One workload in a fresh interpreter: a closed loop of CLI jobs.

One client, one job at a time: each job is an argv handed to
``heckezonal.cli.run`` in-process, and the next job starts only after the
previous one has returned its verdict.  Every finished job is written to
stdout as one JSON line (argv, exit status, latency, the host probe
around it, captured report); ``run.py`` reads the lines, gates them and
computes the metrics.

Modes:
  probe  import the package and the harness, build the job list, print
         "ready", exit;
  loop   run rounds of the workload's jobs until --seconds have passed.
         Between rounds, time set-up probes and one pass of the CLI
         handful as subprocesses, so those samples are spread over the
         whole run rather than bunched at one end of it;
  trace  run the first --rounds rounds untraced, then the same rounds
         traced.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from heckezonal import cli  # noqa: E402

import jobs  # noqa: E402
from probe import probe_ns  # noqa: E402

SETUP_PROBES_PER_ROUND = 2
CHILD_TIMEOUT_S = 120


def run_job(argv: list[str]) -> tuple[int | None, int, str, str]:
    """(exit status, latency ns, captured stdout, error) of one job.

    argparse raises SystemExit from inside ``cli.run`` on a rejected
    argv; it is caught and reported so that it cannot end the loop.
    """
    out, err = io.StringIO(), io.StringIO()
    error = ""
    t0 = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        error = f"SystemExit({exc.code!r}): {err.getvalue().strip()}"
    except Exception:  # a crashing job is recorded as failed; the loop goes on
        code = None
        error = traceback.format_exc()
    return code, time.perf_counter_ns() - t0, out.getvalue(), error


def emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")


def run_jobs(job_list, tag: str, tracer=None) -> int:
    """Run jobs in order, emit one line each; return summed latency in ns.

    The host probe runs between consecutive jobs, so each job is
    bracketed by one probe before and one after it."""
    total = 0
    before = probe_ns()
    for i, argv in enumerate(job_list):
        if tracer is not None:
            tracer.job = i
        code, ns, out, error = run_job(argv)
        after = probe_ns()
        total += ns
        emit({"pass": tag, "argv": argv, "code": code, "ns": ns, "probe": (before + after) / 2,
              "out": out, "error": error})
        before = after
    return total


def setup_probe(workload: str, seed: int) -> None:
    """Time a fresh interpreter from spawn until this module, in probe
    mode, has imported the package and is ready for its first job."""
    cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--mode", "probe"]
    before = probe_ns()
    t0 = time.perf_counter_ns()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        ns = time.perf_counter_ns() - t0
        proc.stdout.close()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    if code != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe exited {code} without becoming ready")
    emit({"pass": "setup", "ns": ns, "probe": (before + probe_ns()) / 2})


def cli_pass(workload: str) -> None:
    """Run the workload's CLI handful once as ``python -m heckezonal``."""
    before = probe_ns()
    for argv in jobs.CLI_HANDFUL[workload]:
        t0 = time.perf_counter_ns()
        proc = subprocess.run([sys.executable, "-m", "heckezonal", *argv], capture_output=True,
                              text=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        ns = time.perf_counter_ns() - t0
        after = probe_ns()
        emit({"pass": "cli", "argv": argv, "code": proc.returncode, "ns": ns, "probe": (before + after) / 2,
              "out": proc.stdout, "error": ""})
        before = after


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("probe", "loop", "trace"))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--spans", help="where trace mode writes the spans")
    args = ap.parse_args()

    job_list = jobs.workload_jobs(args.workload, args.seed)
    if args.mode == "probe":
        print("ready", flush=True)
        return 0

    # One CPU for the worker and the subprocesses it times, so that the
    # host probe measures the CPU the timed work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if args.mode == "loop":
        deadline = time.perf_counter() + args.seconds
        index = 0
        while True:
            run_jobs(jobs.round_order(job_list, args.workload, args.seed, index), "loop")
            for _ in range(SETUP_PROBES_PER_ROUND):
                setup_probe(args.workload, args.seed)
            cli_pass(args.workload)
            index += 1
            if time.perf_counter() >= deadline:
                break
        emit({"pass": "end", "rounds": index,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
        return 0

    from tracer import Tracer  # only traced runs load the tracer

    traced_list = [job for r in range(args.rounds)
                   for job in jobs.round_order(job_list, args.workload, args.seed, r)]
    plain_ns = run_jobs(traced_list, "plain")
    tracer = Tracer()
    tracer.install()
    traced_ns = run_jobs(traced_list, "traced", tracer)
    tracer.dump(Path(args.spans))
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = (traced_ns / plain_ns, "ratio")
    emit({"pass": "end", "metrics": metrics, "spans": len(tracer.start)})
    return 0


if __name__ == "__main__":
    sys.exit(main())
