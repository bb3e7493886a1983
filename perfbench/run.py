"""Benchmark of heckezonal: seeded sweeps of verification jobs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload runs in fresh interpreters
(perfbench/worker.py), so set-up time, peak memory and cache state belong
to that workload alone.  Every job's verdict is gated against values
pinned from the commit that introduced the benchmark (perfbench/pins.json).

--trace 0 reports the end-to-end metrics: setup_s, cases_per_s,
job_p50_ms, job_p90_ms, cli_wall_s and peak_rss_mb.  Their times are
scaled to a reference host speed by the probe in probe.py.  --trace 1 runs a
fixed prefix of the stream untraced and then traced and reports the
per-layer metrics.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  Exit status 0 when a result
was printed, 1 when the benchmark itself could not run, 2 when the
package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import gate
import jobs
from probe import probe_ns, scaled_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SPANS_DIR = ROOT / ".perfbench_out"

# Rounds in the traced prefix: about 3-5 s of untraced work per workload.
TRACE_ROUNDS = {"generic-algebra": 1, "numeric-operator": 1, "coset-sweep": 4}
CHILD_TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def calib_ms() -> float:
    """Median of five host probes, in ms: the ungated host.calib_ms."""
    return statistics.median(probe_ns() for _ in range(5)) / 1e6


def run_worker(args, mode: str, *extra: str) -> list[dict]:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--mode", mode, *extra]
    # A session of its own, so that on a timeout the worker's own children
    # (set-up probes, CLI runs) are killed with it.
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env=child_env(), start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{err}")
    return [json.loads(line) for line in out.splitlines()]


def warm_bytecode() -> None:
    """Compile the package and the harness once, untimed, so no timed
    interpreter start pays for a one-off .pyc compile."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "heckezonal"), str(HERE)],
                   check=True, stdout=subprocess.DEVNULL, env=child_env(), timeout=CHILD_TIMEOUT_S)


def scaled(rec: dict) -> float:
    return scaled_ns(rec["ns"], rec["probe"])


def median_by_job(records: list[dict]) -> dict:
    """Each job's median scaled latency across the rounds, by job key."""
    runs = {}
    for rec in records:
        runs.setdefault(jobs.job_key(rec["argv"]), []).append(scaled(rec))
    return {key: statistics.median(ns) for key, ns in runs.items()}


def nearest_rank(sorted_values: list[float], q: float) -> float:
    """The q-quantile by the nearest-rank rule: an observed value, never an
    interpolation between two job sizes."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(args, pins: dict) -> tuple[dict, dict, dict]:
    records = run_worker(args, "loop", "--seconds", str(args.seconds))
    end = records.pop()
    loop = [r for r in records if r["pass"] == "loop"]
    cli = [r for r in records if r["pass"] == "cli"]
    setup_ns = [scaled(r) for r in records if r["pass"] == "setup"]
    tally = gate.tally(loop + cli, pins)
    per_job = median_by_job(loop)
    per_job_ms = sorted(ns / 1e6 for ns in per_job.values())
    metrics = {
        "setup_s": (statistics.median(setup_ns) / 1e9, "s"),
        "cases_per_s": (sum(tally["cases"].get(k, 0) for k in per_job) / (sum(per_job.values()) / 1e9), "1/s"),
        "job_p50_ms": (nearest_rank(per_job_ms, 0.5), "ms"),
        "job_p90_ms": (nearest_rank(per_job_ms, 0.9), "ms"),
        "cli_wall_s": (sum(median_by_job(cli).values()) / 1e9, "s"),
        "peak_rss_mb": (end["peak_rss_kb"] / 1024, "MB"),
    }
    summary = {
        "jobs": len(per_job), "rounds": end["rounds"], "job_runs": len(loop), "cli_runs": len(cli),
        "setup_probes": len(setup_ns),
    }
    return metrics, summary, tally


def per_layer(args, pins: dict) -> tuple[dict, dict, dict]:
    selftest = subprocess.run([sys.executable, str(HERE / "selftest.py")], capture_output=True, text=True,
                              env=child_env(), timeout=CHILD_TIMEOUT_S)
    if selftest.returncode != 0:
        raise RuntimeError(f"benchmark self-test failed:\n{selftest.stderr}")
    spans = SPANS_DIR / f"spans-{args.workload}.bin"
    records = run_worker(args, "trace", "--rounds", str(TRACE_ROUNDS[args.workload]), "--spans", str(spans))
    end = records.pop()
    summary = {"job_runs": len(records), "spans": end["spans"], "spans_file": str(spans.relative_to(ROOT))}
    return {name: tuple(v) for name, v in end["metrics"].items()}, summary, gate.tally(records, pins)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "heckezonal" / "__init__.py").is_file():
        print(f"error: package sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        pins = gate.load_pins()
        warm_bytecode()
        calib_before = calib_ms()
        metrics, summary, tally = (per_layer if args.trace else end_to_end)(args, pins)
        calib_after = calib_ms()
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        metrics["host.calib_ms"] = ((calib_before + calib_after) / 2, "ms")

    for reason in tally["reasons"]:
        print(f"failed job: {reason}", file=sys.stderr)
    attempted, failed = tally["attempted"], tally["failed"]
    info = {**summary, "failed_ratio": failed / attempted,
            "host.calib_ms_before": calib_before, "host.calib_ms_after": calib_after}
    print(f"{args.workload} seed={args.seed} " + " ".join(f"{k}={v}" for k, v in info.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
