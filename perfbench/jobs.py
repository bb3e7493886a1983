"""Seeded job streams for the three benchmark workloads.

A job is an argv for ``heckezonal.cli.run``.  Each workload is a fixed
list of job templates whose free parameters (q0, the program's own
--seed) are drawn from the workload seed; one *round* runs every job
once, in an order drawn from the seed and the round index.  Rounds repeat
the same jobs, so each job's latency is sampled once per round and the
job mix is the same for every seed: a different seed changes the inputs
without changing how much work a run contains.

Every argv a workload can produce belongs to a finite universe
(``universe``), which is what ``pin.py`` records verdicts for.

This module imports nothing from the package under test.
"""

from __future__ import annotations

import random

WORKLOADS = ("generic-algebra", "numeric-operator", "coset-sweep")

# Seeds handed to the program's own sampled checks (--seed).  A small
# pool keeps the pinned universe finite.
JOB_SEEDS = tuple(range(8))

# Sample count of presentation and coefficient jobs: the CLI default.
SAMPLES = 25

# chi_pi values of generic eigen jobs.  A negative value is passed as
# "--chi-pi=-1/3": argparse rejects the spaced form "--chi-pi -1/3".
CHI_PI = ("1", "2", "-1/3")

Q0S = (2, 3, 5)

# (e, L, f) of the distinction templates: long truncations at e = 3,
# shorter ones where the group grows faster.  q0 is drawn from the seed.
DISTINCTION = ((3, 20, 1), (3, 40, 2), (3, 60, 1), (5, 6, 2), (5, 8, 1), (7, 4, 1), (7, 5, 2))
GROWTH = ((3, 12), (4, 8), (5, 6), (6, 5))
POINCARE_E = (3, 5, 7)


def _eigen(e: int, L: int, chi_pi: str) -> list[str]:
    return ["eigen", "--e", str(e), "--L", str(L), f"--chi-pi={chi_pi}"]


def _presentation(e: int, seed: int) -> list[str]:
    return ["presentation", "--e", str(e), "--seed", str(seed)]


def _coefficient(e: int, f: int, q0: int, L: int, seed: int) -> list[str]:
    return ["coefficient", "--e", str(e), "--f", str(f), "--q0", str(q0), "--L", str(L), "--seed", str(seed)]


def _distinction(e: int, f: int, q0: int, L: int) -> list[str]:
    return ["distinction", "--e", str(e), "--f", str(f), "--q0", str(q0), "--L", str(L)]


def _growth(e: int, L: int) -> list[str]:
    return ["growth", "--e", str(e), "--L", str(L)]


def _poincare(e: int) -> list[str]:
    return ["poincare", "--e", str(e)]


EIGEN_JOBS = [_eigen(e, L, c) for e in (3, 4, 5) for L in (3, 4, 5) for c in CHI_PI]
COSET_FIXED_JOBS = [_growth(e, L) for e, L in GROWTH] + [_poincare(e) for e in POINCARE_E] + [["gelfand"]]


def workload_jobs(workload: str, seed: int) -> list[list[str]]:
    """The jobs of one round of a workload, with per-job parameters drawn
    from the seed.  Every round of a run repeats these jobs."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "generic-algebra":
        return EIGEN_JOBS + [_presentation(e, rng.choice(JOB_SEEDS)) for e in range(3, 9)]
    if workload == "numeric-operator":
        return [
            _coefficient(e, f, rng.choice(Q0S), L, rng.choice(JOB_SEEDS))
            for e in (3, 4, 5)
            for f in (1, 2, 3)
            for L in (3, 4, 5)
        ]
    if workload == "coset-sweep":
        return [_distinction(e, f, rng.choice(Q0S), L) for e, L, f in DISTINCTION] + COSET_FIXED_JOBS
    raise ValueError(f"unknown workload {workload!r}")


def round_order(jobs: list[list[str]], workload: str, seed: int, index: int) -> list[list[str]]:
    """Round ``index`` of a run: the workload's jobs in a seeded order."""
    return random.Random(f"{workload}/{seed}/{index}").sample(jobs, len(jobs))


# A fixed handful of each workload's own jobs, re-run as subprocesses for
# cli_wall_s.  Fixed rather than seeded, so the metric does not move with
# the seed.
CLI_HANDFUL = {
    "generic-algebra": [
        _eigen(4, 4, "-1/3"),
        _eigen(5, 3, "2"),
        _eigen(3, 5, "1"),
        _presentation(5, 3),
    ],
    "numeric-operator": [
        _coefficient(4, 2, 3, 4, 1),
        _coefficient(5, 1, 2, 4, 5),
        _coefficient(3, 3, 5, 5, 2),
        _coefficient(4, 1, 5, 3, 7),
    ],
    "coset-sweep": [
        _distinction(3, 2, 3, 40),
        _distinction(5, 1, 2, 8),
        _growth(4, 8),
        _poincare(5),
        ["gelfand"],
    ],
}


def universe(workload: str) -> list[list[str]]:
    """Every argv the workload's stream or its CLI handful can produce."""
    if workload == "generic-algebra":
        jobs = EIGEN_JOBS + [_presentation(e, s) for e in range(3, 9) for s in JOB_SEEDS]
    elif workload == "numeric-operator":
        jobs = [
            _coefficient(e, f, q0, L, s)
            for e in (3, 4, 5)
            for f in (1, 2, 3)
            for q0 in Q0S
            for L in (3, 4, 5)
            for s in JOB_SEEDS
        ]
    elif workload == "coset-sweep":
        jobs = [_distinction(e, f, q0, L) for e, L, f in DISTINCTION for q0 in Q0S] + COSET_FIXED_JOBS
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs + [job for job in CLI_HANDFUL[workload] if job not in jobs]


def job_key(argv: list[str]) -> str:
    return " ".join(argv)


def _w0_counts(e: int, L: int) -> list[int]:
    """N(0..L), elements of the affine Weyl group by length.

    Maclaurin coefficients of prod_{i=1}^{e-1} (1 + X + ... + X**i) / (1 - X**i),
    in integer arithmetic of the benchmark's own, independent of the
    program under test.
    """
    series = [1] + [0] * L
    for i in range(1, e):
        # multiply by 1 + X + ... + X**i
        series = [sum(series[n - j] for j in range(0, min(i, n) + 1)) for n in range(L + 1)]
        # divide by 1 - X**i
        for n in range(i, L + 1):
            series[n] += series[n - i]
    return series


def cases(argv: list[str], report: dict) -> int:
    """Exact cases a job reports checking.

    A case is a group element, coefficient, relation instance or sample
    point checked; for ``distinction`` it is a coset summed.
    """
    command = argv[0]
    if command == "eigen":
        return sum(r["checked"] for r in report["reports"])
    if command == "presentation":
        return sum(c["cases"] for c in report["checks"]) + report["associativity_samples"]
    if command == "coefficient":
        return report["checked"] + report["reduced_word_independence"]["elements"] + SAMPLES
    if command == "growth":
        return sum(row["count_bfs"] for row in report["rows"])
    if command == "poincare":
        return len(report["samples"])
    if command == "distinction":
        return sum(_w0_counts(report["e"], report["L"]))
    if command == "gelfand":
        return len(report["examples"])
    raise ValueError(f"no case count for {command!r}")
