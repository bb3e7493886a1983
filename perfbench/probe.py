"""Host-speed probe: a fixed stdlib-only Fraction loop.

On a shared virtual machine the CPU speed can change by a factor of about
1.6 for seconds or minutes at a time, because of other tenants' load, and
every kind of Python code here slows by about the same factor.  The
worker runs this probe before and after every timed job, set-up probe
and CLI run.  The reported times are scaled to a host on which the probe
takes ``REFERENCE_MS``, using the mean of the two probes around each
sample.  A change to the program under test does not change the probe,
so a faster program still shows as proportionally faster.
"""

from __future__ import annotations

import time
from fractions import Fraction

# The probe's time on the host the benchmark was tuned on, in its fast
# state (2 vCPU shared virtual machine, CPython 3.11).
REFERENCE_MS = 6.0


def probe_ns() -> int:
    """Time of the fixed Fraction loop, in ns."""
    t0 = time.perf_counter_ns()
    x = Fraction(0)
    for i in range(1, 3001):
        x += Fraction(1, i % 97 + 1)
    return time.perf_counter_ns() - t0


def scaled_ns(ns: int, probe: float) -> float:
    """A measured time scaled to the reference host speed."""
    return ns * REFERENCE_MS * 1e6 / probe
