"""Host-speed reference: scale host times to a fixed host speed.

The baseline host is a 2-vCPU virtual machine that shares its physical
cores with other tenants.  Its vCPUs slow by 1.2–1.7× in bursts of about
100 ms, and how dense the bursts are changes from one minute to the
next, so the medians of raw host time of runs of the same code spread
by 16–25% in a busy period.

A fixed pure-Python loop run right before and right after a timed region
slows much as the region does.  So every host time the benchmark
reports end to end is *scaled*: measured seconds × (the loop's time on
the baseline host at full speed / the loop's mean time around the
region).  In the same busy period this cut the spread of run medians to
4–10%.  Raw seconds stay in the run record beside the scaled ones.

Which loop tracks a region depends on where its work runs.  Work in one
process runs on one vCPU and stays there, so the loop runs unpinned in
the measuring process, on that same vCPU.  Work spread over several
processes (sweep workers, the service's server and its clients) runs on
every vCPU, so the loop runs pinned to each vCPU in turn and the mean is
taken.
"""

from __future__ import annotations

import os
import time

__all__ = ["REFERENCE_S", "reference", "scale"]

#: Iterations of the reference loop.
ITERATIONS = 400_000

#: Time of the reference loop on the baseline host at full speed
#: (Python 3.11, Xeon vCPU): the unit scaled seconds are expressed in.
REFERENCE_S = 0.0145

#: At most this many vCPUs are sampled, which bounds the cost of one
#: reference on a large host.
MAX_CPUS = 8


def _loop() -> float:
    start = time.perf_counter()
    x = 0
    for i in range(ITERATIONS):
        x += i
    return time.perf_counter() - start


def reference(processes: int) -> float:
    """Seconds the reference loop takes now, for work spread over
    ``processes`` processes (see module doc)."""
    if processes <= 1 or not hasattr(os, "sched_setaffinity"):
        return _loop()
    allowed = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(allowed)[:MAX_CPUS]:
            os.sched_setaffinity(0, {cpu})
            times.append(_loop())
    finally:
        os.sched_setaffinity(0, allowed)
    return sum(times) / len(times)


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between references ``before`` and ``after``,
    expressed at the baseline host's full speed."""
    return seconds * REFERENCE_S * 2 / (before + after)
