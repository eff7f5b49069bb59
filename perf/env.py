"""The environment block recorded in every results file.

A host limit and an engine bottleneck look the same in a wall-clock
number.  These facts tell them apart: how many cores the run may use,
how well two CPU-bound processes actually run side by side, what else
was loading the machine, and what software and storage the run used.
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from .layers import calibrate

#: A pure-Python spin loop, timed inside the child so spawn cost is excluded.
_SPIN = (
    "import time\n"
    "t = time.perf_counter()\n"
    "x = 0\n"
    "for i in range({n}):\n"
    "    x += i\n"
    "print(time.perf_counter() - t)\n"
)


def _spin(count: int, n: int) -> list[float]:
    procs = [
        subprocess.Popen([sys.executable, "-c", _SPIN.format(n=n)], stdout=subprocess.PIPE, text=True)
        for _ in range(count)
    ]
    return [float(proc.communicate()[0]) for proc in procs]


def parallel_efficiency(n: int = 1_000_000) -> dict:
    """Solo vs paired spin loop: 1.0 means two processes run as fast as one.

    Solo runs bracket the paired run, so a machine whose speed drifts
    during the measurement biases neither side.
    """
    solo = _spin(1, n)
    paired = _spin(2, n)
    solo += _spin(1, n)
    return {
        "solo_s": solo,
        "paired_s": paired,
        "efficiency": statistics.mean(solo) / statistics.mean(paired),
    }


def _git(root: Path) -> dict | None:
    if not (root / ".git").exists():
        return None
    try:
        sha = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.strip()
        status = subprocess.run(["git", "-C", str(root), "status", "--porcelain"],
                                capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    return {"sha": sha, "dirty": bool(status.strip())}


def filesystem_type(path: Path) -> str | None:
    """Type of the filesystem holding ``path`` (longest mount prefix)."""
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return None
    target = str(path.resolve())
    best, fstype = "", None
    for line in mounts:
        fields = line.split()
        if len(fields) < 3:
            continue
        mount = fields[1]
        inside = target == mount or target.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) >= len(best):
            best, fstype = mount, fields[2]
    return fstype


def environment(root: Path, workdir: Path) -> dict:
    """Everything but the end-of-run load average (see :func:`finish`)."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "parallel": parallel_efficiency(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git": _git(root),
        "filesystem": {"state_and_cache_dirs": filesystem_type(workdir)},
        "loadavg_start": list(os.getloadavg()),
        "wrapper_calibration_ns": calibrate(),
    }


def finish(env: dict) -> dict:
    env["loadavg_end"] = list(os.getloadavg())
    return env
