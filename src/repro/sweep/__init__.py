"""Deterministic parallel experiment engine with result caching.

Every quantitative claim this repository regenerates — the paper's
tables, the TPOT limits, the routing and serving ablations — is a
*sweep*: one model or simulator evaluated over a parameter grid.  This
package is the shared fan-out + memoization layer those sweeps run on:

* :func:`grid` / :class:`SweepSpec` — declare a Cartesian grid or an
  explicit point list over any registered target;
* :func:`run_sweep` — evaluate the points on reusable forked workers
  (one at ``workers=1``), each point with a child seed derived from the
  root seed and its canonical config, so output is byte-identical at
  any worker count;
* :class:`SweepCache` — a content-addressed on-disk cache keyed by
  target + canonical config + seed + package version, so an unchanged
  point is never recomputed and an edited sweep re-runs incrementally;
* :func:`register_target` — plug in any callable; the serving,
  network-flow and checkpointed-training simulators ship registered.

``repro sweep --target serving --grid request_rate=2,4,8 --workers 4``
is the CLI face; the grid-heavy benchmarks are built on the same
engine.
"""

from .cache import DEFAULT_CACHE_DIR, SweepCache
from .runner import (
    PointResult,
    SweepInterrupted,
    SweepResult,
    merged_windows_section,
    print_sweep_summary,
    run_sweep,
)
from .spec import SweepSpec, canonical_config, grid, point_key
from .supervise import (
    PointQuarantined,
    SupervisorPolicy,
    WorkerSet,
    current_attempt,
    retry_delay_s,
)
from .targets import get_target, register_target, resolve_target, target_names

__all__ = [
    "DEFAULT_CACHE_DIR",
    "SweepCache",
    "PointQuarantined",
    "PointResult",
    "SupervisorPolicy",
    "SweepInterrupted",
    "SweepResult",
    "WorkerSet",
    "current_attempt",
    "merged_windows_section",
    "print_sweep_summary",
    "retry_delay_s",
    "run_sweep",
    "SweepSpec",
    "canonical_config",
    "grid",
    "point_key",
    "get_target",
    "register_target",
    "resolve_target",
    "target_names",
]
