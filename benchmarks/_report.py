"""Shared reporting helpers for the benchmark harness.

Every bench prints a paper-vs-measured table through these helpers so
the console output of ``pytest benchmarks/ --benchmark-only -s`` reads
as a faithful regeneration of the paper's tables and figures.

:func:`print_table` is re-exported from :mod:`repro.obs.summary` — the
bench harness and the ``repro trace`` CLI share one formatter.
"""

from __future__ import annotations

import functools
import json
import subprocess
from pathlib import Path

from repro.core.proc import peak_rss_bytes
from repro.obs.summary import print_table

__all__ = [
    "compare",
    "default_meta",
    "paper_vs_measured",
    "peak_rss_bytes",
    "print_table",
    "write_json",
]


@functools.lru_cache(maxsize=1)
def _git_sha() -> str:
    """The working tree's HEAD SHA, computed once per process.

    Benches that sweep many configurations call :func:`default_meta`
    per payload; the SHA cannot change mid-run, so spawning one
    ``git rev-parse`` subprocess per call was pure overhead.
    """
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def default_meta(**extra: object) -> dict:
    """A self-description block for :func:`write_json`: the git SHA of
    the working tree (``"unknown"`` outside a repo), the process's peak
    RSS at meta-build time (bytes — a memory-footprint audit trail for
    every committed baseline), plus any bench configuration passed as
    keyword arguments.  Lives under ``"_meta"``, which :func:`compare`
    skips, so the machine-dependent RSS never trips a ``--check``."""
    return {"git_sha": _git_sha(), "peak_rss_bytes": peak_rss_bytes(), **extra}


def write_json(name: str, payload: dict, meta: dict | None = None) -> Path:
    """Record a bench's results as ``benchmarks/BENCH_<name>.json``.

    The committed file is the baseline: re-running the bench rewrites
    it, and a diff shows how a change moved the measured numbers.

    Args:
        name: Baseline name (file stem suffix).
        payload: The measured numbers.
        meta: Optional self-description (git SHA, bench config — see
            :func:`default_meta`), recorded under a ``"_meta"`` key so
            a committed baseline says what produced it.
    """
    if meta is not None:
        payload = {"_meta": meta, **payload}
    path = Path(__file__).resolve().parent / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def compare(current: dict, baseline: dict) -> list[str]:
    """Diff ``current`` against a committed ``baseline`` payload.

    Walks the baseline recursively (skipping the ``"_meta"`` block):
    every baseline key must be present and every leaf must serialize to
    the same JSON as its baseline value, so an int off by one, a float
    one ulp off or an ``8`` that became ``8.0`` all drift.  Committed
    payloads hold only deterministic leaves; wall-clock numbers are
    printed, never pinned.  Returns human-readable drift messages —
    empty means the run matches the baseline exactly.
    """
    drifts: list[str] = []
    _compare_into(current, baseline, "", drifts)
    return drifts


def _compare_into(current: object, baseline: object, path: str, drifts: list[str]) -> None:
    label = path or "<root>"
    if isinstance(baseline, dict):
        if not isinstance(current, dict):
            drifts.append(f"{label}: expected mapping, got {type(current).__name__}")
            return
        for key in sorted(baseline):
            if key == "_meta":
                continue
            child = f"{path}.{key}" if path else str(key)
            if key not in current:
                drifts.append(f"{child}: missing from current results")
            else:
                _compare_into(current[key], baseline[key], child, drifts)
        return
    if _canonical(current) != _canonical(baseline):
        drifts.append(f"{label}: {current!r} != baseline {baseline!r}")


def _canonical(value: object) -> str:
    """The JSON text :func:`write_json` commits for ``value`` (``repr``
    stands in for what JSON cannot encode, so it drifts instead of
    raising)."""
    return json.dumps(value, sort_keys=True, default=repr)


def paper_vs_measured(
    title: str,
    rows: list[tuple[str, object, object]],
    headers: tuple[str, str, str] = ("quantity", "paper", "measured"),
) -> None:
    """Print a three-column paper-vs-measured comparison."""
    print_table(title, list(headers), [list(r) for r in rows])
