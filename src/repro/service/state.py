"""Session persistence: append-only JSONL journals and job artifacts.

Layout under the service ``--state-dir``::

    <state>/server.json              # bound host/port/pid (atomic write)
    <state>/jobs/<id>.jsonl          # one journal per job, append-only
    <state>/artifacts/<id>.report.json
    <state>/artifacts/<id>.trace.json

A journal line is one JSON object with a ``"kind"`` discriminator:
``submit`` (the full job spec), ``status`` (state transition),
``point`` (one settled sweep point), ``resume`` (a restart picked the
job back up), ``summary`` (terminal counts).  The journal is the only
write path for job state, so a server killed at any instant loses at
most the line it was writing — :meth:`StateStore.load` skips a
truncated or corrupt line — and a restart reconstructs every job from
the journals alone.  Results themselves are *not* journaled: they live in
the :class:`repro.sweep.SweepCache`, which is what makes resume cheap
(recompute only unevaluated points) and the report byte-identical.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..obs.metrics import MetricsRegistry

__all__ = ["StateStore"]


def _atomic_write(path: Path, body: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(body)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        # os.replace only orders the rename against *this process*; the
        # directory entry itself can still be lost to a crash until the
        # parent directory is fsync'd.  server.json is how restarted
        # tooling finds the server, so make the rename durable.
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class StateStore:
    """The service's on-disk session state."""

    def __init__(
        self, root: str | Path, metrics: "MetricsRegistry | None" = None
    ) -> None:
        self.root = Path(root).expanduser()
        self.jobs_dir = self.root / "jobs"
        self.artifacts_dir = self.root / "artifacts"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.artifacts_dir.mkdir(parents=True, exist_ok=True)
        # Self-telemetry: journal fsync latency is the one disk wait on
        # the event-loop thread, so the server watches it (growth=1.1
        # keeps the bucket count small over the ms..s range).
        self._fsync_hist = (
            metrics.histogram("service.journal.fsync_s", growth=1.1)
            if metrics is not None
            else None
        )

    # -- journals --------------------------------------------------------

    def journal_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.jsonl"

    def append(self, job_id: str, record: dict) -> None:
        """Append one journal line, flushed before returning."""
        line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        with open(self.journal_path(job_id), "a", encoding="utf-8") as handle:
            handle.write(line)
            handle.flush()
            start = time.perf_counter()
            os.fsync(handle.fileno())
            if self._fsync_hist is not None:
                self._fsync_hist.observe(time.perf_counter() - start)

    def load(self) -> dict[str, list[dict]]:
        """Every job's journal records, keyed by job id.

        A line that is not one JSON object — truncated (the server died
        mid-append), not UTF-8, or nested too deep to parse — is
        skipped, never fatal.
        """
        journals: dict[str, list[dict]] = {}
        for path in sorted(self.jobs_dir.glob("*.jsonl")):
            records = []
            for line in path.read_bytes().splitlines():
                try:
                    record = json.loads(line.decode("utf-8"))
                except (ValueError, RecursionError):
                    continue
                if isinstance(record, dict):
                    records.append(record)
            if records:
                journals[path.stem] = records
        return journals

    # -- artifacts -------------------------------------------------------

    def report_path(self, job_id: str) -> Path:
        return self.artifacts_dir / f"{job_id}.report.json"

    def trace_path(self, job_id: str) -> Path:
        return self.artifacts_dir / f"{job_id}.trace.json"

    # -- server info -----------------------------------------------------

    def write_server_info(self, host: str, port: int) -> Path:
        """Record where the server is listening (atomic, for scripts and
        tests that start ``repro serve --port 0`` and need the bound
        port)."""
        path = self.root / "server.json"
        _atomic_write(
            path,
            json.dumps(
                {"host": host, "port": port, "pid": os.getpid()}, sort_keys=True
            )
            + "\n",
        )
        return path
