"""Content-addressed on-disk result cache for sweeps.

Each evaluated point is one JSON file named by its cache key
(:func:`repro.sweep.spec.point_key`) under a two-hex-char shard
directory, mirroring git's object store layout::

    <root>/ab/abcdef....json

An entry is self-describing — it stores the target, merged config,
effective seed and package version alongside the result — so a cache
directory can be audited with ``jq`` and an entry can be validated
against the key that addresses it.  Anything wrong with an entry
(unparsable or too deeply nested JSON, missing fields, a key mismatch
from corruption or a truncated write, a shard that is not a directory)
is treated as a miss and silently recomputed; writes go through a temp
file + ``os.replace`` so concurrent sweeps sharing a cache directory
never observe half-written entries.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

__all__ = ["DEFAULT_CACHE_DIR", "SweepCache"]

#: Default cache root; override per-run with ``--cache-dir`` or
#: globally with the ``REPRO_SWEEP_CACHE`` environment variable.
DEFAULT_CACHE_DIR = "~/.cache/repro-sweep"


def _resolve_root(root: str | Path | None) -> Path:
    if root is None:
        root = os.environ.get("REPRO_SWEEP_CACHE") or DEFAULT_CACHE_DIR
    return Path(root).expanduser()


class SweepCache:
    """A directory of content-addressed point results."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = _resolve_root(root)

    def path_for(self, key: str) -> Path:
        """Where the entry for ``key`` lives (whether or not it exists)."""
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """The stored result for ``key``, or ``None`` on miss.

        A corrupted or foreign entry — unreadable, unparsable, nested
        too deep to parse, missing the ``result`` field, or recorded
        under a different key — is a miss, never an error: the point is
        recomputed and the entry overwritten.
        """
        path = self.path_for(key)
        try:
            entry = json.loads(path.read_text())
        except (OSError, ValueError, RecursionError):
            return None
        if not isinstance(entry, dict) or entry.get("key") != key:
            return None
        result = entry.get("result")
        return result if isinstance(result, dict) else None

    def get_many(self, keys: list[str]) -> dict[str, dict | None]:
        """Probe many keys: ``{key: result-or-None}``, one :meth:`get`
        per key (sweeps and search rungs probe tens of keys, so one
        open per key is cheap)."""
        return {key: self.get(key) for key in keys}

    def put(
        self, key: str, *, target: str, config: dict, seed: int, version: str, result: dict
    ) -> Path:
        """Atomically record one evaluated point."""
        path = self.path_for(key)
        if path.parent.is_file():
            # A stray file where the shard directory belongs: the probes
            # already read it as a miss; replace it so the write lands.
            try:
                path.parent.unlink()
            except (FileNotFoundError, IsADirectoryError):
                pass  # a concurrent writer replaced it first
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "key": key,
            "target": target,
            "config": config,
            "seed": seed,
            "version": version,
            "result": result,
        }
        body = json.dumps(entry, indent=2, sort_keys=True) + "\n"
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(body)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def __len__(self) -> int:
        """Number of entries currently on disk."""
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("??/*.json"))
