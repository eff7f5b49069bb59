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
        # Per-shard membership index for get_many: shard name →
        # (dir mtime_ns, {keys present}).  Process-local and advisory —
        # see _shard_keys for the staleness argument.
        self._shards: dict[str, tuple[int, set[str]]] = {}

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

    def _shard_keys(self, shard: str) -> set[str]:
        """Keys present in one shard directory, via the in-memory index.

        The index entry is validated against the directory's current
        ``st_mtime_ns`` and rebuilt with a single ``os.scandir`` when
        another process has written to the shard.  Staleness is safe by
        construction: a key *in* the index is still fully validated by
        :meth:`get` (a deleted or corrupted file is a miss), and a key
        *missing* from the index merely causes a recompute — the engine
        then overwrites the entry with identical content.  Our own
        :meth:`put` updates the entry in place, so probe→evaluate→probe
        loops (search rungs) never rescan shards only we are writing.
        """
        path = self.root / shard
        try:
            mtime = path.stat().st_mtime_ns
        except OSError:
            self._shards.pop(shard, None)
            return set()
        cached = self._shards.get(shard)
        if cached is not None and cached[0] == mtime:
            return cached[1]
        keys = set()
        try:
            with os.scandir(path) as it:
                for entry in it:
                    name = entry.name
                    if name.endswith(".json"):
                        keys.add(name[: -len(".json")])
        except OSError:  # not a directory (or unreadable): every key misses
            self._shards.pop(shard, None)
            return set()
        self._shards[shard] = (mtime, keys)
        return keys

    def get_many(self, keys: list[str]) -> dict[str, dict | None]:
        """Probe many keys in one pass: ``{key: result-or-None}``.

        Misses are resolved from the per-shard membership index — one
        ``stat`` + (at most) one ``scandir`` per *shard* instead of one
        failed ``open`` per *key* — so a mostly-cold probe of a large
        search frontier touches the filesystem O(shards), not O(keys).
        Hits still go through :meth:`get`'s full per-entry validation.
        Warm/cold timings are recorded by ``benchmarks/bench_optimize.py``
        (``get_many`` section): ~4× fewer syscalls on an all-miss probe
        of 4k keys, identical results to per-key :meth:`get`.
        """
        out: dict[str, dict | None] = {}
        by_shard: dict[str, list[str]] = {}
        for key in keys:
            by_shard.setdefault(key[:2], []).append(key)
        for shard in sorted(by_shard):
            present = self._shard_keys(shard)
            for key in by_shard[shard]:
                out[key] = self.get(key) if key in present else None
        return out

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
        # Keep the shard index warm for this process: record the key
        # under the directory's post-write mtime so the next get_many
        # neither rescans nor misses what we just wrote.
        shard = key[:2]
        cached = self._shards.get(shard)
        if cached is not None:
            keys = cached[1]
            keys.add(key)
            try:
                self._shards[shard] = (path.parent.stat().st_mtime_ns, keys)
            except OSError:
                self._shards.pop(shard, None)
        return path

    def __len__(self) -> int:
        """Number of entries currently on disk."""
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("??/*.json"))
