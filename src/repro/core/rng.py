"""Shared seeded-RNG factory.

Every stochastic path in the repository — synthetic corpora, precision
noise injection, the serving simulator's arrival/acceptance processes —
draws from a :class:`numpy.random.Generator` built here, so one root
seed reproduces an entire experiment.

Named streams decorrelate the consumers: ``seeded_generator(7, "arrivals")``
and ``seeded_generator(7, "mtp")`` are independent, yet both derive
deterministically from seed 7 via :class:`numpy.random.SeedSequence`.
This is how a single ``--seed`` flag can govern a simulation whose
subsystems each need their own generator without accidental coupling
(consuming one extra arrival must not shift every acceptance draw).
"""

from __future__ import annotations

import zlib
from collections.abc import Callable
from itertools import chain

import numpy as np


def _stream_key(stream: str) -> int:
    """Stable 32-bit key for a stream name (crc32, not ``hash()`` —
    Python string hashing is salted per process)."""
    return zlib.crc32(stream.encode("utf-8"))


def derive_seed(seed: int, stream: str) -> int:
    """A deterministic 64-bit child seed for ``(seed, stream)``.

    This extends the named-stream discipline across *process*
    boundaries: the sweep engine (:mod:`repro.sweep`) derives one child
    seed per grid point from the root seed and the point's canonical
    config, then ships the plain integer to a worker process.  The
    child seed depends only on ``(seed, stream)`` — not on worker
    count, scheduling order, or platform — so a fanned-out sweep is
    byte-identical to a serial one.
    """
    state = np.random.SeedSequence([seed, _stream_key(stream)]).generate_state(2, np.uint32)
    return (int(state[0]) << 32) | int(state[1])


def seeded_generator(seed: int, stream: str | None = None) -> np.random.Generator:
    """A deterministic generator for ``(seed, stream)``.

    Args:
        seed: Root experiment seed.
        stream: Optional stream name; distinct names yield independent
            generators for the same seed.  ``None`` gives the root
            stream (identical to ``np.random.default_rng(seed)``).

    Returns:
        A fresh ``numpy.random.Generator``.
    """
    if stream is None:
        return np.random.default_rng(seed)
    return np.random.default_rng(np.random.SeedSequence([seed, _stream_key(stream)]))


def uniform_stream(generator: np.random.Generator, block: int) -> Callable[[], float]:
    """A zero-argument callable returning ``generator.uniform()`` values
    one at a time, drawn ``block`` at a time.

    ``Generator.uniform(size=n)`` yields exactly the values of ``n``
    scalar ``uniform()`` calls, in order, so the stream returns the same
    floats as calling ``generator.uniform()`` repeatedly, for a fraction
    of the per-call cost.  It draws up to ``block - 1`` values past the
    last one consumed, so the generator must be dedicated to the stream.
    """
    blocks = iter(lambda: generator.uniform(size=block).tolist(), None)
    return chain.from_iterable(blocks).__next__
