"""Calendar-queue event scheduler for the serving hot loop.

A discrete-event simulator at million-request scale spends a large
share of its time ordering future events.  A binary heap pays
O(log n) per operation with n the *total* pending-event count; a
calendar queue (R. Brown, CACM 1988) exploits the structure DES event
streams actually have — times are near-monotone and densely packed —
to make both operations amortized O(1): events hash into fixed-width
time buckets, and the simulation clock sweeps the buckets in order.

:class:`CalendarQueue` is the bucketed-time-wheel variant used by
:class:`repro.serving.simulator.ServingSimulator`:

* Future events append into per-bucket lists (``dict`` keyed by the
  absolute bucket index ``floor(time / width)``), so a push is one
  multiply, one dict probe and one append — no comparisons.
* A small heap of *bucket indices* finds the next non-empty bucket
  without scanning empty ones, so sparse regions (idle tails, long
  repair delays) cost O(log buckets), not O(span / width).
* The bucket at the simulation clock is heapified once (C-speed) and
  drained with ``heappop``; same-bucket pushes land directly in that
  heap, preserving order for events scheduled at the current instant.
* ``peek_time`` reads the next entry's time without popping it, so the
  simulator can tell how far it may run ahead before the next event.

Entries are plain ``(time, kind, seq, payload)`` tuples — the exact
shape the simulator previously fed to :mod:`heapq` — and the pop order
is **identical** to a global heap's ``(time, kind, seq)`` order for
*any* push/pop interleaving, not just monotone ones: a push that lands
at or before the current bucket goes straight into the live heap, so
it still sorts correctly against everything not yet popped.  That
equivalence is what lets the golden SimReports and trace SHA-256 pins
survive the swap bit-for-bit; ``tests/test_calqueue.py`` additionally
property-tests it against a ``heapq`` reference across seeded random
event streams, including same-timestamp ties broken by ``(kind, seq)``.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

__all__ = ["CalendarQueue"]


class CalendarQueue:
    """Bucketed time-wheel priority queue over ``(time, ...)`` tuples.

    Args:
        bucket_width: Seconds of simulated time per bucket.  Throughput
            is best when an average bucket holds O(1) events — width ≈
            the mean gap between *distinct* event times; the structure
            stays correct (just gradually degrades toward one big heap
            or a long index walk) for any positive width.
    """

    __slots__ = ("width", "_scale", "_buckets", "_heads", "_cur", "_cur_index")

    def __init__(self, bucket_width: float = 1.0) -> None:
        if not bucket_width > 0.0:
            raise ValueError("bucket_width must be positive")
        self.width = float(bucket_width)
        self._scale = 1.0 / self.width
        self._buckets: dict[int, list] = {}  # future bucket index -> entries
        self._heads: list[int] = []  # min-heap of future bucket indices
        self._cur: list = []  # heap of entries in the current bucket
        # Index of the bucket currently being drained.  Invariant: every
        # index in _heads is > _cur_index, so a pushed entry belongs to
        # the live heap iff its index is <= _cur_index.
        self._cur_index = -(2**63)

    def __len__(self) -> int:
        return len(self._cur) + sum(map(len, self._buckets.values()))

    def __bool__(self) -> bool:
        return bool(self._cur) or bool(self._heads)

    def push(self, entry: tuple) -> None:
        """Insert one ``(time, kind, seq, payload)`` entry."""
        index = int(entry[0] * self._scale)
        if index <= self._cur_index:
            # Lands in (or before) the bucket being drained: keep it in
            # the live heap so it sorts against the not-yet-popped tail.
            heappush(self._cur, entry)
            return
        bucket = self._buckets.get(index)
        if bucket is None:
            self._buckets[index] = [entry]
            heappush(self._heads, index)
        else:
            bucket.append(entry)

    def pop(self) -> tuple:
        """Remove and return the minimum entry by ``(time, kind, seq)``."""
        if not self._cur:
            self._advance()
        return heappop(self._cur)

    def peek_time(self) -> float:
        """Time of the entry :meth:`pop` would return next, without
        removing it."""
        if not self._cur:
            self._advance()
        return self._cur[0][0]

    def _advance(self) -> None:
        """Make the next non-empty bucket the live heap.

        Called only while the live heap is empty.  Every index in
        ``_heads`` exceeds ``_cur_index``, so while the live heap holds
        entries they are the global minimum, and a peek that advances
        early leaves the pop order unchanged.
        """
        if not self._heads:
            raise IndexError("empty CalendarQueue")
        index = heappop(self._heads)
        bucket = self._buckets.pop(index)
        heapify(bucket)
        self._cur = bucket
        self._cur_index = index
