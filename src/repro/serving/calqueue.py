"""The serving simulator's event calendar (its future-event list).

:class:`CalendarQueue` is one binary heap (:mod:`heapq`) of
``(time, kind, seq, payload)`` entries, popped in ``(time, kind, seq)``
order, so same-time ties break by event kind and then by push order.
The simulator feeds arrivals one at a time and keeps at most one live
step completion per pool, so the calendar holds O(in-flight requests)
pending events at any request count (on average about three on the
``serve-stream`` benchmark workload) and a plain heap is all it needs.
``peek_time`` reads the next entry's time without popping it, so the
simulator can tell how far it may run ahead before the next event.
"""

from __future__ import annotations

from heapq import heappop, heappush

__all__ = ["CalendarQueue"]


class CalendarQueue:
    """Min-heap of ``(time, kind, seq, payload)`` event entries."""

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: list[tuple] = []

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, entry: tuple) -> None:
        """Insert one ``(time, kind, seq, payload)`` entry."""
        heappush(self._heap, entry)

    def pop(self) -> tuple:
        """Remove and return the minimum entry by ``(time, kind, seq)``;
        ``IndexError`` when empty."""
        return heappop(self._heap)

    def peek_time(self) -> float:
        """Time of the entry :meth:`pop` would return next, without
        removing it; ``IndexError`` when empty."""
        return self._heap[0][0]
