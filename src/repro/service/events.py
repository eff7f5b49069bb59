"""Per-job event fan-out with bounded per-client buffers.

Every live job owns one :class:`EventBroker`; a finished job keeps
only its :meth:`~EventBroker.replay`, encoded once
(:class:`repro.service.jobs.FinishedJob`).  The sweep thread pushes
events through the event loop into each subscriber's bounded
``asyncio.Queue`` — **never** awaiting, so a slow or stalled SSE client
cannot block the worker or grow server memory:

* *droppable* events (periodic metrics snapshots, anything a client
  can cheaply live without) are simply discarded when a subscriber's
  queue is full;
* *critical* events (per-point progress, errors, the terminal status)
  evict the subscriber's oldest buffered event instead, so the
  terminal event always gets through and the buffer stays bounded.

The broker also keeps a bounded replay ``history`` of critical events:
a client that connects after the job started (or finished) first
receives everything that already happened, then the live stream — that
is what makes "submit, then open the SSE stream" race-free.  The
history is capped (``history_limit``): a very long job drops its
*oldest* replay events rather than growing server RSS without bound,
and late subscribers get a leading ``truncated`` marker frame telling
them how many events aged out (the terminal status and recent tail are
always intact).
"""

from __future__ import annotations

import asyncio
from collections import deque

__all__ = ["EventBroker", "TERMINAL_EVENTS"]

#: Event names that end an SSE stream (job reached a final state).
TERMINAL_EVENTS = ("done", "failed", "cancelled")


class EventBroker:
    """Bounded pub/sub for one job's event stream."""

    def __init__(self, buffer: int = 256, history_limit: int = 10_000) -> None:
        self.buffer = buffer
        self.history_limit = history_limit
        self.history: deque[tuple[str, dict]] = deque(maxlen=history_limit)
        self.trimmed = 0  # critical events aged out of history
        self.dropped = 0  # events a full subscriber queue lost
        self._subscribers: set[asyncio.Queue] = set()

    def publish(self, event: str, data: dict, *, droppable: bool = False) -> None:
        """Fan ``(event, data)`` out to history and every subscriber.

        Never blocks and never raises on slow consumers; see the module
        docstring for the droppable/critical distinction.
        """
        if not droppable:
            if len(self.history) == self.history_limit:
                self.trimmed += 1
            self.history.append((event, data))
        for queue in list(self._subscribers):
            try:
                queue.put_nowait((event, data))
            except asyncio.QueueFull:
                self.dropped += 1
                if droppable:
                    continue
                try:
                    queue.get_nowait()
                except asyncio.QueueEmpty:  # pragma: no cover - full implies non-empty
                    pass
                queue.put_nowait((event, data))

    def subscribe(self) -> tuple[list[tuple[str, dict]], asyncio.Queue]:
        """Attach a new consumer.

        Returns ``(replay, queue)``: the critical events published so
        far, and the bounded live queue.  Both are taken in one event
        loop step, so no event is ever missed or delivered twice.  When
        the history cap already dropped old events, the replay leads
        with a ``truncated`` marker frame carrying the drop count, so a
        late client knows its view of the early job is incomplete.
        """
        queue: asyncio.Queue = asyncio.Queue(maxsize=self.buffer)
        self._subscribers.add(queue)
        return self.replay(), queue

    def replay(self) -> list[tuple[str, dict]]:
        """The frames a new subscriber is replayed: the kept history,
        led by the ``truncated`` marker when the cap dropped events."""
        replay = list(self.history)
        if self.trimmed:
            replay.insert(
                0, ("truncated", {"trimmed": self.trimmed, "kept": len(replay)})
            )
        return replay

    def unsubscribe(self, queue: asyncio.Queue) -> None:
        self._subscribers.discard(queue)

    @property
    def subscribers(self) -> int:
        return len(self._subscribers)
