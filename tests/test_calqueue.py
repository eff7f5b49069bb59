"""CalendarQueue vs heapq: pop-order equivalence property tests.

The serving simulator's golden pins (byte-identical SimReports and
trace SHA-256) depend on the event calendar popping *every* event in
``(time, kind, seq)`` order, including same-time ties broken by
``(kind, seq)``.  These tests check that order with seeded random
event streams across time scales and arrival regimes — clustered,
sparse, heavily tied, interleaved push/pop — against a plain
``heapq`` reference, and check that ``peek_time`` always names the
time of the next pop.
"""

from __future__ import annotations

import heapq
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.serving.calqueue import CalendarQueue


def _stream(rng: random.Random, n: int, *, time_quantum: float | None, spread: float):
    """Seeded event stream: near-monotone times like a DES produces.

    ``time_quantum`` snaps times to a grid so exact duplicates are
    common (the tie-break-by-``(kind, seq)`` path); ``spread`` scales
    how far ahead of the current clock events are scheduled.
    """
    events = []
    now = 0.0
    for seq in range(n):
        now += rng.random() * spread * 0.1
        t = now + rng.random() * spread
        if time_quantum is not None:
            t = round(t / time_quantum) * time_quantum
        events.append((t, rng.randrange(6), seq, f"payload{seq}"))
    return events


def _drain_both(queue: CalendarQueue, reference: list) -> None:
    heapq.heapify(reference)
    while reference:
        expected = heapq.heappop(reference)
        assert queue
        assert queue.pop() == expected
    assert not queue
    with pytest.raises(IndexError):
        queue.pop()


@pytest.mark.parametrize("spread", [0.05, 1.0, 17.0])
@pytest.mark.parametrize("quantum", [None, 0.25])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pop_order_matches_heapq_bulk(spread, quantum, seed):
    rng = random.Random(seed)
    events = _stream(rng, 500, time_quantum=quantum, spread=spread)
    queue = CalendarQueue()
    for event in events:
        queue.push(event)
    assert len(queue) == len(events)
    _drain_both(queue, list(events))


@pytest.mark.parametrize("seed", range(8))
def test_pop_order_matches_heapq_interleaved(seed):
    """The DES access pattern: pops interleaved with pushes whose times
    never precede the last popped event (events schedule the future)."""
    rng = random.Random(100 + seed)
    queue = CalendarQueue()
    reference: list = []
    seq = 0
    now = 0.0
    popped = []
    expected = []
    for _ in range(400):
        burst = rng.randrange(4)
        for _ in range(burst):
            # Delay 0 exercises push-at-the-current-instant.
            delay = rng.choice([0.0, rng.random() * 3.0, rng.random() * 40.0])
            event = (now + delay, rng.randrange(6), seq, seq)
            seq += 1
            queue.push(event)
            heapq.heappush(reference, event)
        if reference and rng.random() < 0.6:
            expected.append(heapq.heappop(reference))
            item = queue.pop()
            popped.append(item)
            now = item[0]
    while reference:
        expected.append(heapq.heappop(reference))
        popped.append(queue.pop())
    assert popped == expected
    assert not queue


def test_identical_timestamps_break_ties_by_kind_then_seq():
    queue = CalendarQueue()
    events = [(1.0, kind, seq, None) for kind in (3, 1, 2, 0) for seq in (7, 2, 9)]
    for event in events:
        queue.push(event)
    drained = [queue.pop() for _ in range(len(events))]
    assert drained == sorted(events)
    kinds_seqs = [(kind, seq) for _, kind, seq, _ in drained]
    assert kinds_seqs == sorted(kinds_seqs)


def test_non_monotone_push_still_sorts_against_pending():
    """An entry pushed behind one still pending pops first."""
    queue = CalendarQueue()
    queue.push((0.25, 0, 0, "a"))
    queue.push((0.75, 0, 1, "b"))
    assert queue.pop() == (0.25, 0, 0, "a")
    queue.push((0.3, 0, 2, "c"))  # behind "b"
    assert queue.pop() == (0.3, 0, 2, "c")
    assert queue.pop() == (0.75, 0, 1, "b")
    assert not queue


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.integers(0, 3),  # pushes before the next pop
            st.lists(
                st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 3.0, 40.0]), min_size=3, max_size=3
            ),
            st.lists(st.integers(0, 5), min_size=3, max_size=3),
            st.booleans(),  # pop after peeking
        ),
        max_size=120,
    ),
)
def test_peek_time_matches_heapq_under_interleaving(ops):
    """``peek_time`` is the time of the entry ``pop`` returns next, at
    every point of an interleaved push/pop stream with same-time ties
    (delay 0 and a coarse delay grid), and peeking never changes the
    pop order."""
    queue = CalendarQueue()
    reference: list = []
    seq = 0
    now = 0.0
    for pushes, delays, kinds, pop in ops:
        for delay, kind in list(zip(delays, kinds))[:pushes]:
            event = (now + delay, kind, seq, seq)
            seq += 1
            queue.push(event)
            heapq.heappush(reference, event)
        if not reference:
            assert not queue
            continue
        assert queue.peek_time() == reference[0][0]
        assert queue.peek_time() == reference[0][0]  # idempotent
        if pop:
            expected = heapq.heappop(reference)
            assert queue.pop() == expected
            now = expected[0]
    while reference:
        assert queue.peek_time() == reference[0][0]
        assert queue.pop() == heapq.heappop(reference)
    assert not queue


def test_peek_time_on_empty_queue_raises():
    queue = CalendarQueue()
    with pytest.raises(IndexError):
        queue.peek_time()
    queue.push((2.0, 0, 0, None))
    assert queue.peek_time() == 2.0
    queue.pop()
    with pytest.raises(IndexError):
        queue.peek_time()
