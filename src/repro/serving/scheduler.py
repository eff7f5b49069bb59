"""Continuous-batching scheduler policies.

A pool's scheduling decisions are pure functions of its queues and KV
pool so they can be unit-tested without running the event loop:

* *prefill batch formation* — FCFS admission under a token budget and
  KV availability (admission control: a request whose cache cannot be
  allocated waits, creating backpressure instead of OOM).
* *decode batch selection* — all admitted requests up to the pool's
  concurrency cap (continuous batching: the batch re-forms every step).
* *preemption victim choice* — latest-arrival-first, the
  recompute-on-preemption policy of paged-attention engines: the newest
  request loses its blocks and re-enters the prefill queue.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .kvpool import PagedKVPool
from .workload import Request


@dataclass(frozen=True)
class SchedulerConfig:
    """Batching and admission knobs for one pool.

    Attributes:
        max_concurrent_per_gpu: Decode streams one GPU sustains across
            both interleaved micro-batches (2 x per-device batch cap).
        max_prefill_tokens: Token budget of one prefill batch.
        max_prefill_requests: Request cap of one prefill batch.
    """

    max_concurrent_per_gpu: int = 64
    max_prefill_tokens: int = 8192
    max_prefill_requests: int = 16

    def __post_init__(self) -> None:
        if min(
            self.max_concurrent_per_gpu,
            self.max_prefill_tokens,
            self.max_prefill_requests,
        ) < 1:
            raise ValueError("scheduler limits must be positive")


def form_prefill_batch(
    queue: deque[Request],
    kv: PagedKVPool,
    config: SchedulerConfig,
    decode_load: int,
    decode_cap: int,
) -> list[Request]:
    """Pop an FCFS prefill batch, allocating KV as admission control.

    Requests are admitted while the token budget, the request cap, the
    KV pool, and the downstream decode slots all have room.  Admission
    stops at the first request that does not fit (FCFS, no reordering —
    head-of-line blocking is part of what the simulator measures).
    """
    batch: list[Request] = []
    tokens = 0
    while queue and len(batch) < config.max_prefill_requests:
        head = queue[0]
        need = head.prompt_tokens + 1  # room for the first generated token
        if batch and tokens + head.prompt_tokens > config.max_prefill_tokens:
            break
        if decode_load + len(batch) >= decode_cap:
            break
        # Single allocate attempt: a False return is exactly the old
        # can_allocate pre-check failing, without computing the block
        # count twice per admitted request.
        if not kv.allocate(head.rid, need):
            break
        queue.popleft()
        head.kv_tokens = kv.capacity_tokens(head.rid)  # decode-step cursor
        batch.append(head)
        tokens += head.prompt_tokens
    return batch


def select_decode_batch(active: list[Request], cap: int) -> list[Request]:
    """The step's decode batch: oldest ``cap`` admitted requests.

    This is the *policy definition*; the simulator never lets a pool's
    active set exceed its cap (admission, prefill formation and fault
    eviction all bound it), so on the hot path the batch is the whole
    active list (see ``ServingSimulator._advance_decode``).
    """
    if len(active) <= cap:
        return list(active)
    return sorted(active, key=lambda r: (r.arrival, r.rid))[:cap]


def pick_preemption_victim(active: list[Request]) -> Request:
    """Latest-arrival victim (ties broken by rid for determinism).

    With the pool's active list pre-sorted by ``(arrival, rid)`` the
    victim is simply the last element; this function states the policy
    for callers holding an unsorted list.
    """
    if not active:
        raise ValueError("no active request to preempt")
    return max(active, key=lambda r: (r.arrival, r.rid))
