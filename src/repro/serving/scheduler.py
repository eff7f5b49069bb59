"""Continuous-batching scheduler policies.

A pool's prefill batch formation is a pure function of its queue and
KV pool, so it can be unit-tested without running the event loop: FCFS
admission under a token budget and KV availability (admission control:
a request whose cache cannot be allocated waits, creating backpressure
instead of OOM).
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
        if not kv.allocate(head, need):  # sets head.kv_tokens
            break
        queue.popleft()
        batch.append(head)
        tokens += head.prompt_tokens
    return batch
