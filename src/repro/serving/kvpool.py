"""Paged KV-cache allocator for the serving simulator.

§2.1.2 and the DeepSeek memory analyses make the point the closed-form
serving models cannot: KV-cache *capacity*, not per-token FLOPs, caps
decode concurrency.  This allocator models a vLLM-style paged pool:
capacity is block-granular (a block holds ``block_tokens`` tokens of
cache for one request), requests allocate on admission, extend as they
generate, and free on completion.  When the pool is exhausted the
scheduler preempts a victim — its blocks are freed and its context is
recomputed later, exactly the recompute-on-preemption policy production
engines use.

Pool capacity is sized from :func:`repro.model.kvcache.kv_cache_bytes_per_token`
against the HBM left after resident weights, keeping the simulator on
the same calibration as Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.hardware import GpuSpec
from ..model.config import ModelConfig
from ..model.kvcache import DTYPE_BYTES, kv_cache_bytes_per_token
from ..model.params import count_params


@dataclass(frozen=True)
class KVPoolConfig:
    """Sizing of one pool's paged KV cache.

    Attributes:
        total_blocks: Blocks in the pool.
        block_tokens: Tokens of context one block holds.
    """

    total_blocks: int
    block_tokens: int = 64

    def __post_init__(self) -> None:
        if self.total_blocks < 1 or self.block_tokens < 1:
            raise ValueError("total_blocks and block_tokens must be positive")


def kv_pool_blocks(
    model: ModelConfig,
    gpu: GpuSpec,
    num_gpus: int,
    ep_degree: int,
    block_tokens: int = 64,
    kv_dtype: str = "bf16",
    weight_dtype: str = "fp8",
    reserve_fraction: float = 0.1,
) -> KVPoolConfig:
    """Size a pool's KV cache from its aggregate HBM budget.

    Weights shard over the EP group, so each GPU holds
    ``total_params / ep_degree`` weight bytes; the rest of HBM (minus an
    activation/fragmentation reserve) is KV blocks.
    """
    if num_gpus < 1:
        raise ValueError("num_gpus must be positive")
    if not 0 <= reserve_fraction < 1:
        raise ValueError("reserve_fraction must be in [0, 1)")
    weight_bytes = count_params(model).total * DTYPE_BYTES[weight_dtype] / ep_degree
    budget_per_gpu = gpu.hbm_bytes * (1.0 - reserve_fraction) - weight_bytes
    if budget_per_gpu <= 0:
        raise ValueError("weights alone exceed the HBM budget")
    block_bytes = kv_cache_bytes_per_token(model, kv_dtype) * block_tokens
    total = int(budget_per_gpu * num_gpus // block_bytes)
    if total < 1:
        raise ValueError("KV budget smaller than one block")
    return KVPoolConfig(total_blocks=total, block_tokens=block_tokens)


class PagedKVPool:
    """Block-granular KV allocator with per-request accounting.

    Every operation is O(1): block counts come from pure integer
    arithmetic (no float ``ceil`` on the hot path) and per-request
    holdings live in one dict keyed by ``rid``.  The simulator caches
    each request's covered-token cursor (``capacity_tokens``) so the
    common decode step — the new token still fits in the last block —
    does not even reach the allocator.
    """

    __slots__ = ("_config", "_free", "_held", "_block_tokens", "peak_used")

    def __init__(self, config: KVPoolConfig) -> None:
        self._config = config
        self._free = config.total_blocks
        self._held: dict[int, int] = {}  # rid -> blocks held
        self._block_tokens = config.block_tokens
        self.peak_used = 0

    @property
    def config(self) -> KVPoolConfig:
        """The pool sizing."""
        return self._config

    @property
    def free_blocks(self) -> int:
        """Blocks currently unallocated.

        Negative after a shrinking :meth:`resize` that left the pool
        over-committed — live reservations exceed the new capacity and
        the caller must evict until this is non-negative.
        """
        return self._free

    @property
    def used_blocks(self) -> int:
        """Blocks currently allocated."""
        return self._config.total_blocks - self._free

    @property
    def occupancy(self) -> float:
        """Fraction of the pool in use."""
        return self.used_blocks / self._config.total_blocks

    def blocks_for(self, tokens: int) -> int:
        """Blocks needed to hold ``tokens`` of context."""
        blocks = -(-tokens // self._block_tokens)  # exact integer ceil
        return blocks if blocks > 1 else 1

    def capacity_tokens(self, rid: int) -> int:
        """Context tokens the request's current blocks can hold (0 when
        the request holds none) — the cursor the simulator caches to
        skip :meth:`extend` while the next token still fits."""
        return self._held.get(rid, 0) * self._block_tokens

    def can_allocate(self, tokens: int) -> bool:
        """Whether a fresh allocation of ``tokens`` would succeed."""
        return self.blocks_for(tokens) <= self._free

    def allocate(self, rid: int, tokens: int) -> bool:
        """Reserve blocks for a new request; False when full."""
        if rid in self._held:
            raise ValueError(f"request {rid} already holds blocks")
        need = self.blocks_for(tokens)
        if need > self._free:
            return False
        self._free -= need
        self._held[rid] = need
        used = self._config.total_blocks - self._free
        if used > self.peak_used:
            self.peak_used = used
        return True

    def extend(self, rid: int, tokens: int) -> bool:
        """Grow a request's reservation to cover ``tokens`` of context.

        Returns False (and leaves the reservation unchanged) when the
        pool cannot supply the extra blocks — the preemption trigger.
        """
        held = self._held.get(rid)
        if held is None:
            raise KeyError(f"request {rid} holds no blocks")
        need = self.blocks_for(tokens)
        if need <= held:
            return True
        if need - held > self._free:
            return False
        self._free -= need - held
        self._held[rid] = need
        used = self._config.total_blocks - self._free
        if used > self.peak_used:
            self.peak_used = used
        return True

    def free(self, rid: int) -> None:
        """Release all blocks of a finished or preempted request."""
        self._free += self._held.pop(rid)

    def resize(self, total_blocks: int) -> None:
        """Re-size the pool in place (fault injection / repair).

        Existing reservations are untouched; only the capacity moves.
        Shrinking below the blocks currently held leaves ``free_blocks``
        negative — an over-committed pool — and the fault engine evicts
        requests until the deficit clears.  ``peak_used`` keeps its
        high-water meaning across the resize.
        """
        if total_blocks < 1:
            raise ValueError("total_blocks must be positive")
        delta = total_blocks - self._config.total_blocks
        self._config = KVPoolConfig(
            total_blocks=total_blocks, block_tokens=self._block_tokens
        )
        self._free += delta
