"""Paged KV-cache allocator for the serving simulator.

§2.1.2 and the DeepSeek memory analyses make the point the closed-form
serving models cannot: KV-cache *capacity*, not per-token FLOPs, caps
decode concurrency.  This allocator models a vLLM-style paged pool:
capacity is block-granular (a block holds ``block_tokens`` tokens of
cache for one request), requests allocate on admission, extend as they
generate, and free on completion.  The pool counts free blocks; each
request carries the tokens its own blocks cover (``Request.kv_tokens``),
written only here.  When the pool is exhausted the scheduler preempts a
victim — its blocks are freed and its context is recomputed later,
exactly the recompute-on-preemption policy production engines use.

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
from .workload import Request


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
    """Block-granular KV allocator; the only writer of a request's holding.

    A request's holding lives on the request itself: ``allocate``,
    ``extend`` and ``free`` take the :class:`Request` and keep
    ``Request.kv_tokens``, the context tokens its blocks cover (held
    blocks = ``kv_tokens // block_tokens``; 0 holds none).  The pool
    keeps only its free-block count, so every operation is O(1) integer
    arithmetic, and the simulator reads the same field to skip
    :meth:`extend` while the next token still fits the last block.
    """

    __slots__ = ("_config", "_free", "_block_tokens")

    def __init__(self, config: KVPoolConfig) -> None:
        self._config = config
        self._free = config.total_blocks
        self._block_tokens = config.block_tokens

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

    def blocks_for(self, tokens: int) -> int:
        """Blocks needed to hold ``tokens`` of context."""
        blocks = -(-tokens // self._block_tokens)  # exact integer ceil
        return blocks if blocks > 1 else 1

    def never_fits(self, tokens: int, faults_open: int) -> bool:
        """Whether a request needing ``tokens`` of context must be
        dropped: it needs more blocks than the whole pool and no fault
        window is open (a shrunk pool may fit it again after repair)."""
        return not faults_open and self.blocks_for(tokens) > self._config.total_blocks

    def allocate(self, request: Request, tokens: int) -> bool:
        """Reserve blocks for ``tokens`` of a request's context; False
        (holding unchanged) when the pool is full."""
        if request.kv_tokens:
            raise ValueError(f"request {request.rid} already holds blocks")
        need = self.blocks_for(tokens)
        if need > self._free:
            return False
        self._free -= need
        request.kv_tokens = need * self._block_tokens
        return True

    def extend(self, request: Request, tokens: int) -> bool:
        """Grow a request's reservation to cover ``tokens`` of context.

        Returns False (and leaves the reservation unchanged) when the
        pool cannot supply the extra blocks — the preemption trigger.
        """
        held = request.kv_tokens
        if not held:
            raise KeyError(f"request {request.rid} holds no blocks")
        if tokens <= held:
            return True
        need = self.blocks_for(tokens)
        extra = need - held // self._block_tokens
        if extra > self._free:
            return False
        self._free -= extra
        request.kv_tokens = need * self._block_tokens
        return True

    def free(self, request: Request) -> None:
        """Release all blocks of a finished, preempted or migrating
        request."""
        held = request.kv_tokens
        if not held:
            raise KeyError(f"request {request.rid} holds no blocks")
        self._free += held // self._block_tokens
        request.kv_tokens = 0

    def resize(self, total_blocks: int) -> None:
        """Re-size the pool in place (fault injection / repair).

        Existing reservations are untouched; only the capacity moves.
        Shrinking below the blocks currently held leaves ``free_blocks``
        negative — an over-committed pool — and the fault engine evicts
        requests until the deficit clears.
        """
        if total_blocks < 1:
            raise ValueError("total_blocks must be positive")
        delta = total_blocks - self._config.total_blocks
        self._config = KVPoolConfig(
            total_blocks=total_blocks, block_tokens=self._block_tokens
        )
        self._free += delta
