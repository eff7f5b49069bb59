"""Request-level workload generation for the serving simulator.

The closed-form models in :mod:`repro.inference` take a mean arrival
rate and mean lengths; the simulator needs individual requests.  Two
arrival processes are supported:

* ``poisson`` — exponential interarrivals at the configured rate.
* ``bursty`` — a hyperexponential mixture: a fraction of interarrival
  gaps is drawn from a much faster exponential, producing the bursty
  traffic (CV > 1) that §2.3.1 argues disaggregation must absorb.

Prompt and output lengths are lognormal with configurable mean and
coefficient of variation (CV 0 pins the length exactly, which the
calibration tests use).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(eq=False, slots=True)
class Request:
    """One request moving through the simulated serving system.

    The first three fields are the workload; the rest is runtime state
    mutated by the simulator.

    Requests have *identity* semantics (``eq=False``): batch membership
    and removal compare object identity instead of every dataclass
    field, which keeps the simulator's per-step bookkeeping O(1) per
    request — field-wise ``__eq__`` was the single hottest function in
    profiles of large runs.  Two requests are equal iff they are the
    same object; ``rid`` is the stable key for reports and traces.
    """

    rid: int
    arrival: float
    prompt_tokens: int
    output_tokens: int
    # -- runtime state --------------------------------------------------
    first_token_time: float = -1.0
    finish_time: float = -1.0
    generated: int = 0
    retries: int = 0  # fault-eviction requeues consumed (bounded by the retry budget)
    queued_since: float = -1.0  # start of the current wait (arrival or requeue)
    decode_since: float = -1.0  # when the request last entered a decode pool
    # -- hot-path state (owned by the pool the request sits in) ---------
    kv_tokens: int = 0  # tokens its held KV blocks cover; written only by PagedKVPool
    decoding: bool = False  # member of a pool's active decode set

    @property
    def ttft(self) -> float:
        """Time to first token (valid once prefill completed)."""
        return self.first_token_time - self.arrival

    @property
    def e2e(self) -> float:
        """End-to-end latency (valid once finished)."""
        return self.finish_time - self.arrival

    @property
    def has_tpot(self) -> bool:
        """Whether TPOT is defined: a request with fewer than two
        generated tokens has no inter-token gaps to average."""
        return self.generated >= 2

    @property
    def tpot(self) -> float:
        """Mean time per output token after the first (valid once done).

        Degenerate single-token requests (``has_tpot`` is False) return
        0.0 by definition; reports exclude them from TPOT distributions
        and treat the TPOT objective as vacuously met.
        """
        if not self.has_tpot:
            return 0.0
        return (self.finish_time - self.first_token_time) / (self.generated - 1)

    @property
    def context_tokens(self) -> int:
        """Current KV footprint in tokens (prompt plus generated)."""
        return self.prompt_tokens + self.generated


@dataclass(frozen=True)
class WorkloadSpec:
    """A synthetic serving workload.

    Attributes:
        request_rate: Mean arrival rate, requests/s.
        num_requests: Requests to generate.
        prompt_mean / prompt_cv: Lognormal prompt-length parameters.
        output_mean / output_cv: Lognormal output-length parameters.
        arrival: ``"poisson"`` or ``"bursty"``.
        burst_fraction: Fraction of gaps drawn from the fast phase
            (bursty only).
        burst_factor: Rate multiplier of the fast phase (bursty only).
    """

    request_rate: float = 2.0
    num_requests: int = 200
    prompt_mean: int = 1024
    prompt_cv: float = 0.5
    output_mean: int = 256
    output_cv: float = 0.5
    arrival: str = "poisson"
    burst_fraction: float = 0.9
    burst_factor: float = 20.0

    def __post_init__(self) -> None:
        if self.request_rate <= 0 or self.num_requests < 1:
            raise ValueError("request_rate and num_requests must be positive")
        if self.prompt_mean < 1 or self.output_mean < 1:
            raise ValueError("mean lengths must be at least 1 token")
        if self.prompt_cv < 0 or self.output_cv < 0:
            raise ValueError("length CVs must be non-negative")
        if self.arrival not in ("poisson", "bursty"):
            raise ValueError("arrival must be 'poisson' or 'bursty'")
        if not 0 < self.burst_fraction < 1 or self.burst_factor <= 1:
            raise ValueError("need 0 < burst_fraction < 1 and burst_factor > 1")


#: Per-draw batch size for :func:`generate_request_columns`.  Bounds the
#: transient numpy buffers during generation; the flat output columns
#: themselves are ~24 bytes/request regardless of chunking.
DEFAULT_CHUNK_REQUESTS = 65_536


@dataclass(frozen=True, slots=True)
class RequestColumns:
    """Flat per-request workload state, indexed by rid.

    Three parallel numpy columns replace the up-front ``list[Request]``
    at the engine boundary: ~24 bytes per request instead of a ~400-byte
    Python object, and the simulator materializes a :class:`Request`
    only when its arrival fires (O(active) live objects, not O(total)).
    """

    arrivals: np.ndarray  # float64, ascending (cumsum of positive gaps)
    prompts: np.ndarray  # int64 prompt lengths, >= 1
    outputs: np.ndarray  # int64 output lengths, >= 1

    def __len__(self) -> int:
        return self.arrivals.shape[0]

    def materialize(self, rid: int) -> Request:
        """Build the mutable runtime object for one request."""
        return Request(
            rid=rid,
            arrival=float(self.arrivals[rid]),
            prompt_tokens=int(self.prompts[rid]),
            output_tokens=int(self.outputs[rid]),
        )


def _fill_chunked(out: np.ndarray, draw, chunk: int) -> None:
    """Fill ``out`` with ``draw(m)`` batches of at most ``chunk`` draws.

    numpy Generators produce identical streams whether a distribution is
    sampled once with ``size=n`` or in consecutive slices summing to n,
    so chunking is invisible to the result — only the transient buffer
    size changes.  Pinned by ``tests/test_workload_chunking.py``.
    """
    n = out.shape[0]
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        out[start:stop] = draw(stop - start)


def _lognormal_lengths(
    rng: np.random.Generator, mean: int, cv: float, n: int, chunk: int
) -> np.ndarray:
    if cv == 0:
        return np.full(n, mean, dtype=np.int64)
    sigma2 = math.log1p(cv * cv)
    mu = math.log(mean) - sigma2 / 2.0
    sigma = math.sqrt(sigma2)
    out = np.empty(n, dtype=np.int64)
    _fill_chunked(
        out,
        lambda m: np.maximum(1, np.rint(rng.lognormal(mean=mu, sigma=sigma, size=m))),
        chunk,
    )
    return out


def _interarrival_gaps(
    rng: np.random.Generator, spec: WorkloadSpec, chunk: int
) -> np.ndarray:
    n = spec.num_requests
    gaps = np.empty(n, dtype=np.float64)
    if spec.arrival == "poisson":
        _fill_chunked(gaps, lambda m: rng.exponential(1.0 / spec.request_rate, size=m), chunk)
        return gaps
    # Hyperexponential: fraction p of gaps at rate k*r_slow, the rest at
    # r_slow, with r_slow chosen so the mixture mean is 1/request_rate.
    # Draw order (all uniforms, then all exponentials) matches the
    # historical eager path so seeds reproduce byte-identical streams.
    p, k = spec.burst_fraction, spec.burst_factor
    rate_slow = spec.request_rate * (p / k + (1.0 - p))
    fast = np.empty(n, dtype=bool)
    _fill_chunked(fast, lambda m: rng.uniform(size=m) < p, chunk)
    _fill_chunked(gaps, lambda m: rng.exponential(1.0 / rate_slow, size=m), chunk)
    gaps[fast] /= k
    return gaps


def generate_request_columns(
    spec: WorkloadSpec,
    rng: np.random.Generator,
    chunk_requests: int = DEFAULT_CHUNK_REQUESTS,
) -> RequestColumns:
    """Sample the request stream into flat columns (sorted by arrival).

    Draws happen in batches of at most ``chunk_requests`` so transient
    memory is bounded; the resulting columns are byte-identical to a
    single eager draw for the same seed.
    """
    if chunk_requests < 1:
        raise ValueError("chunk_requests must be at least 1")
    gaps = _interarrival_gaps(rng, spec, chunk_requests)
    arrivals = np.cumsum(gaps, out=gaps)
    prompts = _lognormal_lengths(
        rng, spec.prompt_mean, spec.prompt_cv, spec.num_requests, chunk_requests
    )
    outputs = _lognormal_lengths(
        rng, spec.output_mean, spec.output_cv, spec.num_requests, chunk_requests
    )
    return RequestColumns(arrivals=arrivals, prompts=prompts, outputs=outputs)


def generate_requests(spec: WorkloadSpec, rng: np.random.Generator) -> list[Request]:
    """Sample the request stream (sorted by arrival time).

    Eager convenience wrapper over :func:`generate_request_columns`;
    large runs should keep the columns and materialize lazily.
    """
    columns = generate_request_columns(spec, rng)
    return [columns.materialize(i) for i in range(len(columns))]
