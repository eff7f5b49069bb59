"""Chunked workload generation is byte-identical to an eager draw.

The streaming serving core bounds transient memory by sampling the
request stream in ``chunk_requests``-sized batches
(:func:`repro.serving.generate_request_columns`).  These tests pin the
load-bearing property: chunking is *invisible* — arrivals, lengths, and
the final ``SimReport`` are exactly equal for every chunk size, because
numpy Generators produce identical streams whether a distribution is
sampled once with ``size=n`` or in consecutive slices summing to n.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.serving import (
    ServingSimulator,
    SimConfig,
    WorkloadSpec,
    generate_request_columns,
    generate_requests,
    report_asdict,
)

SPECS = {
    "poisson": WorkloadSpec(request_rate=4.0, num_requests=500),
    "bursty": WorkloadSpec(request_rate=4.0, num_requests=500, arrival="bursty"),
    "cv0": WorkloadSpec(request_rate=4.0, num_requests=500, prompt_cv=0.0, output_cv=0.0),
    "mixed-cv": WorkloadSpec(
        request_rate=2.0, num_requests=301, arrival="bursty", prompt_cv=0.0, output_cv=0.8
    ),
}


def _columns(spec: WorkloadSpec, chunk: int, seed: int = 7):
    return generate_request_columns(spec, np.random.default_rng(seed), chunk_requests=chunk)


@pytest.mark.parametrize("name", sorted(SPECS))
@pytest.mark.parametrize("chunk", [1, 7, 64, 499, 500, 501, 10_000])
def test_chunked_columns_match_eager(name: str, chunk: int) -> None:
    spec = SPECS[name]
    eager = _columns(spec, chunk=spec.num_requests + 1)  # single-batch draw
    chunked = _columns(spec, chunk=chunk)
    assert np.array_equal(eager.arrivals, chunked.arrivals)
    assert np.array_equal(eager.prompts, chunked.prompts)
    assert np.array_equal(eager.outputs, chunked.outputs)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_column_invariants(name: str) -> None:
    spec = SPECS[name]
    columns = _columns(spec, chunk=53)
    assert len(columns) == spec.num_requests
    gaps = np.diff(columns.arrivals, prepend=0.0)
    assert (gaps > 0).all(), "arrivals must be strictly increasing"
    assert columns.prompts.min() >= 1 and columns.outputs.min() >= 1
    assert columns.arrivals.dtype == np.float64
    assert columns.prompts.dtype == np.int64


@settings(max_examples=80, deadline=None)
@given(
    spec=st.builds(
        WorkloadSpec,
        request_rate=st.floats(1e-3, 1e6),
        num_requests=st.integers(1, 400),
        prompt_cv=st.sampled_from([0.0, 0.5, 3.0]),
        output_cv=st.sampled_from([0.0, 0.5, 3.0]),
        arrival=st.sampled_from(["poisson", "bursty"]),
        burst_fraction=st.floats(0.001, 0.999),
        burst_factor=st.floats(1.001, 1e6),
    ),
    chunk=st.integers(0, 200).map(lambda k: 2 * k + 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_arrivals_never_decrease_in_rid(spec: WorkloadSpec, chunk: int, seed: int) -> None:
    """Rid order is arrival order for any valid spec and chunking: the
    serving core keys its scheduler order on rid alone."""
    arrivals = _columns(spec, chunk=chunk, seed=seed).arrivals
    assert arrivals[0] >= 0.0
    assert (np.diff(arrivals) >= 0).all()


def test_generate_requests_wraps_columns() -> None:
    spec = SPECS["bursty"]
    columns = _columns(spec, chunk=spec.num_requests + 1, seed=3)
    requests = generate_requests(spec, np.random.default_rng(3))
    assert len(requests) == len(columns)
    for i in (0, 1, len(columns) // 2, len(columns) - 1):
        assert requests[i].rid == i
        assert requests[i].arrival == columns.arrivals[i]
        assert requests[i].prompt_tokens == columns.prompts[i]
        assert requests[i].output_tokens == columns.outputs[i]


def test_chunk_requests_validation() -> None:
    with pytest.raises(ValueError, match="chunk_requests"):
        generate_request_columns(SPECS["poisson"], np.random.default_rng(0), chunk_requests=0)


@pytest.mark.parametrize("chunk", [17, 1000])
def test_sim_report_invariant_to_chunk_size(monkeypatch, chunk: int) -> None:
    """The full SimReport is identical whatever chunk size fed the run."""
    config = SimConfig(
        workload=WorkloadSpec(request_rate=6.0, num_requests=250, arrival="bursty"),
        mode="disaggregated",
        seed=11,
    )
    baseline = report_asdict(ServingSimulator(config).run())
    monkeypatch.setattr(
        "repro.serving.simulator.generate_request_columns",
        functools.partial(generate_request_columns, chunk_requests=chunk),
    )
    assert report_asdict(ServingSimulator(config).run()) == baseline
