"""Shared seeded-RNG factory (repro.core.rng)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.rng import derive_seed, seeded_generator, uniform_stream


def test_root_stream_matches_default_rng():
    a = seeded_generator(42).uniform(size=8)
    b = np.random.default_rng(42).uniform(size=8)
    assert np.array_equal(a, b)


def test_same_seed_and_stream_reproduce():
    a = seeded_generator(7, "arrivals").uniform(size=8)
    b = seeded_generator(7, "arrivals").uniform(size=8)
    assert np.array_equal(a, b)


def test_streams_are_decorrelated():
    a = seeded_generator(7, "arrivals").uniform(size=8)
    b = seeded_generator(7, "mtp").uniform(size=8)
    c = seeded_generator(8, "arrivals").uniform(size=8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_derive_seed_is_a_pure_function():
    assert derive_seed(7, "sweep/serving/{}") == derive_seed(7, "sweep/serving/{}")
    assert derive_seed(7, "a") != derive_seed(7, "b")
    assert derive_seed(7, "a") != derive_seed(8, "a")


def test_derive_seed_is_a_valid_64_bit_seed():
    for seed in (0, 1, 2**31):
        child = derive_seed(seed, "stream")
        assert 0 <= child < 2**64
        # A derived seed must itself seed a generator deterministically.
        a = seeded_generator(child).uniform(size=4)
        b = seeded_generator(child).uniform(size=4)
        assert np.array_equal(a, b)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    block=st.integers(1, 300),
    data=st.data(),
)
def test_uniform_stream_equals_scalar_draws(seed, block, data):
    # Enough draws to cross several block boundaries, ending anywhere
    # inside a block.
    count = data.draw(st.integers(0, 4 * block + 5), label="count")
    scalar = seeded_generator(seed, "mtp")
    expected = [scalar.uniform() for _ in range(count)]
    draw = uniform_stream(seeded_generator(seed, "mtp"), block)
    assert [draw() for _ in range(count)] == expected
