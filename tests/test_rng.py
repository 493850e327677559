"""Tests for repro.rng: deterministic randomness and the seeded hash."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.rng import SeededHash, make_rng, splitmix64


class TestMakeRng:
    def test_same_seed_same_stream(self):
        a = make_rng(42).integers(0, 1000, size=10)
        b = make_rng(42).integers(0, 1000, size=10)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = make_rng(1).integers(0, 10**9, size=10)
        b = make_rng(2).integers(0, 10**9, size=10)
        assert not np.array_equal(a, b)

    def test_passthrough_generator(self):
        rng = make_rng(7)
        assert make_rng(rng) is rng

    def test_none_gives_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)


class TestSplitmix64:
    def test_deterministic(self):
        assert splitmix64(12345, seed=1) == splitmix64(12345, seed=1)

    def test_seed_changes_hash(self):
        assert splitmix64(12345, seed=1) != splitmix64(12345, seed=2)

    def test_vectorised_matches_scalar(self):
        values = np.arange(100, dtype=np.uint64)
        vector = splitmix64(values, seed=9)
        for i in range(100):
            assert vector[i] == splitmix64(int(values[i]), seed=9)

    @given(st.integers(min_value=0, max_value=2**62))
    def test_returns_uint64(self, value):
        result = splitmix64(value)
        assert 0 <= int(result) < 2**64


class TestSeededHash:
    def test_range(self):
        hasher = SeededHash(7, seed=3)
        values = hasher(np.arange(1000))
        assert values.min() >= 0
        assert values.max() < 7

    def test_scalar_returns_int(self):
        hasher = SeededHash(5)
        assert isinstance(hasher(42), int)

    def test_same_function_for_same_seed(self):
        assert SeededHash(16, 5)(123) == SeededHash(16, 5)(123)

    def test_roughly_uniform(self):
        hasher = SeededHash(4, seed=0)
        counts = np.bincount(hasher(np.arange(40_000)), minlength=4)
        assert counts.min() > 9_000  # each bucket near 10k

    def test_invalid_buckets_rejected(self):
        with pytest.raises(ValueError):
            SeededHash(0)
        with pytest.raises(ValueError):
            SeededHash(-3)

    @given(st.integers(min_value=2, max_value=64),
           st.integers(min_value=0, max_value=2**31))
    def test_bucket_bound_property(self, buckets, value):
        assert 0 <= SeededHash(buckets, 1)(value) < buckets
