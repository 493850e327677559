"""The sort helpers return exactly what the numpy calls they replace do.

``stable_argsort`` must equal ``np.argsort(kind="stable")`` and
``sorted_unique`` must equal ``np.unique``: values, dtype and order.  The
fallback cases are built so that the radix path would get them wrong
(keys that wrap or truncate in ``uint16``), so equality also shows they
took numpy's sort.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.sorting import dedupe_sorted, sorted_unique, stable_argsort

_SETTINGS = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

#: Spans of key ranges around every radix boundary.
_HIGHS = [1, 255, 2**16 - 1, 2**16, 2**16 + 1, 2**32 - 1, 2**32, 2**40]


def assert_same_argsort(keys):
    expected = np.argsort(keys, kind="stable")
    got = stable_argsort(keys)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


def assert_same_unique(values):
    expected = np.unique(values)
    got = sorted_unique(values)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected, equal_nan=got.dtype.kind == "f")


@st.composite
def integer_keys(draw):
    """Integer keys of every width, sizes on both sides of the radix
    cut-off, few distinct values so stability is tested."""
    size = draw(st.sampled_from([0, 1, 5, 1023, 1024, 3000]))
    high = draw(st.sampled_from(_HIGHS))
    low = draw(st.sampled_from([0, 0, high - 3, -1, -2**20]))
    distinct = draw(st.sampled_from([1, 3, 50, 10_000]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    pool = rng.integers(low, high, distinct, endpoint=True)
    keys = pool[rng.integers(0, distinct, size)]
    dtype = draw(st.sampled_from([np.int64, np.int32, np.uint32,
                                  np.uint64, np.uint16]))
    info = np.iinfo(dtype)
    if keys.size and (keys.min() < info.min or keys.max() > info.max):
        return keys
    return keys.astype(dtype)


@_SETTINGS
@given(keys=integer_keys())
def test_stable_argsort_matches_numpy(keys):
    assert_same_argsort(keys)


@_SETTINGS
@given(values=integer_keys())
def test_sorted_unique_matches_numpy(values):
    assert_same_unique(values)


def test_empty_input():
    for dtype in (np.int64, np.uint16, np.float64):
        assert_same_argsort(np.array([], dtype=dtype))
        assert_same_unique(np.array([], dtype=dtype))


def test_all_equal_keys():
    keys = np.full(5000, 70_000, dtype=np.int64)
    assert_same_argsort(keys)
    assert_same_unique(keys)


@pytest.mark.parametrize("top", [2**16 - 1, 2**16, 2**32 - 1])
def test_keys_at_the_radix_boundaries(top):
    rng = np.random.default_rng(top % 1009)
    keys = rng.integers(top - 2, top, 4096, endpoint=True)
    keys[::5] = 0
    assert_same_argsort(keys)
    assert_same_unique(keys)


@pytest.mark.parametrize("keys", [
    # 2**32 + 1 would sort as 1 with the top bits dropped.
    np.tile(np.array([2**32 + 1, 1, 2**33], dtype=np.int64), 700),
    # -1 would sort as 65535 in uint16.
    np.tile(np.array([-1, 5, 0], dtype=np.int64), 700),
    # 0.5 and 0.25 would both truncate to 0.
    np.tile(np.array([0.5, 0.25, 3.0]), 700),
    # Booleans and 2-D input keep numpy's own semantics.
    np.tile(np.array([True, False, True]), 700),
    np.tile(np.array([[3, 1], [2, 2]], dtype=np.int64), (600, 1)),
], ids=["above-2**32", "negative", "float", "bool", "2-d"])
def test_out_of_domain_keys_take_numpy(keys):
    assert_same_argsort(keys)
    assert_same_unique(keys)


def test_sorted_unique_folds_nan_and_signed_zero_like_numpy():
    values = np.array([np.nan, 0.0, -0.0, 1.0, np.nan, -1.0])
    assert_same_unique(values)


def test_dedupe_sorted():
    assert dedupe_sorted(np.array([1, 1, 2, 5, 5, 5])).tolist() == [1, 2, 5]
    assert dedupe_sorted(np.array([], dtype=np.int64)).size == 0
