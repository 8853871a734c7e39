"""Property-based tests (hypothesis) for the Bloom filter invariants,
and the distinct-key path against the hash-every-key reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bloom import BloomFilter
from tests.kernel_reference import (
    combine_filters,
    naive_popcount,
    naive_scatter_or,
    naive_test_bits,
)

keys_strategy = st.lists(
    st.integers(min_value=0, max_value=2**62), max_size=200
)


@given(keys=keys_strategy)
@settings(max_examples=80, deadline=None)
def test_no_false_negatives(keys):
    """Every inserted key must test positive — the guarantee the join
    algorithms' correctness rests on."""
    bloom = BloomFilter(512, num_hashes=2)
    bloom.add(np.array(keys, dtype=np.int64))
    if keys:
        assert bloom.contains(np.array(keys, dtype=np.int64)).all()


@given(left=keys_strategy, right=keys_strategy)
@settings(max_examples=60, deadline=None)
def test_union_equals_filter_of_union(left, right):
    """OR-merging local filters is exactly a filter over the union —
    the property that lets one query-wide filter stand in for the
    paper's combine_filter UDF."""
    a = BloomFilter(1024, num_hashes=2, seed=5)
    b = BloomFilter(1024, num_hashes=2, seed=5)
    a.add(np.array(left, dtype=np.int64))
    b.add(np.array(right, dtype=np.int64))
    merged = combine_filters([a, b])

    combined = BloomFilter(1024, num_hashes=2, seed=5)
    combined.add(np.array(left + right, dtype=np.int64))

    probes = np.arange(0, 500, dtype=np.int64)
    assert (merged.contains(probes) == combined.contains(probes)).all()


@given(keys=keys_strategy, extra=keys_strategy)
@settings(max_examples=60, deadline=None)
def test_adding_more_keys_is_monotone(keys, extra):
    """Adding keys can only turn negatives into positives, never the
    reverse (bit arrays are monotone under OR)."""
    before = BloomFilter(512, num_hashes=3)
    before.add(np.array(keys, dtype=np.int64))
    after = BloomFilter(512, num_hashes=3)
    after.add(np.array(keys, dtype=np.int64))
    after.add(np.array(extra, dtype=np.int64))

    probes = np.arange(0, 300, dtype=np.int64)
    was_positive = before.contains(probes)
    still_positive = after.contains(probes)
    assert (still_positive | ~was_positive).all()


@given(keys=keys_strategy, parts=st.integers(1, 8))
@settings(max_examples=50, deadline=None)
def test_combine_is_order_and_partition_invariant(keys, parts):
    """Splitting insertions across workers and merging gives a filter
    identical to single-site construction."""
    whole = BloomFilter(1024, num_hashes=2, seed=11)
    whole.add(np.array(keys, dtype=np.int64))

    chunks = [keys[i::parts] for i in range(parts)]
    locals_ = []
    for chunk in chunks:
        bloom = BloomFilter(1024, num_hashes=2, seed=11)
        bloom.add(np.array(chunk, dtype=np.int64))
        locals_.append(bloom)
    merged = combine_filters(locals_)

    probes = np.arange(0, 400, dtype=np.int64)
    assert (merged.contains(probes) == whole.contains(probes)).all()
    assert np.array_equal(merged._words, whole._words)


@given(
    num_bits=st.sampled_from([256, 1024, 8192]),
    num_hashes=st.integers(1, 4),
    keys=keys_strategy,
)
@settings(max_examples=40, deadline=None)
def test_fill_ratio_bounds(num_bits, num_hashes, keys):
    """Fill ratio stays in [0, 1] and bits set <= k * insertions."""
    bloom = BloomFilter(num_bits, num_hashes=num_hashes)
    bloom.add(np.array(keys, dtype=np.int64))
    bits_set = naive_popcount(bloom._words)
    assert 0.0 <= bits_set / num_bits <= 1.0
    assert bits_set <= num_hashes * max(1, len(keys)) \
        or bits_set <= num_bits


# ----------------------------------------------------------------------
# Distinct-key path vs. the hash-every-key reference
# ----------------------------------------------------------------------
def reference_add(bloom: BloomFilter, keys) -> None:
    """``BloomFilter.add`` as it was before the distinct-key path:
    every key hashed, every position scattered."""
    keys = np.asarray(keys)
    if keys.size == 0:
        return
    naive_scatter_or(bloom._words, bloom._positions(keys))
    bloom._num_added += len(keys)


def reference_contains(bloom: BloomFilter, keys) -> np.ndarray:
    """``BloomFilter.contains`` hashing every key."""
    keys = np.asarray(keys)
    if keys.size == 0:
        return np.zeros(0, dtype=bool)
    return naive_test_bits(bloom._words, bloom._positions(keys))


class CountingFilter(BloomFilter):
    """Counts the keys ``_positions`` hashes — which branch ran."""

    hashed = 0

    def _positions(self, keys):
        self.hashed += np.size(keys)
        return super()._positions(keys)


def _extremes(dtype, width=6):
    info = np.iinfo(dtype)
    return np.concatenate([
        np.arange(info.min, info.min + width, dtype=dtype),
        np.arange(info.max - width + 1, info.max, dtype=dtype),
        np.array([info.max], dtype=dtype),
    ])


#: name -> (keys, takes the distinct-key path).
_CASES = {
    "negative": (np.repeat(np.arange(-40, -10), 3), True),
    "crosses-zero": (np.tile(np.arange(-9, 10), 2), True),
    "int8-full-range": (np.arange(-128, 128, dtype=np.int8), True),
    "int8-at-min": (np.repeat(np.arange(-128, -120, dtype=np.int8), 2), True),
    "int16-at-max": (np.repeat(_extremes(np.int16)[6:], 2), True),
    "int32-at-min": (np.repeat(_extremes(np.int32)[:6], 2), True),
    "int64-at-min": (np.repeat(_extremes(np.int64)[:6], 2), True),
    "int64-at-max": (np.repeat(_extremes(np.int64)[6:], 2), True),
    "int64-both-ends": (_extremes(np.int64), False),
    "int16-both-ends": (_extremes(np.int16), False),
    "uint64-above-2**63": (
        np.repeat(np.arange(2**63 + 5, 2**63 + 25, dtype=np.uint64), 2),
        True),
    "uint64-at-max": (np.repeat(_extremes(np.uint64)[6:], 2), True),
    "uint8": (np.arange(0, 256, 2, dtype=np.uint8).repeat(2), True),
    "int8-offsets-past-127": (np.arange(-100, 101, dtype=np.int8), True),
    "int16-offsets-past-32767": (
        np.arange(-20000, 20000, 2, dtype=np.int16), True),
    "span-exactly-2n": (np.array([3, 3, 4, 10]), True),
    "span-2n-plus-1": (np.array([3, 3, 4, 11]), False),
    "one-key": (np.array([12345]), True),
    "all-equal": (np.full(50, -7), True),
    "wide-span": (np.array([0, 10**12, 5]), False),
    "float": (np.array([1.0, 2.5, 2.5, 300.0]), False),
    "bool": (np.array([True, False, True, True]), False),
}


@pytest.mark.parametrize("name", sorted(_CASES))
@pytest.mark.parametrize("prefilled", [False, True])
def test_distinct_key_path_equals_hash_every_key(name, prefilled):
    keys, dense = _CASES[name]
    probes = keys[::-1]
    actual = CountingFilter(4096, num_hashes=3, seed=5)
    expected = BloomFilter(4096, num_hashes=3, seed=5)
    if prefilled:
        # A filter that already holds bits.
        for bloom in (actual, expected):
            reference_add(bloom, np.arange(1000, 1100))
    actual.hashed = 0
    actual.add(keys)
    assert actual.hashed == (np.unique(keys).size if dense else keys.size)
    reference_add(expected, keys)
    assert np.array_equal(actual._words, expected._words)
    assert actual.num_added == expected.num_added

    actual.hashed = 0
    mask = actual.contains(probes)
    assert actual.hashed == (
        np.unique(probes).size if dense else probes.size)
    assert mask.dtype == bool
    assert np.array_equal(mask, reference_contains(expected, probes))
    assert mask.all()


def test_empty_input_hashes_nothing():
    bloom = CountingFilter(256)
    for dtype in (np.int64, np.uint64, np.int8, np.float64):
        bloom.add(np.empty(0, dtype=dtype))
        assert bloom.contains(np.empty(0, dtype=dtype)).shape == (0,)
    assert bloom.hashed == 0
    assert bloom.num_added == 0 and bloom.is_empty()


def test_absent_keys_on_the_distinct_key_path():
    """Masks of a mostly-absent probe, key for key, including probes
    outside the inserted span."""
    actual = BloomFilter(512, num_hashes=2, seed=7)
    expected = BloomFilter(512, num_hashes=2, seed=7)
    for bloom in (actual, expected):
        reference_add(bloom, np.arange(0, 400, 7))
    probes = np.repeat(np.arange(-300, 700), 2)
    mask = actual.contains(probes)
    assert np.array_equal(mask, reference_contains(expected, probes))
    assert 0 < mask.sum() < probes.size


@given(
    keys=st.lists(st.integers(-(2**15), 2**15 - 1), min_size=1,
                  max_size=300),
    dtype=st.sampled_from([np.int16, np.int32, np.int64]),
    probes=st.lists(st.integers(-(2**15), 2**15 - 1), max_size=300),
)
@settings(max_examples=60, deadline=None)
def test_distinct_key_path_property(keys, dtype, probes):
    keys = np.asarray(keys, dtype=dtype)
    probes = np.asarray(probes + keys.tolist(), dtype=dtype)
    actual = BloomFilter(1024, num_hashes=2, seed=3)
    expected = BloomFilter(1024, num_hashes=2, seed=3)
    actual.add(keys)
    reference_add(expected, keys)
    assert np.array_equal(actual._words, expected._words)
    assert np.array_equal(actual.contains(probes),
                          reference_contains(expected, probes))
