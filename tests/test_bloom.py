"""Unit tests for repro.core.bloom."""

import numpy as np
import pytest

from repro.core.bloom import BloomFilter
from repro.errors import BloomFilterError


class TestConstruction:
    def test_invalid_sizes(self):
        with pytest.raises(BloomFilterError):
            BloomFilter(0)
        with pytest.raises(BloomFilterError):
            BloomFilter(8, num_hashes=0)

    def test_starts_empty(self):
        bloom = BloomFilter(256)
        assert bloom.is_empty()
        assert bloom.bits_set() == 0
        assert bloom.num_added == 0


class TestMembership:
    def test_added_keys_always_found(self):
        bloom = BloomFilter(4096, num_hashes=2)
        keys = np.arange(100, dtype=np.int64)
        bloom.add(keys)
        assert bloom.contains(keys).all()
        assert bloom.num_added == 100

    def test_contains_dunder(self):
        bloom = BloomFilter(4096)
        bloom.add(np.array([42]))
        assert 42 in bloom

    def test_empty_query(self):
        bloom = BloomFilter(64)
        assert len(bloom.contains(np.array([], dtype=np.int64))) == 0

    def test_add_plain_iterable(self):
        bloom = BloomFilter(1024)
        bloom.add([1, 2, 3])
        assert 2 in bloom

    def test_negative_like_large_keys(self):
        bloom = BloomFilter(4096)
        keys = np.array([2**40, 2**62, 17], dtype=np.int64)
        bloom.add(keys)
        assert bloom.contains(keys).all()


class TestFalsePositiveRate:
    def test_empirical_fpr_close_to_theory(self):
        rng = np.random.default_rng(7)
        universe = rng.choice(10**9, size=30_000, replace=False)
        inserted, probed = universe[:10_000], universe[10_000:]
        bloom = BloomFilter(80_000, num_hashes=2)
        bloom.add(inserted)
        empirical = float(bloom.contains(probed).mean())
        theory = BloomFilter.expected_fpr(80_000, 2, 10_000)
        assert abs(empirical - theory) < 0.02

    def test_paper_configuration_is_about_5_percent(self):
        fpr = BloomFilter.expected_fpr(
            num_bits=128 * 1024 * 1024,
            num_hashes=2,
            num_keys=16 * 1024 * 1024,
        )
        assert 0.04 < fpr < 0.06


class TestMerge:
    def test_union_sees_both_sides(self):
        a = BloomFilter(2048, seed=3)
        b = BloomFilter(2048, seed=3)
        a.add(np.array([1, 2, 3]))
        b.add(np.array([100, 200]))
        a.union_in_place(b)
        assert a.contains(np.array([1, 2, 3, 100, 200])).all()

    def test_combine_many(self):
        filters = []
        for start in range(0, 50, 10):
            bloom = BloomFilter(4096, seed=9)
            bloom.add(np.arange(start, start + 10))
            filters.append(bloom)
        merged = BloomFilter.combine(filters)
        assert merged.contains(np.arange(50)).all()
        assert merged.num_added == 50

    def test_combine_empty_rejected(self):
        with pytest.raises(BloomFilterError):
            BloomFilter.combine([])

    def test_incompatible_merge_rejected(self):
        a = BloomFilter(1024)
        for other in (BloomFilter(2048), BloomFilter(1024, num_hashes=3),
                      BloomFilter(1024, seed=99)):
            with pytest.raises(BloomFilterError, match="incompatible"):
                a.union_in_place(other)

    def test_copy_is_independent(self):
        a = BloomFilter(1024)
        a.add(np.array([1]))
        b = a.copy()
        b.add(np.array([999]))
        assert 999 in b
        # With one key added, key 999 is almost surely absent from a.
        assert a.bits_set() <= 2


class TestSizing:
    def test_size_bytes(self):
        # 1024 bits -> 16 words of 8 bytes.
        assert BloomFilter(1024).size_bytes() == 128

    def test_repr_mentions_fill(self):
        assert "fill=" in repr(BloomFilter(64))
