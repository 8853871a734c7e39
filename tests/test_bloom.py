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
        assert bloom.num_added == 0


class TestMembership:
    def test_added_keys_always_found(self):
        bloom = BloomFilter(4096, num_hashes=2)
        keys = np.arange(100, dtype=np.int64)
        bloom.add(keys)
        assert bloom.contains(keys).all()
        assert bloom.num_added == 100

    def test_empty_query(self):
        bloom = BloomFilter(64)
        assert len(bloom.contains(np.array([], dtype=np.int64))) == 0

    def test_add_plain_iterable(self):
        bloom = BloomFilter(1024)
        bloom.add([1, 2, 3])
        assert bloom.contains(np.array([2]))[0]

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


class TestSizing:
    def test_repr_mentions_fill(self):
        assert "fill=" in repr(BloomFilter(64))
