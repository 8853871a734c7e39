"""Differential battery for the vectorised kernel layer.

Every kernel in :mod:`repro.kernels` must be *bit-identical* to its
naive reference formulation in ``tests/kernel_reference.py``.  These
tests pin that equivalence on seeded grids of adversarial inputs —
empty arrays, all-duplicate keys, single keys, out-of-range
destinations, both Bloom insert code paths — so a kernel can never buy
speed with a semantics change.
"""

import numpy as np
import pytest

from repro.kernels import (
    JoinBuildIndex,
    partition_indices,
    partition_table,
    popcount,
    probe_join,
    scatter_or,
)
from repro.kernels import test_bits as kernel_test_bits
from repro.kernels import bloomops
from repro.core.bloom import BloomFilter, probe_and_insert
from repro.errors import TableError
from repro.relational.schema import Column, DataType, Schema
from repro.relational.table import Table
from tests.kernel_reference import (
    naive_join_indices,
    naive_partition_indices,
    naive_partition_table,
    naive_popcount,
    naive_scatter_or,
    naive_sorted_join,
    naive_test_bits,
)


def _assert_tables_equal(actual, expected):
    assert actual.schema.names == expected.schema.names
    assert actual.num_rows == expected.num_rows
    for name in expected.schema.names:
        np.testing.assert_array_equal(actual.column(name),
                                      expected.column(name))


def _random_table(rng, rows):
    schema = Schema([
        Column("k", DataType.INT64),
        Column("v", DataType.INT32),
        Column("w", DataType.FLOAT64),
        Column("s", DataType.DICT_STRING, 16),
    ])
    return Table(schema, {
        "k": rng.integers(0, max(1, rows // 3 + 1), rows).astype(np.int64),
        "v": rng.integers(-50, 50, rows).astype(np.int32),
        "w": rng.random(rows),
        "s": rng.integers(0, 4, rows).astype(np.int32),
    }, {"s": np.array(["a", "b", "c", "d"], dtype=object)})


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------
class TestPartition:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("rows,parts", [
        (0, 4), (1, 1), (1, 7), (97, 3), (1000, 30), (512, 300),
    ])
    def test_indices_match_reference(self, seed, rows, parts):
        rng = np.random.default_rng(seed)
        assignments = rng.integers(0, parts, rows).astype(np.int64)
        expected = naive_partition_indices(assignments, parts)
        actual = partition_indices(assignments, parts)
        assert len(actual) == len(expected) == parts
        for got, want in zip(actual, expected):
            np.testing.assert_array_equal(got, want)

    def test_out_of_range_assignments_dropped(self):
        assignments = np.array([-3, 0, 5, 1, 99, 1, -1, 4], dtype=np.int64)
        expected = naive_partition_indices(assignments, 5)
        actual = partition_indices(assignments, 5)
        for got, want in zip(actual, expected):
            np.testing.assert_array_equal(got, want)

    def test_all_rows_one_destination(self):
        assignments = np.full(400, 2, dtype=np.int64)
        actual = partition_indices(assignments, 4)
        np.testing.assert_array_equal(actual[2], np.arange(400))
        assert all(actual[d].size == 0 for d in (0, 1, 3))

    @pytest.mark.parametrize("seed", [3, 4])
    @pytest.mark.parametrize("rows,parts", [
        (0, 3), (1, 1), (230, 7), (999, 30),
    ])
    def test_tables_match_reference(self, seed, rows, parts):
        rng = np.random.default_rng(seed)
        table = _random_table(rng, rows)
        assignments = rng.integers(0, parts, rows).astype(np.int64)
        expected = naive_partition_table(table, assignments, parts)
        actual = partition_table(table, assignments, parts)
        for got, want in zip(actual, expected):
            _assert_tables_equal(got, want)

    def test_tables_many_partitions_general_path(self):
        # > uint16 range forces the comparison-sort path.
        rng = np.random.default_rng(5)
        parts = (1 << 16) + 10
        assignments = rng.integers(0, parts, 500).astype(np.int64)
        expected = naive_partition_indices(assignments, parts)
        actual = partition_indices(assignments, parts)
        occupied = np.flatnonzero(np.bincount(assignments, minlength=parts))
        for d in occupied[:50]:
            np.testing.assert_array_equal(actual[d], expected[d])

    def test_length_mismatch_rejected(self):
        table = _random_table(np.random.default_rng(0), 10)
        with pytest.raises(ValueError):
            partition_table(table, np.zeros(9, dtype=np.int64), 4)


# ----------------------------------------------------------------------
# Bloom word ops
# ----------------------------------------------------------------------
class TestBloomOps:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("num_words,num_positions", [
        (1, 0), (1, 1), (4, 1000), (64, 5000), (1024, 50_000),
    ])
    def test_scatter_or_matches_reference(self, seed, num_words,
                                          num_positions):
        rng = np.random.default_rng(seed)
        positions = rng.integers(
            0, num_words * 64, num_positions).astype(np.uint64)
        expected = np.zeros(num_words, dtype=np.uint64)
        naive_scatter_or(expected, positions)
        actual = np.zeros(num_words, dtype=np.uint64)
        scatter_or(actual, positions)
        np.testing.assert_array_equal(actual, expected)

    def test_scatter_or_all_duplicates(self):
        positions = np.full(10_000, 129, dtype=np.uint64)
        words = np.zeros(4, dtype=np.uint64)
        scatter_or(words, positions)
        expected = np.zeros(4, dtype=np.uint64)
        expected[2] = np.uint64(1) << np.uint64(1)
        np.testing.assert_array_equal(words, expected)

    def test_scatter_or_fallback_path(self, monkeypatch):
        # Shrink the presence-array cap so the sort+reduceat fallback
        # runs, and check it is bit-identical too.
        monkeypatch.setattr(bloomops, "_PACKBITS_MAX_WORDS", 0)
        rng = np.random.default_rng(7)
        positions = rng.integers(0, 256 * 64, 20_000).astype(np.uint64)
        expected = np.zeros(256, dtype=np.uint64)
        naive_scatter_or(expected, positions)
        actual = np.zeros(256, dtype=np.uint64)
        scatter_or(actual, positions)
        np.testing.assert_array_equal(actual, expected)

    def test_scatter_or_preserves_existing_bits(self):
        words = np.array([np.uint64(0b1010), np.uint64(0)], dtype=np.uint64)
        scatter_or(words, np.array([0, 64], dtype=np.uint64))
        assert words[0] == np.uint64(0b1011)
        assert words[1] == np.uint64(1)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("num_hashes", [1, 2, 5])
    def test_test_bits_matches_reference(self, seed, num_hashes):
        rng = np.random.default_rng(seed)
        words = rng.integers(0, np.iinfo(np.uint64).max, 64,
                             dtype=np.uint64)
        positions = rng.integers(
            0, 64 * 64, (num_hashes, 3000)).astype(np.uint64)
        np.testing.assert_array_equal(
            kernel_test_bits(words, positions),
            naive_test_bits(words, positions),
        )

    def test_test_bits_empty(self):
        words = np.zeros(2, dtype=np.uint64)
        positions = np.empty((2, 0), dtype=np.uint64)
        assert kernel_test_bits(words, positions).shape == (0,)

    def test_test_bits_none_survive_first_hash(self):
        # Empty filter rejects every key on hash 0; the short-circuit
        # must not probe further rows, and must still agree.
        words = np.zeros(8, dtype=np.uint64)
        positions = np.arange(10, dtype=np.uint64).reshape(2, 5)
        np.testing.assert_array_equal(
            kernel_test_bits(words, positions),
            naive_test_bits(words, positions),
        )

    @pytest.mark.parametrize("num_words", [0, 1, 7, 1000])
    def test_popcount_matches_reference(self, num_words):
        rng = np.random.default_rng(num_words)
        words = rng.integers(0, np.iinfo(np.uint64).max, num_words,
                             dtype=np.uint64)
        assert popcount(words) == naive_popcount(words)

    def test_popcount_lookup_table_path(self, monkeypatch):
        monkeypatch.setattr(bloomops, "_HAVE_BITWISE_COUNT", False)
        rng = np.random.default_rng(11)
        words = rng.integers(0, np.iinfo(np.uint64).max, 333,
                             dtype=np.uint64)
        assert popcount(words) == naive_popcount(words)

    def test_bloom_filter_round_trip(self):
        bloom = BloomFilter(1 << 12, num_hashes=2, seed=7)
        keys = np.arange(500, dtype=np.int64) % 100  # heavy duplicates
        bloom.add(keys)
        assert bloom.contains(keys).all()
        assert bloom.bits_set() == naive_popcount(bloom._words)

    def test_probe_and_insert_equals_contains_then_add(self):
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 200, 1000).astype(np.int64)
        probe = BloomFilter(1 << 10, num_hashes=2, seed=7)
        probe.add(rng.integers(0, 100, 300).astype(np.int64))

        fused_insert = BloomFilter(1 << 11, num_hashes=2, seed=9)
        mask = probe_and_insert(keys, probe, fused_insert)

        manual_insert = BloomFilter(1 << 11, num_hashes=2, seed=9)
        expected_mask = probe.contains(keys)
        manual_insert.add(keys[expected_mask])

        np.testing.assert_array_equal(mask, expected_mask)
        np.testing.assert_array_equal(
            fused_insert._words, manual_insert._words)


# ----------------------------------------------------------------------
# Join build index
# ----------------------------------------------------------------------
class TestJoinBuildIndex:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("build_rows,probe_rows", [
        (0, 10), (10, 0), (1, 1), (50, 200), (300, 300),
    ])
    def test_probe_matches_references(self, seed, build_rows, probe_rows):
        rng = np.random.default_rng(seed)
        build = rng.integers(0, 40, build_rows).astype(np.int64)
        probe = rng.integers(0, 40, probe_rows).astype(np.int64)
        b1, p1 = JoinBuildIndex(build).probe(probe)
        b2, p2 = naive_sorted_join(build, probe)
        b3, p3 = naive_join_indices(build, probe)
        b4, p4 = probe_join(build, probe)
        for build_idx, probe_idx in ((b2, p2), (b3, p3), (b4, p4)):
            np.testing.assert_array_equal(b1, build_idx)
            np.testing.assert_array_equal(p1, probe_idx)

    def test_all_duplicate_keys_multiply_out(self):
        build = np.zeros(7, dtype=np.int64)
        probe = np.zeros(3, dtype=np.int64)
        b, p = JoinBuildIndex(build).probe(probe)
        assert len(b) == 21  # 7 build rows x 3 probe rows
        b_naive, p_naive = naive_join_indices(build, probe)
        np.testing.assert_array_equal(b, b_naive)
        np.testing.assert_array_equal(p, p_naive)

    def test_matches_identity_and_value(self):
        keys = np.array([3, 1, 2], dtype=np.int64)
        index = JoinBuildIndex(keys)
        assert index.matches(keys)
        assert index.matches(keys.copy())          # equal values
        assert not index.matches(keys[:2])          # different shape
        assert not index.matches(np.array([3, 1, 9], dtype=np.int64))

    def test_probe_join_reuses_matching_index(self):
        rng = np.random.default_rng(5)
        build = rng.integers(0, 20, 100).astype(np.int64)
        probe = rng.integers(0, 20, 100).astype(np.int64)
        index = JoinBuildIndex(build)
        b1, p1 = probe_join(build, probe, build_index=index)
        b2, p2 = probe_join(build, probe)
        np.testing.assert_array_equal(b1, b2)
        np.testing.assert_array_equal(p1, p2)

    def test_probe_join_rejects_stale_index(self):
        build = np.array([1, 2, 3], dtype=np.int64)
        stale = JoinBuildIndex(np.array([9, 9, 9], dtype=np.int64))
        b, p = probe_join(build, np.array([2], dtype=np.int64),
                          build_index=stale)
        np.testing.assert_array_equal(b, [1])
        np.testing.assert_array_equal(p, [0])


# ----------------------------------------------------------------------
# Table fast paths touched by the kernels
# ----------------------------------------------------------------------
class TestTableFastPaths:
    def test_concat_single_input_is_identity(self):
        table = _random_table(np.random.default_rng(0), 20)
        assert Table.concat([table]) is table

    def test_concat_single_non_empty_survivor(self):
        table = _random_table(np.random.default_rng(1), 20)
        empty = table.slice(0, 0)
        assert Table.concat([empty, table, empty]) is table

    def test_filter_rejects_integer_mask(self):
        table = _random_table(np.random.default_rng(2), 10)
        with pytest.raises(TableError):
            table.filter(np.array([0, 2, 4], dtype=np.int64))

    def test_view_derivations_match_validating_constructor(self):
        table = _random_table(np.random.default_rng(3), 50)
        taken = table.take(np.array([5, 1, 1, 40], dtype=np.int64))
        rebuilt = Table(
            taken.schema,
            {name: taken.column(name) for name in taken.schema.names},
            {"s": taken.dictionary("s")},
        )
        _assert_tables_equal(taken, rebuilt)
        assert taken.num_rows == 4
        sliced = table.slice(10, 20)
        assert sliced.num_rows == 10
        projected = table.project(["v", "k"])
        assert projected.schema.names == ("v", "k")
        assert projected.num_rows == 50
        renamed = table.rename({"k": "key"})
        assert renamed.schema.names == ("key", "v", "w", "s")
        assert renamed.num_rows == 50
