"""Unit and property tests for the local join's index pairs
(:func:`repro.kernels.joinindex.probe_join`) and for
:mod:`repro.relational.operators`."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TableError
from repro.kernels.joinindex import probe_join
from repro.relational.operators import (
    joined_rows,
    semi_join_mask,
    unique_keys,
)


def naive_join_pairs(build, probe):
    """Quadratic reference: all (build_idx, probe_idx) with equal keys."""
    pairs = []
    for bi, bk in enumerate(build):
        for pi, pk in enumerate(probe):
            if bk == pk:
                pairs.append((bi, pi))
    return sorted(pairs)


def join(build, probe, key, build_prefix="", probe_prefix=""):
    """The materialised inner equi-join of two tables on ``key``."""
    build_idx, probe_idx = probe_join(build.column(key), probe.column(key))
    return joined_rows(build, probe, build_idx, probe_idx,
                       build_prefix, probe_prefix)


class TestHashJoinIndices:
    def test_simple(self):
        build = np.array([1, 2, 2, 3])
        probe = np.array([2, 3, 9])
        bi, pi = probe_join(build, probe)
        assert sorted(zip(bi.tolist(), pi.tolist())) == [
            (1, 0), (2, 0), (3, 1)
        ]

    def test_empty_sides(self):
        empty = np.array([], dtype=np.int64)
        some = np.array([1, 2])
        for build, probe in [(empty, some), (some, empty), (empty, empty)]:
            bi, pi = probe_join(build, probe)
            assert len(bi) == 0 and len(pi) == 0

    def test_no_matches(self):
        bi, pi = probe_join(np.array([1, 2]), np.array([3, 4]))
        assert len(bi) == 0

    def test_duplicates_multiply(self):
        bi, pi = probe_join(np.array([7, 7]), np.array([7, 7, 7]))
        assert len(bi) == 6

    @given(
        build=st.lists(st.integers(0, 20), max_size=60),
        probe=st.lists(st.integers(0, 20), max_size=60),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_reference(self, build, probe):
        bi, pi = probe_join(
            np.array(build, dtype=np.int64), np.array(probe, dtype=np.int64)
        )
        assert sorted(zip(bi.tolist(), pi.tolist())) == \
            naive_join_pairs(build, probe)


class TestJoinTables:
    def test_prefixing_and_values(self, small_table):
        joined = join(small_table, small_table, "k",
                      build_prefix="l_", probe_prefix="r_")
        assert set(joined.schema.names) == {"l_k", "l_v", "r_k", "r_v"}
        # keys equal on both sides of every output row
        assert (joined.column("l_k") == joined.column("r_k")).all()
        # 1,3,5 match once; 2 matches 2x2
        assert joined.num_rows == 3 + 4

    def test_collision_without_prefix_raises(self, small_table):
        with pytest.raises(TableError, match="collision"):
            join(small_table, small_table, "k")


class TestSemiJoinMask:
    def test_basic(self):
        mask = semi_join_mask(np.array([1, 2, 3, 4]), np.array([2, 4, 9]))
        assert mask.tolist() == [False, True, False, True]

    def test_empty_membership(self):
        mask = semi_join_mask(np.array([1, 2]), np.array([], dtype=np.int64))
        assert mask.tolist() == [False, False]

    def test_empty_keys(self):
        assert len(semi_join_mask(np.array([], dtype=np.int64),
                                  np.array([1]))) == 0

    @given(
        keys=st.lists(st.integers(-50, 50), max_size=80),
        members=st.lists(st.integers(-50, 50), max_size=80),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_python_membership(self, keys, members):
        mask = semi_join_mask(
            np.array(keys, dtype=np.int64), np.array(members, dtype=np.int64)
        )
        expected = [k in set(members) for k in keys]
        assert mask.tolist() == expected


def test_unique_keys_sorted():
    assert unique_keys(np.array([3, 1, 3, 2])).tolist() == [1, 2, 3]
