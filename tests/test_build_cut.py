"""The local join's build side, from the scan's buffer to the index.

Two mechanisms keep the join from copying or sorting rows it does not
need, each checked here against the form it replaced:

1. the semi-join cut (:func:`repro.kernels.joinindex.reachable_rows`):
   before ``query.plan`` asks for a join index, it drops the build rows
   whose key no probe row carries.  Proved against a Python-set
   reference (``tests/kernel_reference.py``) over every integer key
   dtype, and ``join_aggregate`` with it, over the key types a table
   holds, against a per-unit dictionary join and the single-node
   oracle;
2. the zero-copy concat: :meth:`Table.concat` of consecutive slices of
   one table is a slice of that table, so the scan's task wires and the
   shuffle's destinations reach the join without a re-copy.  Proved
   equal to the copy, sharing the source's memory, still copying
   anything else — and no engine writes into a concat result.

A spy on the file table's columns then pins every copy of an L column
from the file to the index: one gather at the scan's final rows, and
one of the rows a probe can reach, in destination order, by the
shuffle (``tests/test_exchange_cut.py`` proves that cut).
"""

from __future__ import annotations

from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import algorithm_by_name
from repro.core.joins import ExecutionContext
from repro.kernels.joinindex import JoinBuildIndex, reachable_rows
from repro.query import plan
from repro.query.plan import join_aggregate, merge_partials
from repro.query.query import HybridQuery
from repro.relational.aggregates import AggregateSpec, group_by_aggregate
from repro.relational.expressions import BetweenDayDiff
from repro.relational.operators import joined_rows
from repro.relational.schema import Column, DataType, Schema
from repro.relational.table import Table
from repro.testkit import generator, oracle
from repro.testkit.invariants import InvariantChecker
from tests.kernel_reference import naive_join_indices, naive_reachable_rows
from tests.test_join_pipeline import assert_bit_equal

KEY_DTYPES = [np.int8, np.uint8, np.int32, np.uint32, np.int64, np.uint64]


def key_values(dtype, low, offsets):
    """``low + offsets`` in ``dtype``, exactly (Python integers)."""
    return np.array([low + int(offset) for offset in offsets], dtype=dtype)


def draw_keys(rng, dtype, count, span, at):
    """``count`` keys over a span of ``span`` values at the low end,
    zero, or the high end of ``dtype``, with random multiplicities."""
    info = np.iinfo(dtype)
    span = min(span, int(info.max) - int(info.min) + 1)
    low = {"min": int(info.min), "zero": max(int(info.min), -(span // 2)),
           "max": int(info.max) - span + 1}[at]
    distinct = rng.integers(0, span, size=max(1, count // 3 + 1))
    return key_values(dtype, low, rng.choice(distinct, size=count)), low


def draw_probe(rng, dtype, build, count, hits):
    """``count`` probe keys in ``dtype`` hitting none, some or all of
    the distinct ``build`` keys."""
    info = np.iinfo(dtype)
    present = sorted(set(build.tolist()))
    misses = []
    if present:
        for value in (present[0] - 1, present[-1] + 1,
                      present[len(present) // 2] + 1):
            if info.min <= value <= info.max and value not in present:
                misses.append(value)
    if hits == "all" or not misses:
        pool = present
    elif hits == "none" or not present:
        pool = misses
    else:
        pool = present + misses
    if not pool:
        return np.empty(0, dtype=dtype)
    return np.array([pool[i] for i in rng.integers(0, len(pool), count)],
                    dtype=dtype)


# ----------------------------------------------------------------------
# 1. The semi-join cut
# ----------------------------------------------------------------------
class TestReachableRows:
    @given(seed=st.integers(0, 2**32 - 1),
           build_dtype=st.sampled_from(KEY_DTYPES),
           probe_dtype=st.sampled_from(KEY_DTYPES),
           build_rows=st.integers(0, 200), probe_rows=st.integers(0, 60),
           span=st.integers(1, 400),
           at=st.sampled_from(["min", "zero", "max"]),
           hits=st.sampled_from(["none", "some", "all"]))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_set_reference(self, seed, build_dtype, probe_dtype,
                                      build_rows, probe_rows, span, at,
                                      hits):
        rng = np.random.default_rng(seed)
        build, _low = draw_keys(rng, build_dtype, build_rows, span, at)
        probe = draw_probe(rng, probe_dtype, build, probe_rows, hits) \
            if np.can_cast(build_dtype, probe_dtype) \
            else draw_probe(rng, build_dtype, build, probe_rows,
                            hits).astype(probe_dtype, casting="unsafe")
        keep = reachable_rows(build, probe)
        expected = naive_reachable_rows(build, probe)
        if expected is None:
            assert keep is None
        else:
            assert keep is not None and keep.dtype.kind == "i"
            assert np.array_equal(keep, expected)

    @pytest.mark.parametrize("build,probe,fires", [
        # One value per row at most, a fifth of it reached.
        (np.arange(10), np.array([3, 7]), True),
        # Eleven values over ten rows: the span is past the row count.
        (np.array([0] * 9 + [10]), np.array([10]), False),
        # Six of ten rows reachable: more than half.
        (np.array([1] * 6 + [2] * 4), np.array([1]), False),
        (np.arange(10.0), np.array([3.0]), False),
        (np.arange(10), np.array([3.0]), False),
        (np.arange(10), np.empty(0, dtype=np.int64), False),
        (np.empty(0, dtype=np.int64), np.array([1]), False),
    ], ids=["fires", "span-past-rows", "most-rows-reached", "float-keys",
            "float-probe", "empty-probe", "empty-build"])
    def test_when_the_cut_applies(self, build, probe, fires):
        assert (reachable_rows(build, probe) is not None) == fires

    def test_extreme_keys_match_exactly(self):
        """uint64 keys past 2**63 and int64 probe keys two's-complement
        equal to them: the offsets must not wrap onto each other."""
        top = np.uint64(2**64 - 1)
        build = np.array([top - np.uint64(i) for i in range(8)] * 2,
                         dtype=np.uint64)
        probe = np.array([-1, -2, 2**63 - 1], dtype=np.int64)
        assert reachable_rows(build, probe).size == 0
        assert np.array_equal(
            reachable_rows(build, np.array([2**64 - 1], dtype=np.uint64)),
            [0, 8])


#: The key types a table holds (``DataType.INT32`` / ``INT64``); the
#: cut's other integer dtypes are proved at the kernel above.
TABLE_KEY_DTYPES = [np.int32, np.int64]


def cut_tables(rng, keys, dtype, integral):
    """A build or probe side over ``keys``: ``k``, a group ``g``, a
    float ``v`` (integral for the oracle, or spread over many orders of
    magnitude so any reordered float sum shows) and a date ``d``."""
    count = len(keys)
    values = (rng.integers(-50, 50, size=count).astype(np.float64)
              if integral else rng.standard_normal(count)
              * 10.0 ** rng.integers(-6, 7, size=count))
    columns = {"k": keys, "g": rng.integers(0, 4, size=count, dtype=np.int32),
               "v": values,
               "d": rng.integers(0, 12, size=count, dtype=np.int32)}
    schema = Schema([
        Column("k", DataType.INT64 if dtype == np.int64 else DataType.INT32),
        Column("g", DataType.INT32), Column("v", DataType.FLOAT64),
        Column("d", DataType.DATE)])
    return Table(schema, columns)


def cut_query(aggregate, band):
    return HybridQuery(
        db_table="T", hdfs_table="L", db_join_key="k", hdfs_join_key="k",
        db_projection=("k", "g", "v", "d"),
        hdfs_projection=("k", "g", "v", "d"),
        post_join_predicate=(BetweenDayDiff("t_d", "l_d", *band)
                             if band else None),
        group_by=("t_g",),
        aggregates=(AggregateSpec("count"), AggregateSpec(aggregate, "l_v"),
                    AggregateSpec("sum", "t_v")),
    )


def slot_units(t_table, l_table, slots):
    """Both sides split by ``key mod slots``: slot-aligned units, so the
    union of the units' joins is the join of the two tables."""
    units = []
    for slot in range(slots):
        units.append(tuple(
            side.take(np.flatnonzero(
                np.mod(side.column("k"), slots) == slot))
            for side in (t_table, l_table)))
    return units


def per_unit_reference(units, query):
    """Each unit joined by a Python dict, every joined row
    materialised, filtered and grouped, the partials merged."""
    partials, pairs = [], 0
    for t_part, l_part in units:
        build_idx, probe_idx = naive_join_indices(l_part.column("k"),
                                                  t_part.column("k"))
        joined = joined_rows(l_part, t_part, build_idx, probe_idx,
                             query.hdfs_prefix, query.db_prefix, names=None)
        pairs += joined.num_rows
        if query.post_join_predicate is not None:
            joined = joined.filter(query.post_join_predicate.evaluate(joined))
        partials.append(group_by_aggregate(
            joined, list(query.group_by), list(query.aggregates)))
    if len(partials) == 1:
        return partials[0], pairs
    return merge_partials(partials, query), pairs


class CutLog:
    """Every cut ``query.plan`` asks for, with its inputs."""

    def __enter__(self):
        self.calls = []

        def logged(build_keys, probe_keys):
            keep = reachable_rows(build_keys, probe_keys)
            self.calls.append((np.array(build_keys), np.array(probe_keys),
                               keep))
            return keep

        self._patch = mock.patch.object(plan, "reachable_rows", logged)
        self._patch.start()
        return self

    def __exit__(self, *exc):
        self._patch.stop()


class TestCutJoin:
    @given(seed=st.integers(0, 2**32 - 1),
           dtype=st.sampled_from(TABLE_KEY_DTYPES),
           build_rows=st.integers(0, 300), probe_rows=st.integers(0, 80),
           span=st.integers(1, 500),
           at=st.sampled_from(["min", "zero", "max"]),
           hits=st.sampled_from(["none", "some", "all"]),
           slots=st.integers(1, 30),
           band=st.sampled_from([None, (-2, 3), (0, 0)]),
           aggregate=st.sampled_from(["sum", "avg"]))
    @settings(max_examples=150, deadline=None)
    def test_equals_the_per_unit_join_and_the_oracle(
            self, seed, dtype, build_rows, probe_rows, span, at, hits,
            slots, band, aggregate):
        rng = np.random.default_rng(seed)
        l_keys, _low = draw_keys(rng, dtype, build_rows, span, at)
        t_keys = draw_probe(rng, dtype, l_keys, probe_rows, hits)
        if aggregate == "avg":
            slots = 1    # AVG cannot merge over units
        query = cut_query(aggregate, band)
        for integral in (False, True):
            l_table = cut_tables(rng, l_keys, dtype, integral)
            t_table = cut_tables(rng, t_keys, dtype, integral)
            units = slot_units(t_table, l_table, slots)
            with CutLog() as log:
                result, pairs = join_aggregate(units, query)
            expected, expected_pairs = per_unit_reference(units, query)
            assert pairs == expected_pairs
            assert_bit_equal(result, expected)
            # One group: the cut saw every unit's keys, stacked.
            [(build_keys, probe_keys, keep)] = log.calls
            reference = naive_reachable_rows(build_keys, probe_keys)
            assert (keep is None) == (reference is None)
            if keep is not None:
                assert np.array_equal(keep, reference)
            if len(l_keys) and int(l_keys.max()) - int(l_keys.min()) \
                    >= len(l_keys):
                assert keep is None    # the span is past the row count
            if integral:
                oracle.assert_equivalent(
                    result, oracle.oracle_execute(t_table, l_table, query))


# ----------------------------------------------------------------------
# 2. The zero-copy concat
# ----------------------------------------------------------------------
def source_table(rows=40):
    schema = Schema([Column("k", DataType.INT64), Column("v", DataType.FLOAT64),
                     Column("s", DataType.DICT_STRING)])
    rng = np.random.default_rng(rows)
    return Table(schema, {
        "k": rng.integers(-5, 5, size=rows),
        "v": rng.standard_normal(rows),
        "s": rng.integers(0, 3, size=rows).astype(np.int32),
    }, {"s": np.array(["a", "b", "c"], dtype=object)})


def copied(tables):
    """The concatenation, every column copied."""
    return Table(tables[0].schema, {
        name: np.concatenate([table.column(name) for table in tables])
        for name in tables[0].schema.names
    }, {"s": tables[0].dictionary("s")})


class TestZeroCopyConcat:
    @given(cuts=st.lists(st.integers(0, 40), min_size=1, max_size=8),
           slice_twice=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_consecutive_slices_are_one_slice(self, cuts, slice_twice):
        source = source_table()
        bounds = sorted(cuts)
        if slice_twice:
            # Slices of a slice still know the table they came from.
            outer = source.slice(bounds[0], 40)
            parts = [outer.slice(lo - bounds[0], hi - bounds[0])
                     for lo, hi in zip(bounds, bounds[1:] + [40])]
        else:
            parts = [source.slice(lo, hi)
                     for lo, hi in zip(bounds, bounds[1:] + [40])]
        result = Table.concat(parts)
        assert_bit_equal(result, copied(parts))
        if result.num_rows:
            for name in source.schema.names:
                assert np.shares_memory(result.column(name),
                                        source.column(name))

    @pytest.mark.parametrize("arrangement", [
        "gapped", "reordered", "projected", "two-source"])
    def test_other_parts_are_copied(self, arrangement):
        source, other = source_table(), source_table(rows=30)
        parts = {
            "gapped": [source.slice(0, 10), source.slice(12, 20)],
            "reordered": [source.slice(10, 20), source.slice(0, 10)],
            "projected": [source.slice(0, 10).project(["k", "v", "s"]),
                          source.slice(10, 20).project(["k", "v", "s"])],
            "two-source": [source.slice(0, 10), other.slice(10, 20)],
        }[arrangement]
        result = Table.concat(parts)
        assert_bit_equal(result, copied(parts))
        for name in source.schema.names:
            assert not np.shares_memory(result.column(name),
                                        source.column(name))


def read_only_concat(concat):
    """``Table.concat`` whose results refuse writes: every column a
    read-only view, so a caller writing into one raises."""
    def guarded(cls, tables):
        result = concat(tables)
        columns = {}
        for name in result.schema.names:
            column = result.column(name).view()
            column.flags.writeable = False
            columns[name] = column
        table = Table._view(result.schema, columns, {
            column.name: result.dictionary(column.name)
            for column in result.schema
            if column.dtype is DataType.DICT_STRING})
        table._source = result._source
        return table
    return classmethod(guarded)


#: The grid's heavily skewed case, whose shuffles split hot keys.
HOT_CASE = generator.skewed_case(1.8)


def audit_cells():
    """One grid cell per algorithm and axis combination."""
    seen, cells = set(), []
    for case, cell in generator.default_grid():
        shape = (cell.algorithm, cell.fault_spec is not None,
                 cell.cache_warm, case.name == HOT_CASE.name,
                 cell.late_materialization, cell.workers)
        if shape not in seen:
            seen.add(shape)
            cells.append((case, cell))
    return cells


AUDIT_CELLS = audit_cells()


@pytest.fixture(scope="module")
def warehouse_cache():
    return generator.WarehouseCache()


@pytest.mark.parametrize(("case", "cell"), AUDIT_CELLS,
                         ids=[f"{case.name}:{cell.label()}"
                              for case, cell in AUDIT_CELLS])
def test_no_engine_writes_into_a_concat_result(case, cell, warehouse_cache):
    """A concat result may share memory with its parts, so every engine
    path (each algorithm, faults, warm caches, the hot-key split and
    work stealing, late materialization) runs with read-only concat
    results, and still answers as the oracle does."""
    warehouse = warehouse_cache.get(case, cell)
    checker = InvariantChecker()
    with mock.patch.object(Table, "concat",
                           read_only_concat(Table.concat)):
        result = generator.run_cell(case, cell, warehouse=warehouse,
                                    checker=checker)
    oracle.assert_equivalent(result, case.oracle_rows())
    if case.name == HOT_CASE.name:
        assert checker.counts["hybrid_partition"] >= 1


# ----------------------------------------------------------------------
# 3. Every copy of an L column, from the file to the index
# ----------------------------------------------------------------------
class CopiedColumn(np.ndarray):
    """A file-table column that logs ``(column, rows)`` for each copy
    of its rows — a gather (``take``, fancy indexing) or a concatenation
    — and whose copies log too.  Values a ufunc computes from it are
    plain arrays."""

    def __array_finalize__(self, obj):
        self.name = getattr(obj, "name", None)
        self.log = getattr(obj, "log", None)

    def take(self, indices, *args, **kwargs):
        self.log.append((self.name, len(indices)))
        return super().take(indices, *args, **kwargs)

    def __getitem__(self, index):
        if isinstance(index, np.ndarray):
            self.log.append((self.name, int(
                index.sum() if index.dtype == bool else len(index))))
        return super().__getitem__(index)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        # What a ufunc computes from the column is not a copy of it.
        def plain(values):
            return (np.asarray(values) if isinstance(values, CopiedColumn)
                    else values)
        if "out" in kwargs:
            kwargs["out"] = tuple(plain(out) for out in kwargs["out"])
        return getattr(ufunc, method)(*map(plain, inputs), **kwargs)

    def __array_function__(self, func, types, args, kwargs):
        if func is np.concatenate:
            for part in args[0]:
                if isinstance(part, CopiedColumn):
                    part.log.append((part.name, "concatenate"))
        return super().__array_function__(func, types, args, kwargs)


def test_each_l_column_is_copied_twice_before_the_index():
    """Repartition without a Bloom filter: each wire column of L is
    gathered once at the scan's final rows and once at the rows a probe
    can reach, in destination order, by the shuffle — the task wires,
    the shuffle's destinations and the stacked units are slices, and
    the join's own cut, with every row reachable, declines."""
    case = generator.generate_data_case(2015)
    warehouse = generator.build_cell_warehouse(case, 4, "parquet")
    filesystem = warehouse.jen.filesystem
    table = filesystem.file_table("L")
    log = []
    columns = {}
    for name in table.schema.names:
        column = table.column(name).view(CopiedColumn)
        column.name, column.log = name, log
        columns[name] = column
    filesystem._files["L"] = Table._view(table.schema, columns, {
        column.name: table.dictionary(column.name) for column in table.schema
        if column.dtype is DataType.DICT_STRING})
    indexes = []

    def index_for(build_keys, band_values=None, slot_bounds=None):
        indexes.append((list(log), build_keys, band_values))
        return JoinBuildIndex(build_keys, band_values, slot_bounds)

    construct = Table.__init__

    def keeping_the_spy(self, schema, columns, dictionaries=None):
        # ``np.asarray`` would drop the subclass of a column handed in.
        construct(self, schema, columns, dictionaries)
        for name, column in columns.items():
            if isinstance(column, CopiedColumn):
                self._columns[name] = column

    with mock.patch.object(Table, "__init__", keeping_the_spy):
        run = algorithm_by_name("repartition").run(
            warehouse, case.query, ExecutionContext(index_for=index_for))
    oracle.assert_equivalent(run.result, case.oracle_rows())
    [(copies, build_keys, band_values)] = indexes
    scanned = int(run.stats.hdfs_tuples_shuffled)
    # The scan gathers every projected column; the file columns among
    # the wire columns (not the derived ones) travel on to the join.
    projected = list(case.query.hdfs_projection)
    wire = [name for name in case.query.hdfs_wire_columns()
            if name in projected]
    assert case.query.hdfs_join_key in wire
    kept = len(build_keys)
    assert 0 < kept < scanned    # the shuffle's cut fired
    assert Counter(copies) == Counter(
        [(name, scanned) for name in projected]
        + [(name, kept) for name in wire])
    # The index holds the cut's own copy of the file's column.
    assert isinstance(build_keys, CopiedColumn)
    assert band_values is None or isinstance(band_values, CopiedColumn)
