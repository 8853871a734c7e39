"""The wire codec's encoder against its size arithmetic.

No engine calls the codec: every transfer is priced once, by
``Table.row_bytes`` / ``Table.wire_row_bytes``.  ``encode_table`` and
``encoded_table_bytes`` stay only because the benchmark's tracer hooks
name them; this file goes with the module once those hooks do.  Four
things are pinned here:

1. size == ``len(encoding)`` on a grid that visits every tag, every
   varint length class from both sides, and the integer/float edge
   values where the tag choice flips;
2. the encoder's bytes themselves (golden digests);
3. the data plane never encodes or sizes a frame, and never slices a
   shuffle message, yet prices exactly what it priced when it did;
4. the priced dictionary term is the utf-8 bytes the format writes.
"""

from __future__ import annotations

import dataclasses
import hashlib
from unittest import mock

import numpy as np
import pytest

from repro import algorithm_by_name
from repro.jen import engine
from repro.kernels import wirecodec
from repro.latemat import set_late_materialization_enabled, thin_table
from repro.relational.schema import Column, DataType, Schema
from repro.relational.table import Table
from repro.testkit import oracle
from tests.conftest import build_test_warehouse

INT32 = np.iinfo(np.int32)
INT64 = np.iinfo(np.int64)

#: Both sides of every LEB128 length class a uint64 can reach.
BOUNDARIES = [1 << (7 * k) for k in range(1, 10)]
EDGE_VALUES = sorted(
    {0, 1, 2 ** 64 - 1}
    | {boundary - 1 for boundary in BOUNDARIES} | set(BOUNDARIES))


def one_column(dtype, values, dictionary=None, name="c"):
    values = np.asarray(values, dtype=dtype.numpy_dtype())
    return Table(Schema([Column(name, dtype)]), {name: values},
                 {} if dictionary is None else {name: dictionary})


def strings(*entries):
    return np.asarray(entries, dtype=object)


def read_varint(data, offset):
    """One LEB128 value at ``offset`` and the offset after it (a reader
    of the format kept apart from the module)."""
    value = shift = 0
    while True:
        byte = data[offset]
        value |= (byte & 0x7F) << shift
        shift += 7
        offset += 1
        if not byte & 0x80:
            return value, offset


def frame_tags(data, num_columns):
    """The tag byte of each column frame."""
    _, offset = read_varint(data, 0)
    tags = []
    for _ in range(num_columns):
        tags.append(data[offset])
        length, offset = read_varint(data, offset + 1)
        offset += length
    assert offset == len(data)
    return tags


def assert_size_is_the_encoding(table, tags=None):
    """Size == ``len(encode_table(table))``; returns the frame tags."""
    data = wirecodec.encode_table(table)
    assert wirecodec.encoded_table_bytes(table) == len(data)
    written = frame_tags(data, len(table.schema))
    if tags is not None:
        assert written == tags
    return written


def thin_frame(ids):
    """A row-id batch as it travels: the ``__rowid__`` column of a thin
    ``(key, rowid)`` table, sorted as the stitch sorts it."""
    ids = np.sort(np.asarray(ids, dtype=np.int64))
    keys = Table(Schema([Column("k", DataType.INT32)]),
                 {"k": (np.arange(ids.size) % 3).astype(np.int32)})
    return thin_table(keys, "k", ids)


# ----------------------------------------------------------------------
# 1. Size == len(encoding)
# ----------------------------------------------------------------------
class TestVarintLengths:
    def test_scalar_and_array_lengths_are_the_encoders(self):
        values = np.asarray(EDGE_VALUES, dtype=np.uint64)
        lengths = wirecodec._varint_lengths(values)
        for value, length in zip(EDGE_VALUES, lengths.tolist()):
            encoded = wirecodec.encode_varints(
                np.asarray([value], dtype=np.uint64))
            assert len(encoded) == length == wirecodec._varint_length(value)
        assert len(wirecodec.encode_varints(values)) == lengths.sum()
        assert lengths.min() == 1 and lengths.max() == 10

    def test_every_edge_value_round_trips(self):
        data = wirecodec.encode_varints(
            np.asarray(EDGE_VALUES, dtype=np.uint64))
        decoded, offset = [], 0
        while offset < len(data):
            value, offset = read_varint(data, offset)
            decoded.append(value)
        assert decoded == EDGE_VALUES

    @pytest.mark.parametrize(
        "value", [value for value in EDGE_VALUES if value <= INT64.max])
    def test_rowid_batches_either_side_of_each_class(self, value):
        for ids in ([value], [0, value], [3, 3 + value // 2, value],
                    [value, 0]):
            _, rowid_tag = assert_size_is_the_encoding(thin_frame(ids))
            # Sorted row ids never travel at their raw eight bytes.
            assert rowid_tag in (wirecodec.TAG_CONST, wirecodec.TAG_DELTA)

    @pytest.mark.parametrize("count", [0, 1, 2, 127, 128, 1000])
    def test_rowid_batch_sizes(self, count):
        rng = np.random.default_rng(count)
        ids = rng.choice(1 << 20, size=count, replace=False)
        assert_size_is_the_encoding(thin_frame(ids))


class TestSizeIsTheEncoding:
    @pytest.mark.parametrize("rows", [0, 1, 2, 1000])
    @pytest.mark.parametrize("dtype", [DataType.INT32, DataType.INT64,
                                       DataType.DATE])
    def test_integer_columns_by_row_count(self, dtype, rows):
        rng = np.random.default_rng(rows)
        info = np.iinfo(dtype.numpy_dtype())
        scattered = rng.integers(info.min, info.max, size=rows,
                                 endpoint=True)
        # One row is a constant; DELTA needs two; nothing to say about
        # zero rows but their width.
        const = wirecodec.TAG_CONST if rows else wirecodec.TAG_RAW
        delta = const if rows < 2 else wirecodec.TAG_DELTA
        raw = const if rows < 2 else wirecodec.TAG_RAW
        assert_size_is_the_encoding(
            one_column(dtype, np.full(rows, info.min)), [const])
        assert_size_is_the_encoding(
            one_column(dtype, np.sort(scattered // 4)), [delta])
        assert_size_is_the_encoding(
            one_column(dtype, np.sort(scattered // 4)[::-1]), [raw])

    @pytest.mark.parametrize("rows", [0, 1, 2, 1000])
    def test_float_and_dictionary_columns_by_row_count(self, rows):
        rng = np.random.default_rng(rows)
        assert_size_is_the_encoding(
            one_column(DataType.FLOAT64, rng.random(rows)),
            [wirecodec.TAG_RAW if rows != 1 else wirecodec.TAG_CONST])
        for entries in (1, 300):
            dictionary = strings(*(f"entry-{i}" for i in range(entries)))
            assert_size_is_the_encoding(
                one_column(DataType.DICT_STRING,
                           rng.integers(0, entries, size=rows), dictionary),
                [wirecodec.TAG_DICT])

    def test_integer_extremes(self):
        raw, delta = [wirecodec.TAG_RAW], [wirecodec.TAG_DELTA]
        # int32 widens before the diff: the full-range gap is a plain
        # 2**32 - 1.
        assert_size_is_the_encoding(
            one_column(DataType.INT32, [INT32.min, INT32.max]), delta)
        assert_size_is_the_encoding(
            one_column(DataType.INT32, [INT32.max, INT32.min]), raw)
        assert_size_is_the_encoding(
            one_column(DataType.INT32, [INT32.min, 0, INT32.max, -1]), raw)
        # int64: a sorted column whose diff overflows reads as a
        # negative gap and stays RAW ...
        assert_size_is_the_encoding(
            one_column(DataType.INT64, [INT64.min, INT64.max]), raw)
        assert_size_is_the_encoding(
            one_column(DataType.INT64, [INT64.min, -1, INT64.max]), raw)
        # ... and the one descending pair whose diff wraps to +1 is a
        # DELTA frame the decoder's wrapping cumsum undoes.
        assert_size_is_the_encoding(
            one_column(DataType.INT64, [INT64.max, INT64.min]), delta)
        assert_size_is_the_encoding(
            one_column(DataType.INT64, [INT64.min, 0, INT64.max, -1]), raw)
        # The widest gap that does not overflow.
        assert_size_is_the_encoding(
            one_column(DataType.INT64, [-1, INT64.max - 1]), delta)
        for extreme in (INT64.min, INT64.max):
            assert_size_is_the_encoding(
                one_column(DataType.INT64, [extreme] * 3),
                [wirecodec.TAG_CONST])

    @pytest.mark.parametrize("boundary", BOUNDARIES)
    def test_values_either_side_of_each_varint_class(self, boundary):
        for value in (boundary - 1, boundary):
            # A constant's varint is its zigzag: odd <- negative.
            signed = -(value + 1) // 2 if value % 2 else value // 2
            assert_size_is_the_encoding(
                one_column(DataType.INT64, [signed] * 4),
                [wirecodec.TAG_CONST])
            # The same as a DELTA frame's first value, then as a gap.
            assert_size_is_the_encoding(
                one_column(DataType.INT64, [signed, signed + 1]),
                [wirecodec.TAG_DELTA])
            if value <= INT64.max:
                assert_size_is_the_encoding(
                    one_column(DataType.INT64, [-7, -5, value - 5]),
                    [wirecodec.TAG_DELTA])
            if value <= INT32.max:
                assert_size_is_the_encoding(
                    one_column(DataType.INT32, [-3, value - 3]),
                    [wirecodec.TAG_DELTA])

    @pytest.mark.parametrize("rows", [31, 32, 127, 128, 4095, 4096,
                                      16383, 16384])
    def test_header_and_frame_lengths_across_classes(self, rows):
        # 127/128 and 16383/16384 rows move the row-count varint;
        # 32 and 4096 int32 rows put a RAW payload on 2**7 / 2**14.
        descending = np.arange(rows, 0, -1)
        assert_size_is_the_encoding(
            one_column(DataType.INT32, descending), [wirecodec.TAG_RAW])

    def test_constant_floats_compare_by_bits(self):
        const, raw = [wirecodec.TAG_CONST], [wirecodec.TAG_RAW]
        for value in (0.0, -0.0, 1.5, np.inf, -np.inf, np.nan):
            assert_size_is_the_encoding(
                one_column(DataType.FLOAT64, [value] * 5), const)
        # Equal as numbers, different on the wire.
        assert_size_is_the_encoding(
            one_column(DataType.FLOAT64, [0.0, -0.0, 0.0]), raw)
        # Unequal as numbers (NaN != NaN), one bit pattern on the wire.
        quiet = np.frombuffer(
            np.uint64(0x7FF8_0000_0000_0001).tobytes(), dtype=np.float64)[0]
        other = np.frombuffer(
            np.uint64(0xFFF8_0000_0000_00FF).tobytes(), dtype=np.float64)[0]
        assert_size_is_the_encoding(
            one_column(DataType.FLOAT64, [quiet] * 3), const)
        assert_size_is_the_encoding(
            one_column(DataType.FLOAT64, [quiet, other, quiet]), raw)

    def test_dictionary_entries(self):
        rng = np.random.default_rng(8)
        for dictionary in (
            strings(""),
            strings("", "naïve", "日本語", "\U0001F600 wide", "plain"),
            strings("x" * 127, "x" * 128, "é" * 64, "é" * 8200),
            strings(*(f"{i:03d}" for i in range(127))),
            strings(*(f"{i:03d}" for i in range(128))),
            np.asarray([17, None, 2.5], dtype=object),  # str() of each
        ):
            codes = rng.integers(0, len(dictionary), size=40)
            assert_size_is_the_encoding(
                one_column(DataType.DICT_STRING, codes, dictionary),
                [wirecodec.TAG_DICT])

    def test_views_price_like_copies(self):
        # Slices are views and gathers copies; the size must not care.
        table = golden_table()
        for part in (table.slice(5, 40), table.slice(9, 9),
                     table.take(np.arange(0, 64, 3)),
                     table.take(np.asarray([7, 7, 7]))):
            assert_size_is_the_encoding(part)

    def test_seeded_mixed_tables(self):
        rng = np.random.default_rng(20)
        for _ in range(150):
            assert_size_is_the_encoding(random_table(rng))


def random_table(rng):
    rows = int(rng.choice([0, 1, 2, 3, 17, 200]))
    columns, data, dictionaries = [], {}, {}
    for position in range(int(rng.integers(1, 6))):
        dtype = list(DataType)[int(rng.integers(len(DataType)))]
        name = f"c{position}"
        columns.append(Column(name, dtype))
        shape = int(rng.integers(5))
        if dtype is DataType.DICT_STRING:
            entries = int(rng.choice([1, 2, 50]))
            dictionaries[name] = strings(*(
                "".join(chr(int(c)) for c in rng.choice(
                    [97, 233, 0x4E2D, 0x1F600], size=rng.integers(0, 9)))
                for _ in range(entries)))
            data[name] = rng.integers(0, entries, size=rows)
        elif dtype is DataType.FLOAT64:
            data[name] = (np.full(rows, rng.choice([0.0, -0.0, np.nan]))
                          if shape == 0 else rng.random(rows))
        else:
            info = np.iinfo(dtype.numpy_dtype())
            values = rng.integers(info.min, info.max, size=rows,
                                  endpoint=True)
            if shape == 0:
                values[:] = values[:1]
            elif shape == 1:
                values = np.sort(values)
            elif shape == 2:
                values = np.sort(values >> int(rng.integers(1, info.bits)))
            elif shape == 3:
                values = np.cumsum(rng.integers(0, 3, size=rows))
            data[name] = values
    return Table(Schema(columns), data, dictionaries)


# ----------------------------------------------------------------------
# 2. Golden bytes
# ----------------------------------------------------------------------
def golden_table():
    """Every tag, built from arithmetic only (no generator stream)."""
    rows = 64
    i = np.arange(rows, dtype=np.int64)
    schema = Schema([
        Column("const", DataType.INT32),
        Column("sorted", DataType.INT64),
        Column("raw32", DataType.INT32),
        Column("raw64", DataType.INT64),
        Column("day", DataType.DATE),
        Column("f", DataType.FLOAT64),
        Column("fconst", DataType.FLOAT64),
        Column("tag", DataType.DICT_STRING, width_bytes=24),
    ])
    return Table(schema, {
        "const": np.full(rows, -7),
        "sorted": np.cumsum(i ** 5 * 1000) - 10 ** 6,
        "raw32": (i * 2654435761) % (1 << 31) - (1 << 30),
        "raw64": (i.astype(np.uint64)
                  * np.uint64(0x9E3779B97F4A7C15)).view(np.int64),
        "day": 16_000 + i // 3,
        "f": i / 7.0,
        "fconst": np.full(rows, -0.0),
        "tag": i % 5,
    }, {"tag": strings("", "a", "naïve", "日本語", "x" * 130)})


class TestGoldenBytes:
    #: sha256 of the encoding at commit 5c99989, whose
    #: ``encoded_table_bytes`` was ``len(encode_table(table))``.
    DIGEST = "6ff0c6b5d14389d27d952fd1bac251f726a6fba5a1c3854a62ecf345b8676397"
    LENGTH = 2120

    def test_encoder_output_is_unchanged(self):
        table = golden_table()
        data = wirecodec.encode_table(table)
        assert frame_tags(data, 8) == [
            wirecodec.TAG_CONST, wirecodec.TAG_DELTA, wirecodec.TAG_RAW,
            wirecodec.TAG_RAW, wirecodec.TAG_DELTA, wirecodec.TAG_RAW,
            wirecodec.TAG_CONST, wirecodec.TAG_DICT]
        assert len(data) == self.LENGTH
        assert hashlib.sha256(data).hexdigest() == self.DIGEST
        assert wirecodec.encoded_table_bytes(table) == self.LENGTH

    def test_rowid_encoding_is_unchanged(self):
        # A thin frame: RAW int32 keys, DELTA row ids (digest taken
        # before the row-id codec was pruned; the table encoder did not
        # change).
        table = thin_frame((np.arange(500, dtype=np.int64) ** 2 * 37)
                           % 100_003)
        data = wirecodec.encode_table(table)
        assert frame_tags(data, 2) == [wirecodec.TAG_RAW,
                                       wirecodec.TAG_DELTA]
        assert hashlib.sha256(data).hexdigest() == "a416f1cf603514b7d8e209500ae84eb15d3b83812a73478452a20aba83850606"
        assert wirecodec.encoded_table_bytes(table) == len(data) == 2768


# ----------------------------------------------------------------------
# 3. Nothing is encoded, sized or sliced on the data plane
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def expected_result(paper_workload, paper_query):
    return oracle.oracle_execute(
        paper_workload.t_table, paper_workload.l_table, paper_query)


def accounting_warehouse(workload, shape):
    """A fresh warehouse for one of the three late-materialized runs."""
    if shape == "db(BF)":          # thin export + stitch fetch
        return build_test_warehouse(workload, "text")
    warehouse = build_test_warehouse(workload)
    if shape == "spilling":        # budget as in tests/test_spill.py
        warehouse.config = dataclasses.replace(
            warehouse.config, jen_memory_budget_rows=4.0e5)
    return warehouse


#: ``bytes_shipped`` (rounded) of the two plain-repartition shapes.
REPARTITION_SHIPPED = {"export": 25536, "shuffle": 1433652, "relay": 0,
                       "stitch": 8823542, "cross_cluster": 25536,
                       "total": 10282730}


class TestNoMaterialisationOnTheDataPlane:
    """The pinned bytes and seconds were taken when these same runs
    still sized every thin transfer through the codec: 60 size calls
    for ``db(BF)``, and 841 message slices (the 870 remote messages of
    30 x 30 workers, less the empty ones) plus as many size calls per
    shuffle."""

    @pytest.mark.parametrize("shape, algorithm, shipped, seconds", [
        ("db(BF)", "db(BF)",
         {"export": 142656, "shuffle": 405952, "relay": 0,
          "stitch": 232252, "cross_cluster": 374908, "total": 780860},
         267.109),
        ("plain", "repartition", REPARTITION_SHIPPED, 529.278),
        ("spilling", "repartition", REPARTITION_SHIPPED, 531.828),
    ], ids=["db(BF)", "repartition", "repartition-spilling"])
    def test_run_prices_frames_without_building_them(
            self, paper_workload, paper_query, expected_result,
            shape, algorithm, shipped, seconds):
        warehouse = accounting_warehouse(paper_workload, shape)
        slices_per_shuffle = []
        shuffle = engine.shuffle

        def counting_shuffle(*args, **kwargs):
            with mock.patch.object(Table, "slice", autospec=True,
                                   side_effect=Table.slice) as sliced:
                result = shuffle(*args, **kwargs)
            slices_per_shuffle.append(sliced.call_count)
            return result

        encoded = mock.patch.object(wirecodec, "encode_table",
                                    wraps=wirecodec.encode_table)
        sized = mock.patch.object(wirecodec, "encoded_table_bytes",
                                  wraps=wirecodec.encoded_table_bytes)
        previous = set_late_materialization_enabled(True)
        try:
            with encoded as encode_calls, sized as size_calls, \
                    mock.patch.object(engine, "shuffle", counting_shuffle):
                run = algorithm_by_name(algorithm).run(warehouse,
                                                       paper_query)
        finally:
            set_late_materialization_enabled(previous)
        assert encode_calls.call_count == 0
        assert size_calls.call_count == 0
        assert sum(slices_per_shuffle) == 0
        assert bool(slices_per_shuffle) == (algorithm == "repartition")
        oracle.assert_equivalent(run.result, expected_result)
        assert {name: round(value) for name, value
                in run.trace.metadata["bytes_shipped"].items()} == shipped
        assert run.total_seconds == pytest.approx(seconds, abs=5e-4)


# ----------------------------------------------------------------------
# 4. The priced dictionary term is the format's utf-8 bytes
# ----------------------------------------------------------------------
def dictionary_entries(data):
    """The entries a one-column DICT frame carries, as written."""
    _, offset = read_varint(data, 0)
    assert data[offset] == wirecodec.TAG_DICT
    _, offset = read_varint(data, offset + 1)
    count, offset = read_varint(data, offset)
    entries = []
    for _ in range(count):
        length, offset = read_varint(data, offset)
        entries.append(data[offset:offset + length])
        offset += length
    return entries


class TestPricingMatchesTheFormat:
    def test_non_ascii_dictionary_counts_utf8_bytes(self):
        dictionary = strings("naïve", "日本語", "\U0001F600", "plain")
        table = one_column(DataType.DICT_STRING, np.arange(10) % 4,
                           dictionary)
        written = dictionary_entries(wirecodec.encode_table(table))
        assert [entry.decode("utf-8") for entry in written] \
            == list(dictionary)
        amortised = table.wire_row_bytes() - 4
        assert amortised * table.num_rows \
            == pytest.approx(sum(len(entry) for entry in written))
        # 14 characters, 24 bytes.
        assert sum(len(entry) for entry in written) == 24
