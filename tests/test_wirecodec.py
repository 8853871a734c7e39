"""The wire codec's two halves against each other (PR 20).

``encode_table`` / ``decode_table`` are the format; the engines only
ever ask what an encoding *weighs* and get the answer by arithmetic
(``encoded_table_bytes``).  Four things are pinned here:

1. size == ``len(encoding)`` on a grid that visits every tag, every
   varint length class from both sides, and the integer/float edge
   values where the tag choice flips;
2. the encoder's bytes themselves (golden digest, taken at the commit
   before the size path existed);
3. the data plane never materialises an encoding — and still reports
   the byte counts the materialising loop kept below reports;
4. the decoder turns every truncation and every flipped bit into a
   ``TableError`` or a table that is safe to read.

The round-trip tests of the format live on in
``tests/test_latemat.py::TestWireCodec``.
"""

from __future__ import annotations

import dataclasses
import hashlib
from unittest import mock

import numpy as np
import pytest

from repro import algorithm_by_name
from repro.errors import TableError
from repro.jen.engine import Jen
from repro.kernels import wirecodec
from repro.latemat import set_late_materialization_enabled
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


def frame_tags(data, num_columns):
    """The tag byte of each column frame (a reader of the format kept
    apart from the module's)."""
    def varint(offset):
        value = shift = 0
        while True:
            byte = data[offset]
            value |= (byte & 0x7F) << shift
            shift += 7
            offset += 1
            if not byte & 0x80:
                return value, offset

    _, offset = varint(0)
    tags = []
    for _ in range(num_columns):
        tags.append(data[offset])
        length, offset = varint(offset + 1)
        offset += length
    assert offset == len(data)
    return tags


def assert_size_is_the_encoding(table, tags=None):
    data = wirecodec.encode_table(table)
    assert wirecodec.encoded_table_bytes(table) == len(data)
    if tags is not None:
        assert frame_tags(data, len(table.schema)) == tags
    decoded = wirecodec.decode_table(data, table.schema)
    for name in table.schema.names:
        assert decoded.column(name).dtype == table.column(name).dtype
        # Bit-exact, so -0.0 and NaN payloads count.
        assert decoded.column(name).tobytes() \
            == np.ascontiguousarray(table.column(name)).tobytes()


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
        values = np.asarray(EDGE_VALUES, dtype=np.uint64)
        decoded = wirecodec.decode_varints(wirecodec.encode_varints(values))
        assert np.array_equal(decoded, values)

    @pytest.mark.parametrize(
        "value", [value for value in EDGE_VALUES if value <= INT64.max])
    def test_rowid_batches_either_side_of_each_class(self, value):
        for ids in ([value], [0, value], [3, 3 + value // 2, value],
                    [value, 0]):
            ids = np.asarray(ids, dtype=np.int64)
            encoded = wirecodec.encode_rowids(ids)
            assert wirecodec.encoded_rowid_bytes(ids) == len(encoded)
            assert np.array_equal(wirecodec.decode_rowids(encoded),
                                  np.sort(ids))

    @pytest.mark.parametrize("count", [0, 1, 2, 127, 128, 1000])
    def test_rowid_batch_sizes(self, count):
        rng = np.random.default_rng(count)
        ids = rng.choice(1 << 20, size=count, replace=False)
        assert wirecodec.encoded_rowid_bytes(ids) \
            == len(wirecodec.encode_rowids(ids))


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
        # The exchange prices per-message slices, the stitch gathers.
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
        ids = (np.arange(500, dtype=np.int64) ** 2 * 37) % 100_003
        data = wirecodec.encode_rowids(ids)
        assert hashlib.sha256(data).hexdigest() == "0d9e149a88d8e09bac871031341be620ab26f76955e008b26437535510d7e8eb"
        assert wirecodec.encoded_rowid_bytes(ids) == len(data)


# ----------------------------------------------------------------------
# 3. Nothing is materialised on the data plane
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def expected_result(paper_workload, paper_query):
    return oracle.oracle_execute(
        paper_workload.t_table, paper_workload.l_table, paper_query)


def accounting_warehouse(workload, shape):
    """A fresh warehouse for one of the three accounted runs."""
    if shape == "db(BF)":          # thin export + stitch fetch
        return build_test_warehouse(workload, "text")
    warehouse = build_test_warehouse(workload)
    if shape == "spilling":        # budget as in tests/test_spill.py
        warehouse.config = dataclasses.replace(
            warehouse.config, jen_memory_budget_rows=4.0e5)
    return warehouse


def run_late_materialized(warehouse, algorithm, query, expected_result):
    """One late-materialization run and every encoded-byte figure it
    reports (the spill figure lives on the local-join stats, which only
    ``Jen.join_and_aggregate``'s caller sees)."""
    local_join_stats = []
    join_and_aggregate = Jen.join_and_aggregate

    def recording(self, *args, **kwargs):
        result, stats = join_and_aggregate(self, *args, **kwargs)
        local_join_stats.append(stats)
        return result, stats

    previous = set_late_materialization_enabled(True)
    try:
        with mock.patch.object(Jen, "join_and_aggregate", recording):
            result = algorithm_by_name(algorithm).run(warehouse, query)
    finally:
        set_late_materialization_enabled(previous)
    oracle.assert_equivalent(result.result, expected_result)
    return {
        "encoded_wire_bytes": result.stats.encoded_wire_bytes,
        "stitch_fetched_wire_bytes":
            result.trace.metadata.get("stitch_fetched_wire_bytes", 0),
        "spilled_wire_bytes":
            sum(stats.spilled_wire_bytes for stats in local_join_stats),
        "bytes_shipped": result.trace.metadata["bytes_shipped"],
    }


class TestNoMaterialisationOnTheDataPlane:
    @pytest.mark.parametrize("shape, algorithm, reports", [
        ("db(BF)", "db(BF)",
         ("encoded_wire_bytes", "stitch_fetched_wire_bytes")),
        # Per-message slices of the shuffle, 30 senders x 30 receivers.
        ("plain", "repartition", ("encoded_wire_bytes",)),
        ("spilling", "repartition",
         ("encoded_wire_bytes", "spilled_wire_bytes")),
    ], ids=["db(BF)", "repartition", "repartition-spilling"])
    def test_run_prices_frames_without_building_them(
            self, paper_workload, paper_query, expected_result,
            shape, algorithm, reports):
        warehouse = accounting_warehouse(paper_workload, shape)
        run = (warehouse, algorithm, paper_query, expected_result)
        # The reference: materialise every frame and take its length —
        # what encoded_table_bytes was before it became arithmetic.
        measured_tables = []

        def materialising(table):
            measured_tables.append(table.num_rows)
            return len(wirecodec.encode_table(table))

        with mock.patch.object(wirecodec, "encoded_table_bytes",
                               materialising):
            expected = run_late_materialized(*run)
        for name in reports:
            assert expected[name] > 0, name

        with mock.patch.object(
                wirecodec, "encode_table",
                wraps=wirecodec.encode_table) as encode_table, \
            mock.patch.object(
                wirecodec, "encode_varints",
                wraps=wirecodec.encode_varints) as encode_varints, \
            mock.patch.object(
                wirecodec, "encoded_table_bytes",
                wraps=wirecodec.encoded_table_bytes) as sized:
            reported = run_late_materialized(*run)
        assert [call.args[0].num_rows for call in sized.call_args_list] \
            == measured_tables
        assert encode_table.call_count == 0
        assert encode_varints.call_count == 0
        assert reported == expected


# ----------------------------------------------------------------------
# 4. The decoder under truncation and bit flips
# ----------------------------------------------------------------------
def small_every_tag_table():
    rng = np.random.default_rng(459)
    schema = Schema([
        Column("c", DataType.INT32),
        Column("sorted", DataType.INT64),
        Column("f", DataType.FLOAT64),
        Column("scattered", DataType.INT32),
        Column("tag", DataType.DICT_STRING),
    ])
    return Table(schema, {
        "c": np.full(20, 9),
        "sorted": np.sort(rng.integers(0, 1 << 40, size=20)),
        "f": rng.random(20),
        "scattered": rng.integers(-50, 50, size=20),
        "tag": rng.integers(0, 3, size=20),
    }, {"tag": strings("x", "longer-entry", "é")})


def two_byte_header_table():
    """Enough rows for a two-byte row count; date, constant float."""
    rng = np.random.default_rng(130)
    schema = Schema([
        Column("day", DataType.DATE),
        Column("fconst", DataType.FLOAT64),
        Column("tag", DataType.DICT_STRING),
    ])
    return Table(schema, {
        "day": 16_000 + np.arange(130) // 4,
        "fconst": np.full(130, 2.5),
        "tag": rng.integers(0, 2, size=130),
    }, {"tag": strings("日本", "")})


def assert_rejected_or_readable(data, schema):
    try:
        table = wirecodec.decode_table(data, schema)
    except TableError:
        return False
    table.to_rows()
    return True


class TestDecoderRejectsCorruption:
    @pytest.mark.parametrize("build", [small_every_tag_table,
                                       two_byte_header_table])
    def test_every_prefix_is_rejected(self, build):
        table = build()
        data = wirecodec.encode_table(table)
        assert wirecodec.decode_table(data, table.schema).to_rows() \
            == table.to_rows()
        for length in range(len(data)):
            with pytest.raises(TableError):
                wirecodec.decode_table(data[:length], table.schema)

    @pytest.mark.parametrize("build", [small_every_tag_table,
                                       two_byte_header_table])
    def test_every_single_bit_flip(self, build):
        table = build()
        data = wirecodec.encode_table(table)
        readable = 0
        for position in range(len(data)):
            for bit in range(8):
                flipped = bytearray(data)
                flipped[position] ^= 1 << bit
                readable += assert_rejected_or_readable(
                    bytes(flipped), table.schema)
        # Flips inside RAW values and dictionary text are still valid
        # encodings — of another table; the rest must be caught.
        assert 0 < readable < 8 * len(data)

    def test_trailing_bytes(self):
        table = small_every_tag_table()
        data = wirecodec.encode_table(table)
        with pytest.raises(TableError, match="trailing"):
            wirecodec.decode_table(data + b"\x00", table.schema)

    def test_varints_that_do_not_fit_64_bits(self):
        top = wirecodec.encode_varints(
            np.asarray([2 ** 64 - 1], dtype=np.uint64))
        assert top == bytes([0xFF] * 9 + [0x01])
        assert wirecodec.decode_varints(top).tolist() == [2 ** 64 - 1]
        with pytest.raises(TableError, match="64 bits"):
            wirecodec.decode_varints(bytes([0x80] * 11 + [0x01]))
        with pytest.raises(TableError, match="64 bits"):
            wirecodec.decode_varints(bytes([0x80] * 10 + [0x01]))
        with pytest.raises(TableError, match="64 bits"):
            wirecodec.decode_varints(bytes([0xFF] * 9 + [0x02]))
        with pytest.raises(TableError, match="64 bits"):
            wirecodec.decode_varints(b"\x05" + bytes([0xFF] * 9 + [0x7F]))
        # The same rule guards a table's header and frame lengths.
        with pytest.raises(TableError, match="64 bits"):
            wirecodec.decode_table(bytes([0x80] * 11 + [0x01]),
                                   Schema([Column("c", DataType.INT32)]))

    @staticmethod
    def frame(tag, payload, rows=3):
        return bytes([rows, tag, len(payload)]) + payload

    def test_malformed_frames(self):
        int32 = Schema([Column("c", DataType.INT32)])
        float64 = Schema([Column("c", DataType.FLOAT64)])
        text = Schema([Column("c", DataType.DICT_STRING)])
        good = self.frame(wirecodec.TAG_RAW, bytes(12))
        assert wirecodec.decode_table(good, int32).num_rows == 3
        for data, schema, message in [
            # RAW / DICT payloads are exactly rows x width.
            (self.frame(wirecodec.TAG_RAW, bytes(11)), int32, "raw column"),
            (self.frame(wirecodec.TAG_RAW, bytes(16)), int32, "raw column"),
            (self.frame(wirecodec.TAG_RAW, bytes(12)), float64,
             "raw column"),
            (self.frame(wirecodec.TAG_DICT, b"\x01\x01a" + bytes(11)),
             text, "truncated"),
            (self.frame(wirecodec.TAG_DICT, b"\x01\x01a" + bytes(13)),
             text, "trailing"),
            # Codes index the dictionary that travels with them.
            (self.frame(wirecodec.TAG_DICT,
                        b"\x01\x01a" + bytes(8) + b"\x01\x00\x00\x00"),
             text, "dictionary codes"),
            (self.frame(wirecodec.TAG_DICT,
                        b"\x01\x01a" + bytes(8) + b"\xff\xff\xff\xff"),
             text, "dictionary codes"),
            (self.frame(wirecodec.TAG_DICT, b"\x00" + bytes(12)),
             text, "dictionary codes"),
            (self.frame(wirecodec.TAG_DICT, b"\x01\x02\xc3\x28" + bytes(12)),
             text, "utf-8"),
            # DELTA needs a first value; CONST exactly one.
            (self.frame(wirecodec.TAG_DELTA, b"", rows=0), int32, "delta"),
            (self.frame(wirecodec.TAG_DELTA, b"\x02\x01"), int32, "delta"),
            (self.frame(wirecodec.TAG_CONST, b""), int32, "constant"),
            (self.frame(wirecodec.TAG_CONST, b"\x02\x02"), int32,
             "constant"),
            # A tag the column's type cannot have been encoded with.
            (self.frame(wirecodec.TAG_DICT, b"\x01\x01a" + bytes(12)),
             int32, "cannot carry"),
            (self.frame(wirecodec.TAG_RAW, bytes(12)), text, "cannot carry"),
            (self.frame(wirecodec.TAG_DELTA, b"\x02\x01\x01"), float64,
             "cannot carry"),
            (self.frame(7, bytes(12)), int32, "unknown wire-column tag"),
        ]:
            with pytest.raises(TableError, match=message):
                wirecodec.decode_table(data, schema)

    def test_empty_dictionary_is_fine_on_zero_rows(self):
        empty = Table.empty(Schema([Column("c", DataType.DICT_STRING)]))
        data = wirecodec.encode_table(empty)
        assert wirecodec.encoded_table_bytes(empty) == len(data)
        assert wirecodec.decode_table(data, empty.schema).num_rows == 0
