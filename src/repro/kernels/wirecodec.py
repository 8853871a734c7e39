"""Compact wire codec for thin tables, row-id batches and payloads.

Late materialization (:mod:`repro.latemat`) makes the hot transfers
carry ``(join_key, origin_rowid)`` pairs and, later, batches of
surviving row ids — both extremely compressible: row ids within one
stitch batch are sorted and dense, join keys are small integers, and
dictionary-encoded string columns already travel as int32 codes.  This
module is the wire format those transfers use:

* **varint/delta row ids** — :func:`encode_rowids` sorts the batch and
  stores ``[count, first, gaps...]`` as LEB128 varints, so a dense
  batch costs ~1 byte per row instead of 8.
* **dictionary-id passthrough** — a ``DICT_STRING`` column ships its
  int32 code array plus the (small, amortised) dictionary once; the
  decoded varchar width never touches the wire.
* **constant stripping** — a column holding one repeated value (the
  no-NULL data model's analogue of null-stripping: an absent/sentinel
  column collapses to a single run) is encoded as tag + value + count.
* **sorted-column delta** — non-decreasing integer columns (row ids,
  clustered keys) store zigzag(first) + gaps as varints.

Both directions are vectorised (numpy byte peeling, no per-value
Python loop) and the round trip is bit-exact —
``tests/test_latemat.py`` pins it.  :func:`encoded_table_bytes` is the
honest "what would this table cost on the wire" estimator the
exchange/export paths record when late materialization is enabled.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.errors import TableError
from repro.relational.schema import DataType, Schema
from repro.relational.table import Table

#: Column encoding tags (one byte each on the wire).
TAG_RAW = 0
TAG_DELTA = 1
TAG_CONST = 2
TAG_DICT = 3


# ----------------------------------------------------------------------
# Varints
# ----------------------------------------------------------------------
def encode_varints(values: np.ndarray) -> bytes:
    """LEB128-encode an unsigned integer array (vectorised).

    Bytes are peeled seven bits at a time across the whole array — at
    most ten rounds for 64-bit values — instead of looping per value.
    """
    values = np.asarray(values, dtype=np.uint64)
    if values.size == 0:
        return b""
    nbytes = np.ones(values.shape, dtype=np.int64)
    remaining = values >> np.uint64(7)
    while remaining.any():
        nbytes += (remaining != 0)
        remaining = remaining >> np.uint64(7)
    starts = np.concatenate(
        ([0], np.cumsum(nbytes)[:-1])).astype(np.int64)
    out = np.empty(int(nbytes.sum()), dtype=np.uint8)
    for round_ in range(10):
        mask = nbytes > round_
        if not mask.any():
            break
        septet = ((values[mask] >> np.uint64(7 * round_))
                  & np.uint64(0x7F)).astype(np.uint8)
        more = (nbytes[mask] > round_ + 1).astype(np.uint8)
        out[starts[mask] + round_] = septet | (more << 7)
    return out.tobytes()


def decode_varints(data: bytes) -> np.ndarray:
    """Decode a LEB128 stream back to a uint64 array (vectorised)."""
    arr = np.frombuffer(data, dtype=np.uint8)
    if arr.size == 0:
        return np.empty(0, dtype=np.uint64)
    terminal = (arr & 0x80) == 0
    if not terminal[-1]:
        raise TableError("truncated varint stream")
    group = np.zeros(arr.size, dtype=np.int64)
    group[1:] = np.cumsum(terminal)[:-1]
    starts = np.flatnonzero(
        np.concatenate(([True], terminal[:-1])))
    position = np.arange(arr.size, dtype=np.int64) - starts[group]
    septets = (arr & 0x7F).astype(np.uint64) \
        << (7 * position).astype(np.uint64)
    values = np.zeros(int(terminal.sum()), dtype=np.uint64)
    np.add.at(values, group, septets)
    return values


def _zigzag(values: np.ndarray) -> np.ndarray:
    signed = np.asarray(values, dtype=np.int64)
    return ((signed << 1) ^ (signed >> 63)).astype(np.uint64)


def _unzigzag(values: np.ndarray) -> np.ndarray:
    unsigned = np.asarray(values, dtype=np.uint64)
    return ((unsigned >> np.uint64(1)).astype(np.int64)
            ^ -(unsigned & np.uint64(1)).astype(np.int64))


# ----------------------------------------------------------------------
# Row-id batches
# ----------------------------------------------------------------------
def encode_rowids(rowids: np.ndarray) -> bytes:
    """Sort + delta + varint encode a batch of row ids."""
    rowids = np.sort(np.asarray(rowids, dtype=np.int64))
    stream = np.empty(rowids.size + 1, dtype=np.uint64)
    stream[0] = rowids.size
    if rowids.size:
        stream[1] = np.uint64(rowids[0])
        stream[2:] = np.diff(rowids).astype(np.uint64)
    return encode_varints(stream)


def decode_rowids(data: bytes) -> np.ndarray:
    """Decode :func:`encode_rowids` output (sorted int64 array)."""
    stream = decode_varints(data)
    if stream.size == 0:
        raise TableError("empty row-id stream")
    count = int(stream[0])
    if stream.size != count + 1:
        raise TableError(
            f"row-id stream advertises {count} ids, carries "
            f"{stream.size - 1}")
    if count == 0:
        return np.empty(0, dtype=np.int64)
    return np.cumsum(stream[1:].astype(np.int64))


def encoded_rowid_bytes(rowids: np.ndarray) -> int:
    """Wire bytes of one encoded row-id batch."""
    return len(encode_rowids(rowids))


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------
def _frame(tag: int, payload: bytes) -> bytes:
    return bytes([tag]) + encode_varints(
        np.array([len(payload)], dtype=np.uint64)) + payload


def _encode_column(table: Table, name: str) -> bytes:
    column = table.schema.column(name)
    values = table.column(name)
    if column.dtype is DataType.DICT_STRING:
        dictionary = table.dictionary(name)
        parts: List[bytes] = [encode_varints(
            np.array([len(dictionary)], dtype=np.uint64))]
        for entry in dictionary:
            encoded = str(entry).encode("utf-8")
            parts.append(encode_varints(
                np.array([len(encoded)], dtype=np.uint64)))
            parts.append(encoded)
        parts.append(values.astype("<i4").tobytes())
        return _frame(TAG_DICT, b"".join(parts))
    if column.dtype is DataType.FLOAT64:
        bits = values.view(np.uint64)
        if values.size and (bits == bits[0]).all():
            return _frame(TAG_CONST, encode_varints(bits[:1]))
        return _frame(TAG_RAW, values.astype("<f8").tobytes())
    signed = values.astype(np.int64)
    if values.size and (signed == signed[0]).all():
        return _frame(TAG_CONST, encode_varints(_zigzag(signed[:1])))
    if values.size > 1:
        gaps = np.diff(signed)
        if (gaps >= 0).all():
            stream = np.empty(signed.size, dtype=np.uint64)
            stream[0] = _zigzag(signed[:1])[0]
            stream[1:] = gaps.astype(np.uint64)
            return _frame(TAG_DELTA, encode_varints(stream))
    width = "<i4" if values.dtype.itemsize == 4 else "<i8"
    return _frame(TAG_RAW, values.astype(width).tobytes())


def encode_table(table: Table) -> bytes:
    """Encode a whole table (columns in schema order)."""
    header = encode_varints(
        np.array([table.num_rows], dtype=np.uint64))
    return header + b"".join(
        _encode_column(table, name) for name in table.schema.names)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0

    def varint(self) -> int:
        start = self.offset
        while self.data[self.offset] & 0x80:
            self.offset += 1
        self.offset += 1
        return int(decode_varints(self.data[start:self.offset])[0])

    def raw(self, nbytes: int) -> bytes:
        chunk = self.data[self.offset:self.offset + nbytes]
        if len(chunk) != nbytes:
            raise TableError("truncated wire table")
        self.offset += nbytes
        return chunk


def decode_table(data: bytes, schema: Schema) -> Table:
    """Decode :func:`encode_table` output back to a table."""
    reader = _Reader(data)
    num_rows = reader.varint()
    columns: Dict[str, np.ndarray] = {}
    dictionaries: Dict[str, np.ndarray] = {}
    for column in schema:
        tag = reader.raw(1)[0]
        payload = reader.raw(reader.varint())
        dtype = column.dtype.numpy_dtype()
        if tag == TAG_DICT:
            sub = _Reader(payload)
            entries = [
                sub.raw(sub.varint()).decode("utf-8")
                for _ in range(sub.varint())
            ]
            dictionaries[column.name] = np.asarray(entries, dtype=object)
            codes = np.frombuffer(
                sub.raw(4 * num_rows), dtype="<i4")
            columns[column.name] = codes.astype(np.int32)
        elif tag == TAG_CONST:
            value = decode_varints(payload)[:1]
            if column.dtype is DataType.FLOAT64:
                fill = value.view(np.float64)[0]
            else:
                fill = _unzigzag(value)[0]
            columns[column.name] = np.full(num_rows, fill, dtype=dtype)
        elif tag == TAG_DELTA:
            stream = decode_varints(payload)
            if stream.size != num_rows:
                raise TableError("delta column length mismatch")
            values = np.empty(num_rows, dtype=np.int64)
            values[0] = _unzigzag(stream[:1])[0]
            values[1:] = stream[1:].astype(np.int64)
            columns[column.name] = np.cumsum(values).astype(dtype)
        elif tag == TAG_RAW:
            if column.dtype is DataType.FLOAT64:
                columns[column.name] = np.frombuffer(
                    payload, dtype="<f8").astype(dtype)
            else:
                width = "<i4" if dtype.itemsize == 4 else "<i8"
                columns[column.name] = np.frombuffer(
                    payload, dtype=width).astype(dtype)
        else:
            raise TableError(f"unknown wire-column tag {tag}")
        if len(columns[column.name]) != num_rows:
            raise TableError(
                f"column {column.name!r} decoded "
                f"{len(columns[column.name])} rows, expected {num_rows}")
    return Table(schema, columns, dictionaries)


def encoded_table_bytes(table: Table) -> int:
    """Wire bytes of ``table`` under this codec."""
    return len(encode_table(table))
