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

The module has two halves that share every decision:

* :func:`encode_table` / :func:`decode_table` (and the row-id and
  varint pairs) **are the format** — its reference implementation.
  Value streams are vectorised (numpy byte peeling); the dictionary
  header is a Python loop, one step per entry.  The round trip is
  bit-exact and every decode failure is a :class:`TableError`.
* :func:`encoded_table_bytes` / :func:`encoded_rowid_bytes` are the
  **accounting path**: the exact length of those encodings, computed
  by arithmetic on the same tag choice without building a byte.  The
  engines only ever need the number (nothing on the data plane
  decodes), so this is what the exchange/export/stitch/spill paths
  call when late materialization is on.

:func:`_classify_column` picks each column's tag and
:func:`_varint_lengths` / :func:`_varint_length` price every varint;
the encoder and the size path both go through them, and
``tests/test_wirecodec.py`` pins size ≡ ``len(encoding)``.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.errors import TableError
from repro.relational.schema import DataType, Schema
from repro.relational.table import Table

#: Column encoding tags (one byte each on the wire).
TAG_RAW = 0
TAG_DELTA = 1
TAG_CONST = 2
TAG_DICT = 3

#: Dictionary codes travel as little-endian int32.
_WIRE_CODES = np.dtype("<i4")


def _wire_dtype(dtype: np.dtype) -> np.dtype:
    """Layout of a RAW payload: the column's own width, little-endian."""
    return dtype.newbyteorder("<")


# ----------------------------------------------------------------------
# Varints
# ----------------------------------------------------------------------
def _varint_length(value: int) -> int:
    """LEB128 bytes of one unsigned Python int: seven bits per byte."""
    return (max(value.bit_length(), 1) + 6) // 7


def _varint_lengths(values: np.ndarray) -> np.ndarray:
    """LEB128 bytes of each value of a non-empty uint64 array.

    One byte, plus one for every class boundary ``2**(7k)`` the value
    reaches; only the boundaries up to ``values.max()`` are visited.
    """
    nbytes = np.ones(values.shape, dtype=np.int64)
    top = int(values.max())
    boundary = 1 << 7
    while boundary <= top:
        nbytes += values >= np.uint64(boundary)
        boundary <<= 7
    return nbytes


def encode_varints(values: np.ndarray) -> bytes:
    """LEB128-encode an unsigned integer array (vectorised).

    Bytes are peeled seven bits at a time across the whole array — at
    most ten rounds for 64-bit values — instead of looping per value.
    """
    values = np.asarray(values, dtype=np.uint64)
    if values.size == 0:
        return b""
    nbytes = _varint_lengths(values)
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


def _encode_varint(value: int) -> bytes:
    return encode_varints(np.array([value], dtype=np.uint64))


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
    # Ten septets hold 70 bits; the shifts below would silently drop
    # what does not fit in 64.
    if (position > 9).any() or ((arr[position == 9] & 0x7F) > 1).any():
        raise TableError("varint does not fit in 64 bits")
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
def _rowid_stream(rowids: np.ndarray) -> np.ndarray:
    """``[count, first, gaps...]`` of the sorted batch, as uint64."""
    rowids = np.sort(np.asarray(rowids, dtype=np.int64))
    stream = np.empty(rowids.size + 1, dtype=np.uint64)
    stream[0] = rowids.size
    if rowids.size:
        stream[1] = np.uint64(rowids[0])
        stream[2:] = np.diff(rowids).astype(np.uint64)
    return stream


def encode_rowids(rowids: np.ndarray) -> bytes:
    """Sort + delta + varint encode a batch of row ids."""
    return encode_varints(_rowid_stream(rowids))


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
    """Exact ``len(encode_rowids(rowids))``, computed without encoding."""
    return int(_varint_lengths(_rowid_stream(rowids)).sum())


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------
def _classify_column(table: Table, name: str) -> Tuple[int, object]:
    """Choose ``name``'s tag and gather what its payload is made of.

    The format's only decision site: :func:`_encode_column` turns the
    answer into bytes and :func:`_column_bytes` into their count, so the
    two cannot disagree about a tag.  The second item is, per tag:

    * ``TAG_DICT`` — ``(utf-8 dictionary entries, int32 codes)``
    * ``TAG_CONST`` — the repeated value as the unsigned int its varint
      carries (float bits, or the zigzagged integer)
    * ``TAG_DELTA`` — the uint64 stream ``[zigzag(first), gaps...]``
    * ``TAG_RAW`` — ``(values, their fixed-width wire dtype)``
    """
    column = table.schema.column(name)
    values = table.column(name)
    if column.dtype is DataType.DICT_STRING:
        entries = [str(entry).encode("utf-8")
                   for entry in table.dictionary(name)]
        return TAG_DICT, (entries, values)
    if column.dtype is DataType.FLOAT64:
        bits = values.view(np.uint64)
        if values.size and (bits == bits[0]).all():
            return TAG_CONST, int(bits[0])
        return TAG_RAW, (values, _wire_dtype(values.dtype))
    signed = values.astype(np.int64)
    if values.size and (signed == signed[0]).all():
        return TAG_CONST, int(_zigzag(signed[:1])[0])
    if values.size > 1:
        gaps = np.diff(signed)
        if (gaps >= 0).all():
            stream = np.empty(signed.size, dtype=np.uint64)
            stream[0] = _zigzag(signed[:1])[0]
            stream[1:] = gaps.astype(np.uint64)
            return TAG_DELTA, stream
    return TAG_RAW, (values, _wire_dtype(values.dtype))


def _encode_column(table: Table, name: str) -> bytes:
    tag, payload = _classify_column(table, name)
    if tag == TAG_DICT:
        entries, codes = payload
        parts = [_encode_varint(len(entries))]
        for entry in entries:
            parts.append(_encode_varint(len(entry)))
            parts.append(entry)
        parts.append(codes.astype(_WIRE_CODES).tobytes())
        data = b"".join(parts)
    elif tag == TAG_CONST:
        data = _encode_varint(payload)
    elif tag == TAG_DELTA:
        data = encode_varints(payload)
    else:
        values, wire = payload
        data = values.astype(wire).tobytes()
    return bytes([tag]) + _encode_varint(len(data)) + data


def _column_bytes(table: Table, name: str) -> int:
    """Exact ``len(_encode_column(table, name))``, by arithmetic."""
    tag, payload = _classify_column(table, name)
    if tag == TAG_DICT:
        entries, codes = payload
        size = (_varint_length(len(entries))
                + sum(_varint_length(len(entry)) + len(entry)
                      for entry in entries)
                + codes.size * _WIRE_CODES.itemsize)
    elif tag == TAG_CONST:
        size = _varint_length(payload)
    elif tag == TAG_DELTA:
        size = int(_varint_lengths(payload).sum())
    else:
        values, wire = payload
        size = values.size * wire.itemsize
    return 1 + _varint_length(size) + size


def encode_table(table: Table) -> bytes:
    """Encode a whole table (columns in schema order).

    The format's reference: what :func:`decode_table` reads and what
    :func:`encoded_table_bytes` is tested against.  The engines account
    transfers through the latter and never call this.
    """
    return _encode_varint(table.num_rows) + b"".join(
        _encode_column(table, name) for name in table.schema.names)


def encoded_table_bytes(table: Table) -> int:
    """Exact ``len(encode_table(table))``, computed without encoding.

    Header, frame and dictionary varints are priced from Python ints,
    RAW and DICT payloads from ``rows × width``, DELTA streams by
    counting values per varint length class — no byte string is built.
    """
    return _varint_length(table.num_rows) + sum(
        _column_bytes(table, name) for name in table.schema.names)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0

    def varint(self) -> int:
        end = self.offset
        while end < len(self.data) and self.data[end] & 0x80:
            end += 1
        return int(decode_varints(self.raw(end + 1 - self.offset))[0])

    def raw(self, nbytes: int) -> bytes:
        chunk = self.data[self.offset:self.offset + nbytes]
        if len(chunk) != nbytes:
            raise TableError("truncated wire table")
        self.offset += nbytes
        return chunk

    def finish(self, what: str) -> None:
        if self.offset != len(self.data):
            raise TableError(
                f"{len(self.data) - self.offset} trailing bytes after {what}")


def _decode_dictionary_column(payload: bytes, num_rows: int):
    reader = _Reader(payload)
    try:
        entries = [
            reader.raw(reader.varint()).decode("utf-8")
            for _ in range(reader.varint())
        ]
    except UnicodeDecodeError as error:
        raise TableError(f"dictionary entry is not utf-8: {error}") from None
    codes = np.frombuffer(
        reader.raw(num_rows * _WIRE_CODES.itemsize), dtype=_WIRE_CODES)
    reader.finish("the dictionary codes")
    if num_rows and not (0 <= codes.min() and codes.max() < len(entries)):
        raise TableError(
            f"dictionary codes outside [0, {len(entries)})")
    return np.asarray(entries, dtype=object), codes.astype(np.int32)


def decode_table(data: bytes, schema: Schema) -> Table:
    """Decode :func:`encode_table` output back to a table.

    Anything that is not a complete, well-formed encoding of a table
    with ``schema`` raises :class:`TableError`.
    """
    reader = _Reader(data)
    num_rows = reader.varint()
    columns: Dict[str, np.ndarray] = {}
    dictionaries: Dict[str, np.ndarray] = {}
    for column in schema:
        tag = reader.raw(1)[0]
        payload = reader.raw(reader.varint())
        dtype = column.dtype.numpy_dtype()
        if ((tag == TAG_DICT) != (column.dtype is DataType.DICT_STRING)
                or (tag == TAG_DELTA and column.dtype is DataType.FLOAT64)):
            raise TableError(
                f"tag {tag} cannot carry {column.dtype.value} column "
                f"{column.name!r}")
        if tag == TAG_DICT:
            dictionaries[column.name], columns[column.name] = \
                _decode_dictionary_column(payload, num_rows)
        elif tag == TAG_CONST:
            value = decode_varints(payload)
            if value.size != 1:
                raise TableError(
                    f"constant column carries {value.size} values")
            if column.dtype is DataType.FLOAT64:
                fill = value.view(np.float64)[0]
            else:
                fill = _unzigzag(value)[0]
            columns[column.name] = np.full(num_rows, fill, dtype=dtype)
        elif tag == TAG_DELTA:
            stream = decode_varints(payload)
            if stream.size != num_rows or num_rows == 0:
                raise TableError("delta column length mismatch")
            values = np.empty(num_rows, dtype=np.int64)
            values[0] = _unzigzag(stream[:1])[0]
            values[1:] = stream[1:].astype(np.int64)
            columns[column.name] = np.cumsum(values).astype(dtype)
        elif tag == TAG_RAW:
            wire = _wire_dtype(dtype)
            if len(payload) != num_rows * wire.itemsize:
                raise TableError(
                    f"raw column {column.name!r} carries {len(payload)} "
                    f"bytes, expected {num_rows * wire.itemsize}")
            columns[column.name] = np.frombuffer(
                payload, dtype=wire).astype(dtype)
        else:
            raise TableError(f"unknown wire-column tag {tag}")
    reader.finish("the last column")
    return Table(schema, columns, dictionaries)
