"""Compact wire codec for thin tables: the encoder and its exact size.

No engine calls this module.  The engines price every transfer once,
through ``Table.row_bytes`` / ``Table.wire_row_bytes`` × tuples, and
nothing on the data plane encodes, sizes or decodes a frame.  The module
is kept only because ``benchmarks/e2e/layers.py`` (lines 120-122)
patches :func:`encode_table` and :func:`encoded_table_bytes` by name,
and the benchmark is changed on its own; once it drops those two hooks,
this module and ``tests/test_wirecodec.py`` are deleted.

The format, per column:

* **dictionary-id passthrough** — a ``DICT_STRING`` column ships its
  int32 code array plus the utf-8 dictionary once.
* **constant stripping** — a column holding one repeated value is
  encoded as tag + value.
* **sorted-column delta** — non-decreasing integer columns (row ids,
  clustered keys) store zigzag(first) + gaps as LEB128 varints.
* **raw** — anything else, at the column's own width.

:func:`_classify_column` picks each column's tag and
:func:`_varint_lengths` / :func:`_varint_length` price every varint;
:func:`encode_table` and :func:`encoded_table_bytes` both go through
them, and ``tests/test_wirecodec.py`` pins size ≡ ``len(encoding)``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.relational.schema import DataType
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


def _zigzag(values: np.ndarray) -> np.ndarray:
    signed = np.asarray(values, dtype=np.int64)
    return ((signed << 1) ^ (signed >> 63)).astype(np.uint64)


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
    """Encode a whole table (columns in schema order)."""
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
