"""Late materialization: thin wire tables + deferred payload stitching.

The paper's algorithms all exist to shrink what crosses the EDW<->HDFS
boundary, yet a classic row-shipping execution still moves *full
payload rows* through every shuffle and export even though only the
join keys decide matches.  This package adds the late-materialization
discipline on top of the existing engines:

1. **Thin** — just before a transfer edge (the agreed-hash shuffle, a
   DB export, a broadcast), the full wire tables are swapped for thin
   ``(join_key, origin_rowid)`` tables.  The full rows stay behind in a
   :class:`PayloadStore` on the producing side, addressable by a
   store-global row id.
2. **Prune** — on the receiving side each worker slot drops thin rows
   whose key cannot match the other side of its local join (an exact
   semi-join against the co-partitioned keys), so only *surviving*
   rows pay for payload.
3. **Stitch** — surviving row ids are batched back to the payload
   store and the full rows are fetched (``Table.take`` — a real
   rowid-indexed gather).  The stitched full tables then flow through
   the unchanged local-join machinery, so results are row-identical to
   the classic path by construction: pruned rows could never have
   produced join output, and the final aggregates are
   order-insensitive.

On the time plane the stitch is priced honestly as ``payload_fetch``
phases over the same NICs the shuffle/export used, inflated by the
fetch-amplification model below: scattered row ids touch whole pages
(:data:`PAGE_ROWS` rows) on the store side, so a sparse fetch reads
more bytes than it returns.

Everything is gated behind :func:`set_late_materialization_enabled`,
which only this module reads (:func:`transfer_edge`), so before/after
comparisons run genuinely identical code paths with only the wire
discipline swapped.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.query.plan import needed_wire_columns
from repro.query.query import HybridQuery
from repro.relational.schema import Column, DataType, Schema
from repro.relational.table import Table

_ENABLED = False

#: Name of the synthetic origin-rowid column thin wire tables carry.
ROWID_COLUMN = "__rowid__"

#: Store-side fetch granularity: a batched payload fetch reads whole
#: pages of this many rows, so scattered row ids amplify the fetched
#: volume (see :func:`fetch_amplification`).
PAGE_ROWS = 64

#: Wire width of the rowid component of a thin row (int64).
ROWID_BYTES = 8


def late_materialization_enabled() -> bool:
    """Whether thin shuffles/exports + payload stitching are active."""
    return _ENABLED


def set_late_materialization_enabled(enabled: bool) -> bool:
    """Toggle late materialization (benchmark/testkit switch).

    Returns the previous setting so callers can restore it.
    """
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(enabled)
    return previous


def fetch_amplification(rowids: np.ndarray) -> float:
    """Fetched-bytes inflation for a batch of scattered row ids.

    The store serves fetches in pages of :data:`PAGE_ROWS` rows, so a
    batch touching ``p`` distinct pages reads ``p * PAGE_ROWS`` rows to
    return ``len(rowids)`` of them.  Dense batches (every page fully
    used) cost 1.0; a fully scattered batch degrades to
    :data:`PAGE_ROWS`.
    """
    rowids = np.asarray(rowids)
    if rowids.size == 0:
        return 1.0
    pages = np.unique(rowids // PAGE_ROWS)
    touched = pages.size * PAGE_ROWS
    return float(min(PAGE_ROWS, max(1.0, touched / rowids.size)))


class PayloadStore:
    """Origin-side full wire tables, addressable by a global row id.

    ``tables`` are the per-producer full wire tables (one per scan
    worker, or the single broadcast table); row ids are global offsets
    into their concatenation, so a thin row can name its payload row no
    matter which worker slot it lands on after the shuffle.
    """

    def __init__(self, tables: Sequence[Table], key: str):
        self.tables: List[Table] = list(tables)
        self.key = key
        counts = [table.num_rows for table in self.tables]
        self._offsets = np.concatenate(
            [[0], np.cumsum(counts)]).astype(np.int64)
        self.num_rows = int(self._offsets[-1])
        self._concat: Optional[Table] = None

    @property
    def schema(self) -> Schema:
        """Schema of the stored full rows."""
        return self.tables[0].schema

    def payload_names(self) -> List[str]:
        """The columns a fetch ships (everything but the key)."""
        return [name for name in self.schema.names if name != self.key]

    def payload_row_bytes(self) -> float:
        """Wire bytes of one fetched payload row.

        The fetch ships the payload columns (dictionary columns travel
        as ids — the compact wire's passthrough) plus the rowid
        needed to align the row with its thin twin.
        """
        return (self.tables[0].wire_row_bytes(self.payload_names())
                + ROWID_BYTES)

    def thin_tables(self) -> List[Table]:
        """One ``(key, rowid)`` thin table per stored producer table."""
        thin = []
        for index, table in enumerate(self.tables):
            base = int(self._offsets[index])
            rowids = np.arange(
                base, base + table.num_rows, dtype=np.int64)
            thin.append(thin_table(table, self.key, rowids))
        return thin

    def payload_table(self) -> Table:
        """All stored rows as one table (cached).

        The producer tables are splits of one scan/filter output, so
        their dictionary arrays are identical and
        :meth:`Table.concat` applies.
        """
        if self._concat is None:
            self._concat = Table.concat(self.tables) if self.tables \
                else Table.empty(self.schema)
        return self._concat

    def fetch(self, rowids: np.ndarray) -> Table:
        """Gather the full rows for ``rowids`` (in the given order)."""
        return self.payload_table().take(np.asarray(rowids,
                                                    dtype=np.int64))


def thin_table(table: Table, key: str, rowids: np.ndarray) -> Table:
    """The ``(key, rowid)`` thin twin of ``table``."""
    key_column = table.schema.column(key)
    schema = Schema([key_column, Column(ROWID_COLUMN, DataType.INT64)])
    columns = {key: table.column(key), ROWID_COLUMN: rowids}
    dictionaries = {}
    if key_column.dtype is DataType.DICT_STRING:
        dictionaries[key] = table.dictionary(key)
    return Table(schema, columns, dictionaries)


def is_thin(table: Table) -> bool:
    """Whether ``table`` is a thin ``(key, rowid)`` wire table."""
    return table.schema.has_column(ROWID_COLUMN)


def thin_for_transfer(tables: Sequence[Table], key: str,
                      needed: Optional[Sequence[str]] = None,
                      ) -> Optional[PayloadStore]:
    """A :class:`PayloadStore` for ``tables``, or ``None`` to pass.

    ``needed`` (from :func:`repro.query.plan.needed_wire_columns`) is
    the set of columns the downstream pipeline provably reads; columns
    outside it are dropped from the store before anything travels, so
    dead payload never crosses the network even during the stitch.

    Thinning is declined when the mode is off, the tables are already
    thin, the key is missing, or the (needed) payload is so narrow that
    a ``(key, rowid)`` row would not be smaller than the full row — the
    toggle then degrades to a no-op rather than a pessimisation.
    """
    if not late_materialization_enabled():
        return None
    tables = list(tables)
    if not tables:
        return None
    schema = tables[0].schema
    if not schema.has_column(key) or schema.has_column(ROWID_COLUMN):
        return None
    if needed is not None:
        kept = [
            name for name in schema.names
            if name == key or name in set(needed)
        ]
        if len(kept) < len(schema.names):
            tables = [table.project(kept) for table in tables]
            schema = tables[0].schema
    payload_names = [name for name in schema.names if name != key]
    if not payload_names:
        return None
    thin_bytes = tables[0].wire_row_bytes([key]) + ROWID_BYTES
    if tables[0].wire_row_bytes() <= thin_bytes:
        return None
    return PayloadStore(tables, key)


def transfer_edge(tables: Sequence[Table], query: HybridQuery, side: str,
                  ) -> Tuple[Optional[PayloadStore], List[Table], float]:
    """What one transfer edge ships, and the price of a row of it.

    ``side`` is ``"hdfs"`` for L's rows and ``"db"`` for T's.  Returns
    ``(store, tables_to_ship, row_bytes)``.  When
    :func:`thin_for_transfer` thins the edge, the store keeps the
    payloads and thin ``(key, rowid)`` twins travel; otherwise the store
    is ``None`` and ``tables`` travel as they are.  While late
    materialization is on a row is priced at
    :meth:`Table.wire_row_bytes` (dictionary columns as ids), else at
    its logical :meth:`Table.row_bytes`.
    """
    key = query.hdfs_join_key if side == "hdfs" else query.db_join_key
    store = thin_for_transfer(
        tables, key, needed=needed_wire_columns(query, side))
    ship = list(tables) if store is None else store.thin_tables()
    if late_materialization_enabled():
        return store, ship, ship[0].wire_row_bytes()
    return store, ship, float(ship[0].row_bytes())


@dataclass
class StitchStats:
    """Volume accounting of one stitch (filled by the engine)."""

    #: Thin rows that arrived at the join (before pruning), per side.
    l_thin_tuples: int = 0
    t_thin_tuples: int = 0
    #: Surviving rows whose payloads were fetched, per side.
    l_fetched_tuples: int = 0
    t_fetched_tuples: int = 0
    #: Tuple-weighted fetch amplification actually measured, per side.
    l_amplification: float = 1.0
    t_amplification: float = 1.0

    def merge_side(self, side: str, thin: int, fetched: int,
                   touched_rows: int) -> None:
        """Accumulate one slot's prune/fetch numbers for ``side``."""
        if side == "l":
            self.l_thin_tuples += thin
            self.l_fetched_tuples += fetched
            self._l_touched = getattr(self, "_l_touched", 0) + touched_rows
            if self.l_fetched_tuples:
                self.l_amplification = float(min(PAGE_ROWS, max(
                    1.0, self._l_touched / self.l_fetched_tuples)))
        else:
            self.t_thin_tuples += thin
            self.t_fetched_tuples += fetched
            self._t_touched = getattr(self, "_t_touched", 0) + touched_rows
            if self.t_fetched_tuples:
                self.t_amplification = float(min(PAGE_ROWS, max(
                    1.0, self._t_touched / self.t_fetched_tuples)))


@dataclass
class LateMatPlan:
    """What :meth:`repro.jen.engine.Jen.join_and_aggregate` needs to
    stitch thin worker parts back into full rows before joining.

    Either side may be ``None`` (that side travelled full-width — e.g.
    the broadcast join only thins T').
    """

    l_store: Optional[PayloadStore] = None
    t_store: Optional[PayloadStore] = None
    stats: StitchStats = field(default_factory=StitchStats)

    def active(self) -> bool:
        """Whether any side needs stitching."""
        return self.l_store is not None or self.t_store is not None

    # ------------------------------------------------------------------
    def stitch(self, l_parts: List[Table], t_parts: List[Table],
               l_key: str, t_key: str,
               ) -> Tuple[List[Table], List[Table]]:
        """Prune + fetch every worker slot; returns full-row parts.

        Per slot the thin side is pruned by an exact semi-join against
        the co-partitioned other side (a pruned row's key appears
        nowhere it could probe or be probed, so it cannot contribute
        join output), then the survivors' payloads are gathered from
        the stores.  Both sides prune against the *arriving* parts.
        """
        stitched_l = _stitch_side(
            self.l_store, l_parts, l_key,
            (part.column(t_key) for part in t_parts), self.stats, "l")
        stitched_t = _stitch_side(
            self.t_store, t_parts, t_key,
            (part.column(l_key) for part in l_parts), self.stats, "t")
        return stitched_l, stitched_t


def _stitch_side(store: Optional[PayloadStore], parts: List[Table],
                 key: str, other_keys: Iterable[np.ndarray],
                 stats: StitchStats, side: str) -> List[Table]:
    """Prune each thin part against its key set, fetch the survivors.

    ``other_keys`` yields one key set per part.  Full-width parts (and
    every part when ``store`` is ``None``) pass through untouched.
    """
    stitched: List[Table] = []
    for part, keys in zip(parts, other_keys):
        if store is None or not is_thin(part):
            stitched.append(part)
            continue
        keep = np.isin(part.column(key), keys)
        # Sorted batches make the store-side access pattern sequential.
        rowids = np.sort(part.column(ROWID_COLUMN)[keep])
        touched = int(np.unique(rowids // PAGE_ROWS).size * PAGE_ROWS) \
            if rowids.size else 0
        stats.merge_side(side, part.num_rows, int(rowids.size), touched)
        stitched.append(store.fetch(rowids))
    return stitched


def stitch_parts(store: Optional[PayloadStore], parts: List[Table],
                 key: str, other_keys: np.ndarray, stats: StitchStats,
                 side: str = "l") -> List[Table]:
    """Prune thin ``parts`` against an exact key set, fetch payloads.

    The DB-side joins use this: the other side of the join is not
    co-partitioned with the ingested thin parts (grouped ingest has no
    hash alignment, and the database may reshuffle internally), so each
    part is pruned against the *global* key set of the other side —
    exact and safe no matter which internal strategy the database
    optimizer picks.  Returns full-row parts; non-thin parts pass
    through untouched.
    """
    return _stitch_side(store, parts, key,
                        itertools.repeat(np.asarray(other_keys)), stats,
                        side)


__all__ = [
    "LateMatPlan",
    "PAGE_ROWS",
    "PayloadStore",
    "ROWID_BYTES",
    "ROWID_COLUMN",
    "StitchStats",
    "fetch_amplification",
    "is_thin",
    "late_materialization_enabled",
    "set_late_materialization_enabled",
    "thin_for_transfer",
    "thin_table",
    "transfer_edge",
]
