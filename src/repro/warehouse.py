"""The hybrid warehouse: one EDW plus one HDFS/JEN cluster.

:class:`HybridWarehouse` is the top-level object users construct: it
wires the parallel database, the simulated HDFS file system, the JEN
engine, the network topology and the UDF registry together, and is what
the join algorithms and the advisor operate on.
"""

from __future__ import annotations

from typing import Optional

from repro.config import HybridConfig, default_config
from repro.edw.database import ParallelDatabase
from repro.edw.udf import UdfRegistry, default_udf_registry
from repro.hdfs.filesystem import HdfsFileSystem
from repro.jen.engine import Jen
from repro.net.topology import HybridTopology, default_topology
from repro.relational.table import Table


class HybridWarehouse:
    """An EDW and an HDFS cluster federated at the engine level."""

    def __init__(self, config: Optional[HybridConfig] = None,
                 jen_locality: bool = True):
        self.config = config or default_config()
        self.database = ParallelDatabase(self.config.cluster)
        self.hdfs = HdfsFileSystem(self.config.cluster)
        self.jen = Jen(self.hdfs, self.config, locality=jen_locality)
        self.topology: HybridTopology = default_topology(self.config.cluster)
        self.udfs: UdfRegistry = default_udf_registry()
        self.udfs.register("read_hdfs", self._read_hdfs)

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def load_db_table(self, name: str, table: Table,
                      distribute_on: str) -> None:
        """Load a table into the parallel database."""
        self.database.create_table(name, table, distribute_on)

    def load_hdfs_table(self, name: str, table: Table,
                        format_name: str = "parquet",
                        path: Optional[str] = None) -> None:
        """Write a table into HDFS and register it with HCatalog.

        The block count is kept representative of paper scale (the table
        at full size split into 128 MB blocks), capped at eight blocks
        per DataNode so the reduced data plane stays fast — enough for
        the locality-aware scheduler and failure re-planning to behave
        as they would on the real cluster.
        """
        from repro.hdfs.formats import format_by_name

        storage_format = format_by_name(format_name)
        paper_bytes = (
            storage_format.row_stored_bytes(table.schema)
            * table.num_rows / self.config.scale
        )
        paper_blocks = max(
            1, int(paper_bytes / self.config.cluster.hdfs_block_size)
        )
        target_blocks = min(
            paper_blocks, 8 * self.config.cluster.hdfs_nodes,
            table.num_rows,
        )
        self.hdfs.write_table(
            name, path or f"/warehouse/{name}", table, format_name,
            target_blocks=target_blocks,
        )

    # ------------------------------------------------------------------
    # Fault injection (chaos runs)
    # ------------------------------------------------------------------
    def arm_faults(self, plan, seed: int = 11):
        """Arm a :class:`~repro.faults.FaultPlan` (or spec string) on the
        JEN engine; see :meth:`repro.jen.engine.Jen.arm_faults`."""
        return self.jen.arm_faults(plan, seed=seed)

    def disarm_faults(self) -> None:
        """Drop the armed fault plan and restore full worker strength."""
        self.jen.disarm_faults()
        self.jen.restore_workers()

    # ------------------------------------------------------------------
    # Convenience accessors (tests, reference runs)
    # ------------------------------------------------------------------
    def gather_db_table(self, name: str) -> Table:
        """All rows of a database table in one in-memory table."""
        return self.database.gather_table(name)

    def gather_hdfs_table(self, name: str) -> Table:
        """All rows of an HDFS table in one in-memory table."""
        return self.hdfs.file_table(name)

    # ------------------------------------------------------------------
    # The read_hdfs table UDF (paper Section 4.1.1)
    # ------------------------------------------------------------------
    def _read_hdfs(self, table_name: str, predicate_sql: str = "",
                   columns=None, bloom=None, key_column: str = None
                   ) -> Table:
        """The paper's ``read_hdfs`` table UDF.

        Pushes the table name, a SQL predicate fragment, the projected
        columns, an optional database Bloom filter and its join-key
        column down to the JEN workers, which scan, filter and return
        the surviving rows — the exact contract of the UDF that drives
        the DB-side join in the paper's example statement.

        Registered on ``warehouse.udfs`` as ``"read_hdfs"``.
        """
        from repro.jen.worker import ScanRequest
        from repro.sql.predicates import predicate_from_sql

        meta = self.hdfs.table_meta(table_name)
        predicate = predicate_from_sql(predicate_sql, meta.schema,
                                       self.udfs)
        if columns is None:
            names = tuple(meta.schema.names)
        elif isinstance(columns, str):
            names = tuple(
                name.strip() for name in columns.split(",") if name.strip()
            )
        else:
            names = tuple(columns)
        request = ScanRequest(
            predicate=predicate,
            projection=names,
            derived=(),
            wire_columns=names,
            join_key=key_column,
        )
        scan = self.jen.scan_with_request(table_name, request,
                                          db_bloom=bloom)
        return Table.concat(scan.wire_tables)
