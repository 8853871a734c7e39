"""Selectivity measurement: the paper's σ and S quantities.

The paper parameterises every experiment by four numbers:

* ``sigma_t`` — tuple selectivity of the local predicates on T;
* ``sigma_l`` — tuple selectivity of the local predicates on L;
* ``s_t`` (written S_T′) — the fraction of *distinct join keys* of the
  filtered T that also occur in the filtered L;
* ``s_l`` (S_L′) — symmetric, for the filtered L.

This module measures all four from actual tables; the workload
generator's property tests check the measured values hit the requested
specification, and the advisor consumes the same report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.advisor import WorkloadEstimate
from repro.relational.table import Table
from repro.query.query import HybridQuery

#: Rows sampled from each side for selectivity estimation.
SAMPLE_ROWS = 20_000


@dataclass(frozen=True)
class SelectivityReport:
    """Measured selectivities of one (T, L, query) triple."""

    t_rows: int
    l_rows: int
    t_filtered_rows: int
    l_filtered_rows: int
    t_distinct_keys: int
    l_distinct_keys: int
    common_keys: int

    @property
    def sigma_t(self) -> float:
        """Tuple selectivity of the T local predicates."""
        return self.t_filtered_rows / self.t_rows if self.t_rows else 0.0

    @property
    def sigma_l(self) -> float:
        """Tuple selectivity of the L local predicates."""
        return self.l_filtered_rows / self.l_rows if self.l_rows else 0.0

    @property
    def s_t(self) -> float:
        """Join-key selectivity on the filtered T (the paper's S_T′)."""
        return (
            self.common_keys / self.t_distinct_keys
            if self.t_distinct_keys else 0.0
        )

    @property
    def s_l(self) -> float:
        """Join-key selectivity on the filtered L (the paper's S_L′)."""
        return (
            self.common_keys / self.l_distinct_keys
            if self.l_distinct_keys else 0.0
        )

    def describe(self) -> str:
        """One-line summary in the paper's notation."""
        return (
            f"sigma_T={self.sigma_t:.4f} sigma_L={self.sigma_l:.4f} "
            f"S_T'={self.s_t:.4f} S_L'={self.s_l:.4f} "
            f"(|JK(T')|={self.t_distinct_keys}, "
            f"|JK(L')|={self.l_distinct_keys}, "
            f"overlap={self.common_keys})"
        )


def measure_selectivities(
    t_table: Table,
    l_table: Table,
    query: HybridQuery,
) -> SelectivityReport:
    """Measure σ_T, σ_L, S_T′ and S_L′ for a query over real tables."""
    t_mask = query.db_predicate.evaluate(t_table)
    l_mask = query.hdfs_predicate.evaluate(l_table)
    t_keys = np.unique(t_table.column(query.db_join_key)[t_mask])
    l_keys = np.unique(l_table.column(query.hdfs_join_key)[l_mask])
    common = np.intersect1d(t_keys, l_keys, assume_unique=True)
    return SelectivityReport(
        t_rows=t_table.num_rows,
        l_rows=l_table.num_rows,
        t_filtered_rows=int(t_mask.sum()),
        l_filtered_rows=int(l_mask.sum()),
        t_distinct_keys=len(t_keys),
        l_distinct_keys=len(l_keys),
        common_keys=len(common),
    )


def sample_workload_estimate(warehouse, query: HybridQuery,
                             sample_rows: int = SAMPLE_ROWS
                             ) -> WorkloadEstimate:
    """Sample-based selectivity estimation for the advisor.

    Samples a slice of each table, applies the local predicates, and
    measures tuple selectivities and join-key overlap — the statistics
    a database optimizer would read from its catalog.  Shared by the
    SQL session's auto mode and the adaptive plane (which needs a base
    estimate without standing up a session).
    """
    db_meta = warehouse.database.table_meta(query.db_table)
    hdfs_meta = warehouse.hdfs.table_meta(query.hdfs_table)
    scale_up = 1.0 / warehouse.config.scale

    partition = warehouse.database.workers[0].partition(query.db_table)
    t_sample = partition.slice(0, min(sample_rows, partition.num_rows))
    blocks = warehouse.hdfs.table_blocks(query.hdfs_table)
    rows = warehouse.hdfs.read_block(blocks[0])
    l_sample = rows.slice(0, min(sample_rows, rows.num_rows))

    t_mask = query.db_predicate.evaluate(t_sample)
    l_mask = query.hdfs_predicate.evaluate(l_sample)
    sigma_t = max(float(t_mask.mean()), 1e-5)
    sigma_l = max(float(l_mask.mean()), 1e-5)
    t_keys = np.unique(t_sample.column(query.db_join_key)[t_mask])
    l_keys = np.unique(l_sample.column(query.hdfs_join_key)[l_mask])
    common = len(np.intersect1d(t_keys, l_keys, assume_unique=True))
    s_t = common / len(t_keys) if len(t_keys) else 1.0
    s_l = common / len(l_keys) if len(l_keys) else 1.0

    storage_format = hdfs_meta.storage_format()
    l_scan_bytes = storage_format.scan_bytes_per_row(
        hdfs_meta.schema, list(query.hdfs_projection)
    )
    return WorkloadEstimate(
        t_rows=db_meta.num_rows * scale_up,
        l_rows=hdfs_meta.num_rows * scale_up,
        sigma_t=sigma_t,
        sigma_l=sigma_l,
        s_t=max(s_t, 1e-4),
        s_l=max(s_l, 1e-4),
        t_wire_bytes=db_meta.schema.row_width(
            list(query.db_projection)
        ),
        l_wire_bytes=hdfs_meta.schema.row_width(
            list(query.hdfs_projection)
        ),
        l_scan_bytes=l_scan_bytes,
        format_name=hdfs_meta.format_name,
    )
