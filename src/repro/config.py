"""Cluster and cost-model configuration for the hybrid warehouse.

The defaults mirror the experimental setup of the paper (Section 5):

* HDFS cluster: 30 DataNodes (plus a NameNode), 4 data disks each,
  1 Gbit Ethernet between nodes, one JEN worker per DataNode.
* EDW: 5 servers running 6 DB2 DPF workers each (30 workers total),
  10 Gbit Ethernet, 11 data disks per server.
* The two clusters are connected by a 20 Gbit switch.
* Tables: ``T`` is 97 GB / 1.6 B rows in the database; ``L`` is 15 B rows,
  about 1 TB as text and 421 GB as Parquet, on HDFS.
* Bloom filters: 128 M bits (16 MB) with 2 hash functions over 16 M unique
  join keys, i.e. roughly a 5% false-positive rate.

The :class:`CostModel` holds the calibrated throughput constants used by
the time plane (:mod:`repro.sim`).  They are anchored on the two scan
numbers the paper reports directly — a warm 1 TB text scan takes about
240 s and a warm projected Parquet scan about 38 s — and tuned so the
relative behaviour of the join algorithms (who wins where, crossover
points, Bloom-filter benefit) matches the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

#: Number of bytes in one mebibyte; volumes inside the cost model are kept
#: in plain bytes and converted at the edges.
MB = 1024 * 1024
GB = 1024 * MB


@dataclass(frozen=True)
class ClusterConfig:
    """Shape of the two clusters and the interconnect (paper Section 5)."""

    #: HDFS DataNodes; one JEN worker runs on each.
    hdfs_nodes: int = 30
    #: Data disks per DataNode (the paper reserves 1 of 5 for the OS).
    hdfs_disks_per_node: int = 4
    #: HDFS replication factor.
    hdfs_replication: int = 2
    #: HDFS block size in bytes (128 MB, the Hadoop default of the era).
    hdfs_block_size: int = 128 * MB
    #: Total database workers (the paper runs 6 per server on 5 servers).
    db_workers: int = 30
    #: Physical database servers; workers on one server share its NIC.
    db_servers: int = 5
    #: Intra-HDFS NIC speed per node, bytes/s (1 Gbit Ethernet).
    hdfs_nic_bytes_per_s: float = 125.0 * MB
    #: Database NIC speed per server, bytes/s (10 Gbit Ethernet).
    db_nic_bytes_per_s: float = 1250.0 * MB
    #: Inter-cluster switch capacity, bytes/s (20 Gbit).
    switch_bytes_per_s: float = 2500.0 * MB

    def jen_workers(self) -> int:
        """One JEN worker per DataNode, as in the paper."""
        return self.hdfs_nodes


@dataclass(frozen=True)
class BloomFilterConfig:
    """Bloom filter parameters (paper Section 5: 128 M bits, k=2)."""

    #: Number of bits in each filter at paper scale.
    num_bits: int = 128 * 1024 * 1024
    #: Number of hash functions.
    num_hashes: int = 2

    def size_bytes(self) -> int:
        """Serialized size of one filter."""
        return self.num_bits // 8


@dataclass(frozen=True)
class CostModel:
    """Calibrated throughput constants for the time plane.

    All ``*_bytes_per_s`` figures are per participating worker unless noted;
    all ``*_tuples_per_s`` figures are per worker.  The time plane replays a
    measured execution trace against these constants with pipelining, so a
    phase that the paper overlaps (e.g. shuffling while scanning) genuinely
    overlaps in simulated time.
    """

    # --- HDFS scan side (JEN workers) ------------------------------------
    #: Warm text scan throughput per DataNode.  1 TB over 30 nodes in about
    #: 240 s is roughly 140 MB/s per node (paper Section 5.4).
    text_scan_bytes_per_s: float = 140.0 * MB
    #: Warm Parquet throughput per DataNode over the *projected, compressed*
    #: bytes.  The paper reads the needed fields of the 421 GB table in 38 s.
    parquet_scan_bytes_per_s: float = 220.0 * MB
    #: ORC throughput per DataNode over projected, compressed bytes —
    #: slightly slower decode than Parquet+Snappy in this era.
    orc_scan_bytes_per_s: float = 200.0 * MB
    #: Tuple parse/predicate/projection rate of a JEN process thread.  The
    #: paper notes this single thread "is never the bottleneck".
    jen_process_tuples_per_s: float = 30.0e6

    # --- Intra-HDFS shuffle ----------------------------------------------
    #: Effective per-node shuffle goodput.  Far below the 1 Gbit line rate
    #: because records are small and serialized by one process thread.
    shuffle_bytes_per_s: float = 30.0 * MB
    #: Hash-table insert rate per JEN worker (receive threads build as
    #: records arrive, overlapping the shuffle).
    hash_build_tuples_per_s: float = 8.0e6
    #: Hash-table probe rate per JEN worker, including emitting matches.
    #: Multi-core: all receive threads probe in parallel (Section 4.4).
    hash_probe_tuples_per_s: float = 60.0e6
    #: Post-join tuple processing (residual predicate + partial
    #: aggregation) — a tight vectorised loop across all cores.
    jen_agg_tuples_per_s: float = 150.0e6

    # --- Database side ----------------------------------------------------
    #: Table-scan throughput per DB worker over its local partition.
    db_scan_bytes_per_s: float = 220.0 * MB
    #: Index-only access rate (rows/s per worker); used for Bloom-filter
    #: builds and for the second, BF-filtered access in the zigzag join.
    db_index_tuples_per_s: float = 12.0e6
    #: Index + RID base-table fetch rate (rows/s per worker): the plan the
    #: database optimizer picks for highly selective local predicates.
    db_rid_fetch_tuples_per_s: float = 0.1e6
    #: Rate at which one DB worker can push rows out through the UDF-based
    #: socket path.  This is the paper's deliberately constrained EDW export
    #: (the DPF cluster is "purposely allocated less resources ... to mimic
    #: the case that the database is more heavily utilized", Section 5).
    db_export_tuples_per_s: float = 0.032e6
    #: Marginal cost of each *additional* copy of an exported row (the
    #: broadcast join writes one serialized buffer to many sockets, so
    #: extra copies are cheaper than first serializations).
    export_copy_factor: float = 0.5
    #: Rate at which one DB worker ingests rows arriving from JEN.  Remote
    #: ingest through UDFs is the bottleneck of the DB-side join.
    db_ingest_tuples_per_s: float = 0.15e6
    #: In-database join + aggregation throughput per worker (rows of the
    #: build+probe inputs plus output pairs processed per second).
    db_join_tuples_per_s: float = 12.0e6
    #: In-database reshuffle goodput per worker (10 Gbit NICs shared by six
    #: workers per server, minus serialization overhead).
    db_shuffle_bytes_per_s: float = 80.0 * MB

    #: Disk write/read bandwidth per JEN worker available to spilled
    #: join fragments (Grace-hash spilling, the paper's future work).
    jen_spill_bytes_per_s: float = 200.0 * MB

    # --- Bloom filters ----------------------------------------------------
    #: Insert rate into a Bloom filter, per worker (both sides).
    bf_build_tuples_per_s: float = 25.0e6
    #: Probe rate against a Bloom filter, per worker.
    bf_probe_tuples_per_s: float = 40.0e6

    # --- Fixed latencies ---------------------------------------------------
    #: Query startup: UDF invocation, coordinator handshakes, connection
    #: establishment between DB2 workers and JEN workers (paper Fig. 5).
    startup_seconds: float = 2.0
    #: Returning the small final aggregate to the database side.
    result_return_seconds: float = 0.5

    def scan_bytes_per_s(self, format_name: str) -> float:
        """Warm scan throughput per DataNode for a storage format
        (an unknown format scans at the text rate)."""
        return {
            "parquet": self.parquet_scan_bytes_per_s,
            "orc": self.orc_scan_bytes_per_s,
        }.get(format_name, self.text_scan_bytes_per_s)


@dataclass(frozen=True)
class PaperScale:
    """Logical dataset sizes at full paper scale (Section 5, "Dataset")."""

    #: Rows in the database transaction table T.
    t_rows: int = 1_600_000_000
    #: Rows in the HDFS log table L.
    l_rows: int = 15_000_000_000
    #: Unique join keys shared by the two tables.
    unique_join_keys: int = 16_000_000
    #: Bytes per T row in database storage (97 GB / 1.6 B rows).
    t_row_bytes: float = 65.0
    #: Bytes per L row in text format (about 1 TB / 15 B rows).
    l_text_row_bytes: float = 71.0
    #: Bytes per L row in Parquet with Snappy (421 GB / 15 B rows).
    l_parquet_row_bytes: float = 30.0


@dataclass(frozen=True)
class HybridConfig:
    """Top-level configuration bundle used across the library.

    ``scale`` is the fraction of paper-scale data the in-process data plane
    actually materialises.  The time plane divides measured volumes by
    ``scale`` before replaying them, so simulated times always refer to the
    full paper-scale experiment regardless of how much data a test or
    benchmark chooses to generate.
    """

    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    cost: CostModel = field(default_factory=CostModel)
    bloom: BloomFilterConfig = field(default_factory=BloomFilterConfig)
    paper: PaperScale = field(default_factory=PaperScale)
    #: Data-plane scale factor: 1.0 means full paper scale (do not do this
    #: in-process); the default materialises one ten-thousandth.
    scale: float = 1.0 / 10_000.0
    #: Hottest-shuffle-receiver load relative to the mean, at paper
    #: scale (1.0 = the paper's uniform keys).  Set from
    #: :func:`repro.workload.generator.zipf_skew_factor` when running the
    #: skewed-key extension; the time plane gates shuffles and hash
    #: builds on the hottest worker.
    shuffle_skew: float = 1.0
    #: Per-worker in-memory build-side limit for JEN's local hash join,
    #: in *paper-scale* rows.  Zero (the default) means unlimited — the
    #: paper's current JEN; a positive budget enables the Grace-hash
    #: spilling of :mod:`repro.jen.spill`.
    jen_memory_budget_rows: float = 0.0

    def scaled(self, scale: float) -> "HybridConfig":
        """Return a copy of this configuration with a new data-plane scale."""
        return replace(self, scale=scale)

    def t_rows(self) -> int:
        """Rows of T to materialise at the configured scale."""
        return max(1, int(self.paper.t_rows * self.scale))

    def l_rows(self) -> int:
        """Rows of L to materialise at the configured scale."""
        return max(1, int(self.paper.l_rows * self.scale))

    def join_keys(self) -> int:
        """Unique join keys at the configured scale."""
        return max(1, int(self.paper.unique_join_keys * self.scale))

    def bloom_bits(self) -> int:
        """Bloom filter bits scaled with the key universe.

        At paper scale this is the 128 M bits / 2 hashes configuration of
        Section 5; at reduced data-plane scale the filter shrinks with the
        key universe so the false-positive rate is preserved.
        """
        bits = int(self.bloom.num_bits * self.scale)
        return max(1024, bits)


def default_config(scale: float = 1.0 / 10_000.0) -> HybridConfig:
    """Build the paper's default configuration at the given data scale."""
    return HybridConfig(scale=scale)
