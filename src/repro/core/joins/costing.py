"""Pricing measured volumes into paper-scale phase durations.

The data plane runs at a reduced scale (``HybridConfig.scale``); every
count it measures is multiplied back up before being divided by the
calibrated throughputs of :class:`~repro.config.CostModel`.  One
:class:`JoinCosting` instance is shared by all phases of one run, so the
scale factor and topology cannot drift within a trace.

All methods return **seconds at paper scale**.
"""

from __future__ import annotations

from typing import Optional

from repro.config import HybridConfig
from repro.net.topology import HybridTopology, default_topology
from repro.net.transfer import shuffle_seconds

#: Residual receiver imbalance a hybrid shuffle still pays when no
#: measured balance is available: the cold tail is hash-balanced and the
#: hot keys are spread/broadcast, so the hottest receiver ends within
#: ~50% of the mean regardless of how extreme the key distribution is.
HYBRID_SHUFFLE_SKEW_CAP = 1.5


class JoinCosting:
    """Converts raw data-plane volumes into simulated phase durations."""

    def __init__(self, config: HybridConfig,
                 topology: HybridTopology = None):
        self.config = config
        self.cost = config.cost
        self.cluster = config.cluster
        self.topology = topology or default_topology(config.cluster)
        #: Multiplier from data-plane counts to paper-scale counts.
        self.scale_up = 1.0 / config.scale
        self._n = self.cluster.jen_workers()
        self._m = self.cluster.db_workers

    # ------------------------------------------------------------------
    # Fixed latencies
    # ------------------------------------------------------------------
    def startup_seconds(self) -> float:
        """Coordinator handshakes and DB↔JEN connection setup (Fig. 5)."""
        return self.cost.startup_seconds

    def result_return_seconds(self) -> float:
        """Shipping the small final aggregate back to the database."""
        return self.cost.result_return_seconds

    # ------------------------------------------------------------------
    # Database side
    # ------------------------------------------------------------------
    def db_table_scan_seconds(self, raw_bytes: float,
                              raw_matched_rows: Optional[float] = None,
                              index_available: bool = False) -> float:
        """Applying the local predicates on T across the DB workers.

        With an index covering the predicate columns the database
        optimizer can switch to an index + RID-fetch plan, which wins
        for very selective predicates — this is what keeps the broadcast
        join's tiny-σ_T case from paying a full table scan.
        """
        scaled = raw_bytes * self.scale_up
        scan_time = scaled / (self._m * self.cost.db_scan_bytes_per_s)
        if not index_available or raw_matched_rows is None:
            return scan_time
        fetch_time = (raw_matched_rows * self.scale_up
                      / (self._m * self.cost.db_rid_fetch_tuples_per_s))
        return min(scan_time, fetch_time)

    def db_bloom_build_seconds(self, raw_entry_bytes: float,
                               raw_keys: float,
                               index_only: bool) -> float:
        """Local BF builds on every DB worker plus the OR-merge.

        Index-only plans read compact index entries; otherwise the build
        rides on the base-table scan already priced separately and only
        the hashing cost remains.
        """
        hash_cost = (raw_keys * self.scale_up
                     / (self._m * self.cost.bf_build_tuples_per_s))
        if not index_only:
            return hash_cost
        read_cost = (raw_entry_bytes * self.scale_up
                     / (self._m * self.cost.db_scan_bytes_per_s))
        return read_cost + hash_cost

    def db_second_access_seconds(self, raw_rows: float) -> float:
        """Re-access T′ to apply BF_H (zigzag step 5): index-assisted."""
        scaled = raw_rows * self.scale_up
        index_time = scaled / (self._m * self.cost.db_index_tuples_per_s)
        probe_time = scaled / (self._m * self.cost.bf_probe_tuples_per_s)
        return index_time + probe_time

    def db_export_seconds(self, raw_tuples: float, row_bytes: float,
                          copies: int = 1) -> float:
        """DB workers pushing rows out through the UDF socket path.

        ``copies`` > 1 models the broadcast join, where each worker sends
        its partition to every JEN worker.  The bottleneck is the larger
        of the per-worker export rate and the inter-cluster network.
        """
        base_tuples = raw_tuples * self.scale_up
        # First copy pays full serialization; additional copies reuse the
        # serialized buffer and only pay the socket write.
        effective = base_tuples * (
            1.0 + (copies - 1) * self.cost.export_copy_factor
        )
        volume = base_tuples * copies * row_bytes
        export_time = effective / (self._m * self.cost.db_export_tuples_per_s)
        return self._cross_cluster_seconds(export_time, volume, to_db=False)

    def db_ingest_seconds(self, raw_tuples: float, row_bytes: float) -> float:
        """HDFS rows arriving into the database through UDF readers."""
        tuples = raw_tuples * self.scale_up
        volume = tuples * row_bytes
        ingest_time = tuples / (self._m * self.cost.db_ingest_tuples_per_s)
        return self._cross_cluster_seconds(ingest_time, volume, to_db=True)

    def _cross_cluster_seconds(self, serve_time: float, volume: float,
                               to_db: bool) -> float:
        """The slower of the endpoints' serve time and ``volume`` over
        the inter-cluster link, EDW->JEN (HDFS->EDW when ``to_db``)."""
        if to_db:
            network = self.topology.inter_cluster_bandwidth(
                senders=self._n,
                receivers=self.cluster.db_servers,
                sender_side="hdfs",
            )
        else:
            network = self.topology.inter_cluster_bandwidth(
                senders=self.cluster.db_servers,
                receivers=self._n,
                sender_side="db",
            )
        return max(serve_time, volume / network)

    def db_internal_shuffle_seconds(self, raw_bytes: float) -> float:
        """Reshuffling rows among DB workers (the optimizer's plan)."""
        scaled = raw_bytes * self.scale_up
        return scaled / (self._m * self.cost.db_shuffle_bytes_per_s)

    def db_join_seconds(self, raw_input_tuples: float,
                        raw_output_tuples: float) -> float:
        """In-database hash join plus aggregation."""
        scaled = (raw_input_tuples + raw_output_tuples) * self.scale_up
        return scaled / (self._m * self.cost.db_join_tuples_per_s)

    # ------------------------------------------------------------------
    # Bloom filter movement (paper-scale 16 MB filters)
    # ------------------------------------------------------------------
    def bloom_bytes(self) -> float:
        """Serialized size of one filter at paper scale."""
        return float(self.config.bloom.size_bytes())

    def bloom_to_jen_seconds(self) -> float:
        """Multicasting BF_DB to every JEN worker (Fig. 5 pattern)."""
        volume = self.bloom_bytes() * self._n
        return volume / self.topology.switch_bytes_per_s

    def bloom_merge_intra_jen_seconds(self) -> float:
        """Local BF_H filters converging on the designated worker."""
        volume = self.bloom_bytes() * max(0, self._n - 1)
        return volume / self.topology.hdfs.nic_bytes_per_s

    def bloom_to_db_seconds(self) -> float:
        """Designated JEN worker broadcasting BF_H to all DB workers."""
        volume = self.bloom_bytes() * self._m
        return volume / min(
            self.topology.hdfs.nic_bytes_per_s,
            self.topology.switch_bytes_per_s,
        )

    # ------------------------------------------------------------------
    # HDFS side
    # ------------------------------------------------------------------
    def hdfs_scan_seconds(self, raw_stored_bytes: float, raw_rows: float,
                          format_name: str,
                          remote_fraction: float = 0.0) -> float:
        """Format-aware distributed scan: max of I/O and process thread.

        ``remote_fraction`` is the share of blocks read over the network
        instead of a local replica; remote reads are capped by the 1 Gbit
        NIC, which is what the locality-aware scheduler (Section 4.2)
        exists to avoid.
        """
        rate = self.cost.scan_bytes_per_s(format_name)
        remote_rate = min(rate, self.topology.hdfs.nic_bytes_per_s)
        scaled = raw_stored_bytes * self.scale_up
        local_bytes = scaled * (1.0 - remote_fraction)
        remote_bytes = scaled * remote_fraction
        io_time = (local_bytes / (self._n * rate)
                   + remote_bytes / (self._n * remote_rate))
        cpu_time = (raw_rows * self.scale_up
                    / (self._n * self.cost.jen_process_tuples_per_s))
        return max(io_time, cpu_time)

    def jen_shuffle_seconds(self, raw_tuples: float, row_bytes: float,
                            skew: float = 1.0) -> float:
        """All-to-all shuffle of wire rows among JEN workers.

        ``skew`` is the ratio of the most-loaded receiver's volume to the
        mean (1.0 for uniform keys): the shuffle finishes when the hottest
        worker has received everything addressed to it.
        """
        volume = raw_tuples * self.scale_up * row_bytes
        balanced = shuffle_seconds(
            volume, self.topology, self._n, self.cost.shuffle_bytes_per_s
        )
        return balanced * max(1.0, skew)

    def effective_shuffle_skew(self, configured: float,
                               hybrid: bool = False,
                               measured: Optional[float] = None) -> float:
        """The skew multiplier the shuffle/build phases actually pay.

        Hash-only runs pay the configured (analytic) factor — the
        hottest key's whole mass lands on one receiver.  A hybrid
        shuffle spreads that mass, so the factor is capped: at the
        *measured* receiver balance of the data plane when available,
        else at :data:`HYBRID_SHUFFLE_SKEW_CAP`.  The measured cap is
        honest both ways — a run whose detection missed (measured high)
        pays what it measured, never the optimistic constant.
        """
        configured = max(1.0, configured)
        if not hybrid:
            return configured
        cap = (
            max(1.0, measured) if measured is not None
            else HYBRID_SHUFFLE_SKEW_CAP
        )
        return min(configured, cap)

    def jen_relay_seconds(self, raw_tuples: float,
                          row_bytes: float) -> float:
        """Rows re-sent worker-to-worker inside the JEN cluster, bounded
        by one HDFS-side NIC (the skew plane's two relays).

        * Extra hot-key probe-row copies (``jen_hot_relay``): the first
          copy of a hot T row crosses the inter-cluster link on the
          agreed hash like any other row (priced in ``db_export``); the
          key's home worker then re-sends it to the other workers of
          the key's spread set — the cheap link, which is the whole
          point of relaying instead of asking the DB to export every
          copy.
        * Straggler fragments re-dealt by work stealing
          (``work_steal``): the straggler streams its surplus fragments
          out while the idle workers receive.
        """
        volume = raw_tuples * self.scale_up * row_bytes
        return volume / self.topology.hdfs.nic_bytes_per_s

    def hash_build_seconds(self, raw_tuples: float,
                           per_worker_full_copy: bool = False,
                           skew: float = 1.0) -> float:
        """Hash-table inserts; a broadcast join builds the *full* T′ on
        every worker, so its build does not parallelise.  ``skew`` is the
        hottest worker's share relative to the mean."""
        scaled = raw_tuples * self.scale_up
        divisor = 1 if per_worker_full_copy else self._n
        return scaled * max(1.0, skew) / (
            divisor * self.cost.hash_build_tuples_per_s
        )

    def probe_seconds(self, raw_probe_tuples: float,
                      raw_output_tuples: float) -> float:
        """Probing the hash tables and emitting matches."""
        scaled_probe = raw_probe_tuples * self.scale_up
        scaled_out = raw_output_tuples * self.scale_up
        return (scaled_probe + scaled_out) / (
            self._n * self.cost.hash_probe_tuples_per_s
        )

    def jen_aggregate_seconds(self, raw_output_tuples: float) -> float:
        """Residual predicate plus hash aggregation over join output."""
        scaled = raw_output_tuples * self.scale_up
        return scaled / (self._n * self.cost.jen_agg_tuples_per_s)

    def jen_spill_seconds(self, raw_spilled_tuples: float,
                          row_bytes: float) -> float:
        """Writing spilled join fragments to disk and reading them back."""
        volume = raw_spilled_tuples * self.scale_up * row_bytes * 2.0
        return volume / (self._n * self.cost.jen_spill_bytes_per_s)

    def jen_rebroadcast_seconds(self, raw_tuples: float,
                                row_bytes: float) -> float:
        """Relay-style broadcast: one worker fanning T′ back out."""
        volume = raw_tuples * self.scale_up * row_bytes * (self._n - 1)
        return volume / self.topology.hdfs.nic_bytes_per_s

    # ------------------------------------------------------------------
    # Late materialization (payload stitching)
    # ------------------------------------------------------------------
    def payload_fetch_seconds(self, raw_tuples: float, row_bytes: float,
                              amplification: float = 1.0,
                              cross_cluster: bool = False,
                              to_db: bool = False) -> float:
        """Batched stitch fetch of surviving payload rows.

        The store side serves fetches in whole pages, so scattered row
        ids read ``amplification``× the returned volume (see
        :class:`repro.latemat.StitchStats`).  A cross-cluster
        fetch moves over the same export/ingest path and inter-cluster
        link ``db_export``/``db_ingest`` price (``to_db`` picks the
        HDFS->EDW direction); an intra-HDFS fetch is an all-to-all
        exchange over the same NICs the shuffle used.
        """
        tuples = raw_tuples * self.scale_up
        volume = tuples * row_bytes * max(1.0, amplification)
        if cross_cluster:
            rate = (self.cost.db_ingest_tuples_per_s if to_db
                    else self.cost.db_export_tuples_per_s)
            return self._cross_cluster_seconds(
                tuples / (self._m * rate), volume, to_db)
        return shuffle_seconds(
            volume, self.topology, self._n, self.cost.shuffle_bytes_per_s
        )
