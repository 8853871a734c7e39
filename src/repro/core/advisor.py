"""The join-site advisor: the paper's Section 5.5 conclusions as code.

Given the workload statistics (table sizes, predicate and join-key
selectivities, storage format), the advisor estimates the execution time
of each algorithm with the same cost model the time plane uses, ranks
them, and explains the choice with the paper's rules of thumb:

* broadcast join only when T′ is very small (the paper's cluster put the
  cutoff around σ_T ≤ 0.001, T′ ≤ 25 MB);
* DB-side join only when the filtered HDFS table is very small
  (σ_L ≤ 0.01 in the paper's runs);
* otherwise an HDFS-side repartition-based join, and among those the
  zigzag join — "the most reliable join method that works the best most
  of the time".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.config import HybridConfig
from repro.core.joins.costing import JoinCosting


@dataclass(frozen=True)
class WorkloadEstimate:
    """Planner-style estimates the advisor works from (paper scale)."""

    t_rows: float
    l_rows: float
    sigma_t: float
    sigma_l: float
    s_t: float
    s_l: float
    #: Wire width of a projected T row / L row in bytes.
    t_wire_bytes: float = 16.0
    l_wire_bytes: float = 32.0
    #: Stored bytes per L row the scan must read.
    l_scan_bytes: float = 30.0
    format_name: str = "parquet"
    bloom_fpr: float = 0.05


@dataclass(frozen=True)
class AdvisorDecision:
    """The ranked outcome."""

    best: str
    estimated_seconds: Dict[str, float]
    rationale: str

    def ranking(self) -> List[Tuple[str, float]]:
        """Algorithms from fastest to slowest estimate.

        Cost ties break on the algorithm name, so the ranking (and
        anything that consumes it, like the ``advise`` CLI output) is
        deterministic regardless of dict insertion order.
        """
        return sorted(self.estimated_seconds.items(),
                      key=lambda kv: (kv[1], kv[0]))


class JoinAdvisor:
    """Rank the algorithms for an estimated workload."""

    def __init__(self, config: Optional[HybridConfig] = None):
        self.config = config or HybridConfig()
        # Estimation happens at paper scale directly: scale factor 1.
        self._costing = JoinCosting(self.config.scaled(1.0))

    # ------------------------------------------------------------------
    def estimate_all(self, est: WorkloadEstimate) -> Dict[str, float]:
        """Analytic time estimates for every algorithm."""
        return {
            "db": self._estimate_db_side(est, use_bloom=False),
            "db(BF)": self._estimate_db_side(est, use_bloom=True),
            "broadcast": self._estimate_broadcast(est),
            "repartition": self._estimate_repartition(est, use_bloom=False),
            "repartition(BF)": self._estimate_repartition(est, use_bloom=True),
            "zigzag": self._estimate_zigzag(est),
        }

    def scan_seconds(self, est: WorkloadEstimate) -> float:
        """Estimated full HDFS scan time — the component the adaptive
        plane pro-rates by observed scan progress."""
        c = self._costing
        return c.hdfs_scan_seconds(
            est.l_rows * est.l_scan_bytes, est.l_rows, est.format_name
        )

    def db_filter_seconds(self, est: WorkloadEstimate) -> float:
        """Estimated database filter time — sunk once T′ is built, and
        credited back when banked T′ partitions make it reusable."""
        return self._costing.db_table_scan_seconds(
            est.t_rows * self.config.paper.t_row_bytes)

    def decide(self, est: WorkloadEstimate) -> AdvisorDecision:
        """Pick the cheapest algorithm (ties on name) and explain it."""
        estimates = self.estimate_all(est)
        best = min(estimates, key=lambda name: (estimates[name], name))
        return AdvisorDecision(best=best, estimated_seconds=estimates,
                               rationale=self._rationale(est, best))

    # ------------------------------------------------------------------
    # Per-algorithm analytic estimates.  These intentionally use the same
    # JoinCosting primitives as the real traces, composed with the same
    # overlap structure (max() where the engines pipeline).
    # ------------------------------------------------------------------
    def _shuffle_skew(self) -> float:
        """Skew multiplier the HDFS-side shuffle/build estimates pay.

        Mirrors the executed algorithms: the configured analytic factor,
        capped by :meth:`JoinCosting.effective_shuffle_skew` (a skewed
        shuffle splits its hot keys, so the advisor must not
        over-penalise the repartition family).  No measured balance
        exists at planning time, so the cap is the constant
        :data:`~repro.core.joins.costing.HYBRID_SHUFFLE_SKEW_CAP`.
        """
        return self._costing.effective_shuffle_skew(
            self.config.shuffle_skew, hybrid=True)

    def _common(self, est: WorkloadEstimate):
        t_prime = est.t_rows * est.sigma_t
        l_prime = est.l_rows * est.sigma_l
        return (self._costing, t_prime, l_prime, self.scan_seconds(est),
                self.db_filter_seconds(est))

    def _estimate_repartition(self, est: WorkloadEstimate,
                              use_bloom: bool) -> float:
        c, t_prime, l_prime, scan, db_filter = self._common(est)
        shuffled = l_prime
        bloom_cost = 0.0
        if use_bloom:
            shuffled = l_prime * min(1.0, est.s_l + est.bloom_fpr)
            bloom_cost = c.bloom_to_jen_seconds()
        skew = self._shuffle_skew()
        shuffle = c.jen_shuffle_seconds(shuffled, est.l_wire_bytes, skew=skew)
        build = c.hash_build_seconds(shuffled, skew=skew)
        export = c.db_export_seconds(t_prime, est.t_wire_bytes)
        output = self._join_output(est)
        tail = (c.probe_seconds(t_prime, output)
                + c.jen_aggregate_seconds(output))
        hdfs_path = bloom_cost + max(scan, shuffle) + build
        db_path = db_filter + export
        return (c.startup_seconds() + max(hdfs_path, db_path) + tail
                + c.result_return_seconds())

    def _estimate_zigzag(self, est: WorkloadEstimate) -> float:
        c, t_prime, l_prime, scan, db_filter = self._common(est)
        shuffled = l_prime * min(1.0, est.s_l + est.bloom_fpr)
        t_sent = t_prime * min(1.0, est.s_t + est.bloom_fpr)
        skew = self._shuffle_skew()
        shuffle = c.jen_shuffle_seconds(shuffled, est.l_wire_bytes, skew=skew)
        build = c.hash_build_seconds(shuffled, skew=skew)
        output = self._join_output(est)
        tail = (c.probe_seconds(t_sent, output)
                + c.jen_aggregate_seconds(output))
        hdfs_path = (c.bloom_to_jen_seconds() + max(scan, shuffle)
                     + c.bloom_merge_intra_jen_seconds()
                     + c.bloom_to_db_seconds()
                     + c.db_second_access_seconds(t_prime)
                     + c.db_export_seconds(t_sent, est.t_wire_bytes))
        return (c.startup_seconds() + max(hdfs_path, db_filter + build)
                + tail + c.result_return_seconds())

    def _estimate_broadcast(self, est: WorkloadEstimate) -> float:
        c, t_prime, l_prime, scan, db_filter = self._common(est)
        n = self.config.cluster.jen_workers()
        broadcast = c.db_export_seconds(t_prime, est.t_wire_bytes, copies=n)
        build = c.hash_build_seconds(t_prime, per_worker_full_copy=True)
        output = self._join_output(est)
        tail = (c.probe_seconds(l_prime, output)
                + c.jen_aggregate_seconds(output))
        return (c.startup_seconds()
                + max(scan, db_filter + broadcast + build)
                + tail + c.result_return_seconds())

    def _estimate_db_side(self, est: WorkloadEstimate,
                          use_bloom: bool) -> float:
        c, t_prime, l_prime, scan, db_filter = self._common(est)
        shipped = l_prime
        bloom_cost = 0.0
        if use_bloom:
            shipped = l_prime * min(1.0, est.s_l + est.bloom_fpr)
            bloom_cost = c.bloom_to_jen_seconds()
        ingest = c.db_ingest_seconds(shipped, est.l_wire_bytes)
        internal = c.db_internal_shuffle_seconds(
            shipped * est.l_wire_bytes + t_prime * est.t_wire_bytes
        )
        output = self._join_output(est)
        join = c.db_join_seconds(t_prime + shipped, output)
        return (c.startup_seconds() + bloom_cost
                + max(scan, db_filter) + ingest + internal + join)

    def _join_output(self, est: WorkloadEstimate) -> float:
        """Expected join cardinality under uniform keys."""
        keys = self.config.paper.unique_join_keys
        t_per_key = est.t_rows * est.sigma_t / keys
        l_per_key = est.l_rows * est.sigma_l / keys
        # Overlapping keys: S_T' of JK(T'); JK sizes cancel out of the
        # per-key multiplicities under uniformity.
        common = keys * min(est.sigma_t * est.s_t, 1.0)
        return common * t_per_key * l_per_key

    def _rationale(self, est: WorkloadEstimate, best: str) -> str:
        t_prime_mb = est.t_rows * est.sigma_t * est.t_wire_bytes / 1e6
        if best == "broadcast":
            return (f"T' is tiny ({t_prime_mb:.0f} MB wire): broadcasting "
                    "avoids any HDFS shuffle (paper Section 5.1.2)")
        if best.startswith("db"):
            return (f"sigma_L={est.sigma_l:g} leaves the filtered HDFS "
                    "table small enough to ship into the EDW "
                    "(paper Section 5.3)")
        if best == "zigzag":
            return ("no highly selective local predicate: exploit the "
                    "join-key predicates on both sides "
                    "(paper Sections 3.4, 5.5)")
        return "repartition-based HDFS-side join is the robust default"
