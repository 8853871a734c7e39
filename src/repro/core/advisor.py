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
    #: Whether each side's storage clusters rows by the join key.  Late
    #: materialization's payload fetch reads whole pages, so surviving
    #: row ids on a key-clustered table land in few pages (amplification
    #: ~1) while a scattered table pays up to the full page factor.
    t_key_clustered: bool = False
    l_key_clustered: bool = False


@dataclass(frozen=True)
class LateMatDecision:
    """Whether late materialization is predicted to pay for a query.

    The advisor compares the classic full-row transfer cost against the
    thin-plus-stitch cost on the repartition-family shape (the paper's
    robust default, and where late materialization changes the most
    bytes).  ``use`` is False whenever the toggle is off, the payloads
    are too narrow to beat the 12-byte thin row, or the join is so
    unselective (near-cartesian) that fetching almost every payload
    back — with page amplification — costs more than shipping full rows
    once.
    """

    enabled: bool
    use: bool
    classic_seconds: float
    latemat_seconds: float
    rationale: str


@dataclass(frozen=True)
class AdvisorDecision:
    """The ranked outcome."""

    best: str
    estimated_seconds: Dict[str, float]
    rationale: str
    #: Per-query late-materialization verdict (None when the advisor
    #: was asked only for the algorithm ranking).
    latemat: Optional[LateMatDecision] = None

    def ranking(self) -> List[Tuple[str, float]]:
        """Algorithms from fastest to slowest estimate.

        Cost ties break on the algorithm name, so the ranking (and
        anything that consumes it, like the ``advise`` CLI output) is
        deterministic regardless of dict insertion order.
        """
        return sorted(self.estimated_seconds.items(),
                      key=lambda kv: (kv[1], kv[0]))


class JoinAdvisor:
    """Rank the algorithms for an estimated workload.

    ``skew_handling`` says whether the runs it advises will have the
    skew plane on (their :class:`~repro.core.joins.base.ExecutionContext`).
    """

    def __init__(self, config: Optional[HybridConfig] = None,
                 skew_handling: bool = False):
        self.config = config or HybridConfig()
        self.skew_handling = skew_handling
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
        return self._costing.db_table_scan_seconds(est.t_rows * 65.0)

    def decide(self, est: WorkloadEstimate) -> AdvisorDecision:
        """Pick the cheapest algorithm (ties on name) and explain it."""
        estimates = self.estimate_all(est)
        best = min(estimates, key=lambda name: (estimates[name], name))
        rationale = self._rationale(est, best)
        return AdvisorDecision(
            best=best, estimated_seconds=estimates, rationale=rationale,
            latemat=self.late_materialization_decision(est),
        )

    def late_materialization_decision(
        self, est: WorkloadEstimate,
        observed_s_t: Optional[float] = None,
        observed_s_l: Optional[float] = None,
    ) -> LateMatDecision:
        """Should this query ship thin rows and stitch, or full rows?

        Compares, with the same :class:`JoinCosting` primitives the
        traces pay, the repartition-shape transfer bill of the classic
        plan (full rows once) against the late-materialized plan (thin
        rows plus a page-amplified payload fetch of the join
        survivors).  ``observed_s_t``/``observed_s_l`` let the adaptive
        plane refine the planner's join-key selectivities with what the
        run actually measured; estimates are used where no observation
        exists.
        """
        from repro.latemat import (
            PAGE_ROWS,
            ROWID_BYTES,
            late_materialization_enabled,
        )

        enabled = late_materialization_enabled()
        c = self._costing
        key_bytes = 4.0
        thin_bytes = key_bytes + ROWID_BYTES
        s_t = est.s_t if observed_s_t is None else observed_s_t
        s_l = est.s_l if observed_s_l is None else observed_s_l
        t_prime = est.t_rows * est.sigma_t
        l_prime = est.l_rows * est.sigma_l
        skew = self._shuffle_skew()

        classic = (
            c.jen_shuffle_seconds(l_prime, est.l_wire_bytes, skew=skew)
            + c.db_export_seconds(t_prime, est.t_wire_bytes)
        )

        # Thin rows move first; survivors of the join fetch their
        # payload back in whole 64-row pages.  On a key-clustered store
        # the survivors sit in few pages (amplification ~1); scattered
        # row ids touch roughly min(PAGE_ROWS, 1/s) rows per returned
        # row.
        def amplification(survivor_fraction: float,
                          clustered: bool) -> float:
            if clustered or survivor_fraction <= 0:
                return 1.0
            return min(float(PAGE_ROWS),
                       max(1.0, 1.0 / survivor_fraction))

        surv_l_frac = min(1.0, s_l)
        surv_t_frac = min(1.0, s_t)
        l_payload = max(0.0, est.l_wire_bytes - key_bytes) + ROWID_BYTES
        t_payload = max(0.0, est.t_wire_bytes - key_bytes) + ROWID_BYTES
        latemat = (
            c.jen_shuffle_seconds(l_prime, thin_bytes, skew=skew)
            + c.db_export_seconds(t_prime, thin_bytes)
            + c.payload_fetch_seconds(
                l_prime * surv_l_frac, l_payload,
                amplification=amplification(
                    surv_l_frac, est.l_key_clustered
                ),
            )
            + c.payload_fetch_seconds(
                t_prime * surv_t_frac, t_payload,
                amplification=amplification(
                    surv_t_frac, est.t_key_clustered
                ),
                cross_cluster=True,
            )
        )

        wide_enough = (est.l_wire_bytes > thin_bytes
                       or est.t_wire_bytes > thin_bytes)
        use = enabled and wide_enough and latemat < classic
        if not enabled:
            rationale = "late materialization is disabled"
        elif not wide_enough:
            rationale = (f"payload rows are no wider than the "
                         f"{thin_bytes:.0f}-byte thin row; nothing to "
                         "defer")
        elif use:
            rationale = (f"selective join (S_T={s_t:g}, S_L={s_l:g}) on "
                         "wide payloads: thin shuffle + stitch beats "
                         "full-row shipping")
        else:
            rationale = (f"join keeps most rows (S_T={s_t:g}, "
                         f"S_L={s_l:g}): page-amplified payload fetches "
                         "would out-cost the full-row transfer")
        return LateMatDecision(
            enabled=enabled, use=use, classic_seconds=classic,
            latemat_seconds=latemat, rationale=rationale,
        )

    # ------------------------------------------------------------------
    # Per-algorithm analytic estimates.  These intentionally use the same
    # JoinCosting primitives as the real traces, composed with the same
    # overlap structure (max() where the engines pipeline).
    # ------------------------------------------------------------------
    def _shuffle_skew(self) -> float:
        """Skew multiplier the HDFS-side shuffle/build estimates pay.

        Mirrors the executed algorithms: the configured analytic factor,
        capped by :meth:`JoinCosting.effective_shuffle_skew` when the
        skew plane is on (the hybrid shuffle spreads the hot keys, so
        the advisor must not over-penalise the repartition family).  No
        measured balance exists at planning time, so the cap is the
        constant :data:`~repro.core.joins.costing.HYBRID_SHUFFLE_SKEW_CAP`.
        """
        return self._costing.effective_shuffle_skew(
            max(1.0, self.config.shuffle_skew),
            hybrid=self.skew_handling,
        )

    def _common(self, est: WorkloadEstimate):
        c = self._costing
        t_prime = est.t_rows * est.sigma_t
        l_prime = est.l_rows * est.sigma_l
        scan = c.hdfs_scan_seconds(
            est.l_rows * est.l_scan_bytes, est.l_rows, est.format_name
        )
        t_meta_bytes = est.t_rows * 65.0
        db_filter = c.db_table_scan_seconds(t_meta_bytes)
        return c, t_prime, l_prime, scan, db_filter

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
