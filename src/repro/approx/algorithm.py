"""The approximate (block-sampled) hybrid join.

``ApproxJoin`` runs the repartition join's exact database side — local
predicates, projection, optionally BF_DB — but scans only a stratified
sample of the HDFS table's blocks (:mod:`repro.approx.sampler`), joins
each sampled block against the full T′ as it arrives, and folds the
per-block group contributions into closed-form interval estimates
(:mod:`repro.approx.estimator`).  In progressive mode every block emits
a monotone :class:`~repro.approx.progressive.Snapshot`, and a
``max_error`` policy stops the scan as soon as every interval is tight
enough.

The trace prices exactly what ran: a full ``db_filter``, an
``hdfs_scan`` over the *sampled* bytes and rows, a shuffle/build/probe
pipeline over the sampled wire volume, plus a tiny interval-estimation
phase.  Row/byte accounting adds up the per-block
:class:`~repro.jen.worker.ScanStats` the engine's sampled scan yields,
not a parallel bookkeeping path, so ``approx`` cannot under-report its
scan.

The run's :class:`ApproxReport` — policy, final estimate and
snapshots — rides the returned record (``JoinResult.approx``).

A run that happens to consume every block (rate 1.0, tiny tables, or a
progressive run that never met its error target) is *exact*: integer
result dtypes, zero-width intervals, bit-equal to the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.approx.estimator import (
    ApproxEstimate,
    CellEstimate,
    CellKey,
    JoinAggregateEstimator,
)
from repro.approx.policy import ApproxPolicy
from repro.approx.progressive import Snapshot, SnapshotTracker, error_target_met
from repro.approx.sampler import plan_block_sample
from repro.core.joins.base import (
    JoinAlgorithm,
    JoinResult,
    JoinRun,
    add_scan_phase,
    register_algorithm,
)
from repro.errors import JoinError
from repro.jen.worker import ScanRequest, ScanStats
from repro.relational.table import Table
from repro.query.query import HybridQuery


@dataclass(frozen=True)
class ApproxReport:
    """What one sampled run estimated (:attr:`JoinResult.approx`)."""

    policy: ApproxPolicy
    progressive: bool
    #: The raw estimate after the last consumed block.
    estimate: ApproxEstimate
    #: The refinement stream, one snapshot per consumed block
    #: (progressive runs only).
    snapshots: Tuple[Snapshot, ...] = ()

    @property
    def cells(self) -> Dict[CellKey, CellEstimate]:
        """The reported cells: the final snapshot's (monotone, clamped
        intervals) when there is one, else the raw estimate's — one-shot
        runs report unclamped intervals so the stated coverage stays
        honest."""
        if self.snapshots:
            return self.snapshots[-1].cells
        return self.estimate.cells


@register_algorithm
class ApproxJoin(JoinAlgorithm):
    """Block-sampled approximate join with confidence intervals."""

    name = "approx"

    def __init__(self, sample_rate: float = 1.0, confidence: float = 0.95,
                 seed: int = 11, progressive: bool = False,
                 max_error: Optional[float] = None, use_bloom: bool = False,
                 min_blocks: int = 4):
        # The policy's validation is the constructor's validation.
        self.policy = ApproxPolicy(
            sample_rate=sample_rate,
            confidence=confidence,
            max_error=max_error,
            min_blocks=min_blocks,
            seed=seed,
        )
        self.progressive = progressive
        self.use_bloom = use_bloom

    @classmethod
    def from_policy(cls, policy: ApproxPolicy, progressive: bool = False,
                    use_bloom: bool = False) -> "ApproxJoin":
        return cls(
            sample_rate=policy.sample_rate,
            confidence=policy.confidence,
            seed=policy.seed,
            progressive=progressive,
            max_error=policy.max_error,
            use_bloom=use_bloom,
            min_blocks=policy.min_blocks,
        )

    @property
    def display_name(self) -> str:
        return "approx(BF)" if self.use_bloom else "approx"

    # ------------------------------------------------------------------
    def run(self, warehouse, query: HybridQuery,
            context=None) -> JoinResult:
        if context is not None and context.faults is not None:
            raise JoinError(
                "approx join does not run under an armed fault plan; "
                "use the exact tier for fault-injected queries"
            )
        policy = self.policy
        # -- Exact database side (identical to repartition) --------------
        run = JoinRun(self, warehouse, query, context=context)
        costing, stats, trace = run.costing, run.stats, run.trace
        t_parts = run.db_filter()
        db_bloom = run.bf_db(t_parts) if self.use_bloom else None
        scan_gate = (["startup", "bf_db_send"] if self.use_bloom
                     else ["startup"])
        t_prime = Table.concat(t_parts)
        t_tuples = t_prime.num_rows
        t_wire_bytes = t_parts[0].row_bytes()

        # -- Stratified block sample over L ------------------------------
        blocks = warehouse.hdfs.table_blocks(query.hdfs_table)
        if not blocks:
            raise JoinError(
                f"HDFS table {query.hdfs_table!r} has no blocks to sample"
            )
        sample = plan_block_sample(
            blocks, policy.sample_rate, policy.seed, policy.min_blocks
        )
        estimator = JoinAggregateEstimator(
            query, total_blocks=sample.total_blocks,
            confidence=policy.confidence,
        )
        tracker = SnapshotTracker()

        request = ScanRequest.from_query(query)
        scanned = ScanStats()
        wire_tuples = 0
        join_output = 0
        first_wire: Optional[Table] = None
        stream = warehouse.jen.scan_sampled_blocks(
            query.hdfs_table, request, sample.ordering, run.cluster,
            db_bloom=db_bloom, observers=run.observers,
        )
        try:
            for wire, block_stats in stream:
                if first_wire is None:
                    first_wire = wire
                scanned = scanned.merge(block_stats)
                wire_tuples += wire.num_rows
                join_output += estimator.observe_join_block(t_prime, wire)
                if self._should_stop(estimator, tracker, sample):
                    break
        finally:
            stream.close()

        estimate = estimator.estimate()

        # -- Honest pricing of the sampled pipeline ----------------------
        stats.hdfs_rows_scanned = float(scanned.rows_scanned)
        stats.hdfs_rows_after_predicates = float(
            scanned.rows_after_predicates)
        stats.hdfs_rows_after_bloom = float(scanned.rows_after_bloom)
        stats.hdfs_tuples_shuffled = wire_tuples
        stats.db_tuples_sent = t_tuples
        stats.join_output_tuples = join_output
        stats.result_rows = estimate.result.num_rows

        meta = warehouse.hdfs.table_meta(query.hdfs_table)
        add_scan_phase(trace, costing, "hdfs_scan", scanned,
                       meta.format_name, scan_gate,
                       f"sampled scan of L ({meta.format_name}): "
                       f"{estimate.blocks_scanned}/"
                       f"{estimate.blocks_total} blocks"
                       + (", BF_DB" if db_bloom is not None else ""))
        l_wire_bytes = (
            first_wire.row_bytes() if first_wire is not None else 0
        )
        trace.add("jen_shuffle", "shuffle",
                  costing.jen_shuffle_seconds(wire_tuples, l_wire_bytes),
                  streams_from=["hdfs_scan"],
                  description="agreed-hash shuffle of sampled L' rows",
                  tuples=wire_tuples,
                  volume_bytes=wire_tuples * l_wire_bytes)
        trace.add("db_export", "transfer",
                  costing.db_export_seconds(t_tuples, t_wire_bytes),
                  after=["db_filter"],
                  description="DB workers send T' via agreed hash",
                  tuples=t_tuples,
                  volume_bytes=t_tuples * t_wire_bytes)
        trace.add("hash_build", "cpu",
                  costing.hash_build_seconds(wire_tuples),
                  streams_from=["jen_shuffle"],
                  description="build hash tables on sampled L' rows",
                  tuples=wire_tuples)
        trace.add("probe", "cpu",
                  costing.probe_seconds(t_tuples, join_output),
                  after=["hash_build"],
                  streams_from=["db_export"],
                  description="probe with database rows",
                  tuples=t_tuples)
        trace.add("aggregate", "cpu",
                  costing.jen_aggregate_seconds(join_output),
                  streams_from=["probe"],
                  description="post-join predicate, per-block partial agg",
                  tuples=join_output)
        # Interval estimation touches one accumulator per (group, cell):
        # price it as an aggregate pass over the result rows.
        cell_rows = max(1, len(estimate.cells))
        trace.add("estimate_intervals", "cpu",
                  costing.jen_aggregate_seconds(cell_rows),
                  after=["aggregate"],
                  description="closed-form interval estimation per cell",
                  tuples=cell_rows)
        trace.add("result_return", "latency",
                  costing.result_return_seconds(),
                  after=["estimate_intervals"],
                  description="return estimates + intervals to the "
                              "database")

        return run.finish(estimate.result, approx=ApproxReport(
            policy, self.progressive, estimate, tuple(tracker.snapshots)))

    # ------------------------------------------------------------------
    def _should_stop(self, estimator: JoinAggregateEstimator,
                     tracker: SnapshotTracker, sample) -> bool:
        """The stopping rule, evaluated after every consumed block.

        * progressive: record a snapshot per block; stop early only when
          a ``max_error`` target is met, otherwise refine to exactness.
        * one-shot: stop at the planned target; with a ``max_error``
          target keep drawing past it until the intervals are tight
          enough (or the table is exhausted).
        """
        policy = self.policy
        consumed = estimator.blocks_observed
        if self.progressive:
            snapshot = tracker.record(estimator.estimate())
            return error_target_met(snapshot, policy)
        if consumed < sample.target_blocks:
            return False
        if policy.max_error is None:
            return True
        if consumed < policy.min_blocks:
            return False
        estimate = estimator.estimate()
        return (
            estimate.exact
            or estimate.max_relative_error() <= policy.max_error
        )
