"""``AdaptiveJoin``: run the advised plan, switch it mid-query if wrong.

The algorithm advises an initial plan from the (possibly wrong) workload
estimate, then executes it with an :class:`~repro.adaptive.collector.
AdaptiveContext` and the run's :class:`~repro.adaptive.collector.
ArtifactBank` among its context's observers.  When a decision
checkpoint's re-costing votes to switch, the in-flight segment is
abandoned via :class:`~repro.adaptive.collector.SwitchSignal`
(the engines' ``finally`` blocks drain cleanly), its materialised
artifacts are banked, and the target plan runs from the top — reusing
the banked BF(T′) and T′ partitions where legal.  The final trace
carries the abandoned segment's priced phases (``abandoned_`` prefix), a
``switch`` latency phase for the drain/re-plan overhead, and the full
post-switch plan, so the simulated makespan honestly pays for being
wrong first.  What the run observed and decided rides the returned
record as an :class:`AdaptiveReport` (``JoinResult.adaptive``).

With a fault plan on its context the run is *collect-only*: statistics flow but
checkpoints never fire, because abandoning a half-recovered scan has no
defined semantics (and the fault machinery already guarantees the
result).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

from repro.core.advisor import JoinAdvisor, WorkloadEstimate
from repro.sim.trace import Trace
from repro.adaptive.collector import (
    AdaptiveContext,
    ArtifactBank,
    RuntimeStatsCollector,
    SwitchSignal,
)
from repro.adaptive.reoptimizer import (
    MAX_SWITCHES,
    SWITCH_PENALTY_SECONDS,
    ReOptimizer,
    SwitchDecision,
)
from repro.core.joins.base import (
    ExecutionContext,
    JoinAlgorithm,
    JoinResult,
    add_scan_phase,
    algorithm_by_name,
    register_algorithm,
)
from repro.jen.worker import ScanStats
from repro.query.query import HybridQuery


@dataclasses.dataclass
class _AbandonedSegment:
    """One plan segment that ran partway before a switch."""

    algorithm: str
    context: AdaptiveContext
    decision: SwitchDecision


@dataclasses.dataclass(frozen=True)
class AdaptiveReport:
    """What one adaptive run observed and decided
    (:attr:`JoinResult.adaptive`)."""

    #: The algorithm of every segment, the switched-away ones first.
    path: Tuple[str, ...]
    #: The checkpoint vote behind each switch, in order.
    switches: Tuple[SwitchDecision, ...]
    #: Each segment's observed statistics, in ``path`` order.
    segments: Tuple[RuntimeStatsCollector, ...]
    #: Every checkpoint evaluation, whether it voted to switch or not.
    evaluations: Tuple[dict, ...]
    #: Banked BF(T′) and T′ partitions a later segment reused.
    bloom_reuses: int
    db_filter_reuses: int

    @property
    def switched(self) -> bool:
        """Whether the run abandoned a plan."""
        return bool(self.switches)


def _clamped(value: float) -> float:
    return min(1.0, max(value, 1e-5))


@register_algorithm
class AdaptiveJoin(JoinAlgorithm):
    """Mid-query re-optimizing wrapper around the advised algorithm."""

    name = "adaptive"

    def __init__(self, estimate: Optional[WorkloadEstimate] = None,
                 estimate_errors: Optional[Tuple[float, float]] = None):
        #: Planner estimate to start from; sampled when ``None``.
        self.estimate = estimate
        #: Injected estimate error ``(sigma_t_factor, sigma_l_factor)``
        #: multiplying the initial estimate's selectivities — the
        #: testkit's deterministic way to force a mispick (0.1 on σ_L
        #: is the paper-style "10x underestimate").
        self.estimate_errors = estimate_errors

    # ------------------------------------------------------------------
    def run(self, warehouse, query: HybridQuery,
            context: Optional[ExecutionContext] = None) -> JoinResult:
        context = context or ExecutionContext()
        advisor = JoinAdvisor(warehouse.config)
        estimate = self.estimate
        if estimate is None:
            from repro.query.stats import sample_workload_estimate

            estimate = sample_workload_estimate(warehouse, query)
        if self.estimate_errors is not None:
            t_factor, l_factor = self.estimate_errors
            estimate = dataclasses.replace(
                estimate,
                sigma_t=_clamped(estimate.sigma_t * t_factor),
                sigma_l=_clamped(estimate.sigma_l * l_factor),
            )
        incumbent = advisor.decide(estimate).best

        fault_run = context.faults is not None

        bank = ArtifactBank()
        abandoned: List[_AbandonedSegment] = []
        reoptimizers: List[ReOptimizer] = []
        db_carry = (0, 0)
        while True:
            collector = RuntimeStatsCollector()
            # The database filter's observation survives a switch (the
            # reused banked T' re-runs nothing to re-observe).
            collector.db_rows_scanned, collector.db_rows_out = db_carry
            collect_only = fault_run or len(abandoned) >= MAX_SWITCHES
            reoptimizer = None
            if not collect_only:
                reoptimizer = ReOptimizer(
                    advisor, incumbent, estimate,
                    exclude=frozenset(
                        segment.algorithm for segment in abandoned
                    ),
                    bank=bank,
                )
                reoptimizers.append(reoptimizer)
            observer = AdaptiveContext(collector, reoptimizer)
            inner = algorithm_by_name(incumbent)
            try:
                inner_result = inner.run(warehouse, query, context=(
                    dataclasses.replace(
                        context,
                        observers=context.observers + (bank, observer))))
            except SwitchSignal as signal:
                abandoned.append(_AbandonedSegment(
                    algorithm=incumbent,
                    context=observer,
                    decision=signal.decision,
                ))
                db_carry = (collector.db_rows_scanned,
                            collector.db_rows_out)
                # Later segments re-plan from the observation-refined
                # estimate, not the original (possibly wrong) one.
                estimate = collector.observed_estimate(estimate)
                incumbent = signal.decision.target
                continue
            break

        report = AdaptiveReport(
            path=tuple(segment.algorithm for segment in abandoned)
            + (incumbent,),
            switches=tuple(segment.decision for segment in abandoned),
            segments=tuple(segment.context.collector
                           for segment in abandoned)
            + (observer.collector,),
            evaluations=tuple(record for reoptimizer in reoptimizers
                              for record in reoptimizer.evaluations),
            bloom_reuses=bank.bloom_reuses,
            db_filter_reuses=bank.db_filter_reuses,
        )
        if not abandoned:
            return dataclasses.replace(
                inner_result, algorithm=f"adaptive[{incumbent}]",
                adaptive=report)
        return self._assemble_switched(
            warehouse, query, abandoned, inner_result, report
        )

    # ------------------------------------------------------------------
    def _assemble_switched(self, warehouse, query: HybridQuery,
                           abandoned: List[_AbandonedSegment],
                           final_result: JoinResult,
                           report: AdaptiveReport) -> JoinResult:
        """One trace carrying the abandoned work, the switch overhead
        and the full post-switch plan; the final segment's record with
        that trace."""
        costing = self._costing(warehouse)
        meta = warehouse.hdfs.table_meta(query.hdfs_table)
        label = f"adaptive[{'->'.join(report.path)}]"
        trace = Trace(label=label)
        gate = None  # previous segment's switch phase
        for index, segment in enumerate(abandoned):
            prefix = (
                "abandoned_" if len(abandoned) == 1
                else f"abandoned{index + 1}_"
            )
            collector = segment.context.collector
            segment_phases = []
            for phase in segment.context.trace:
                after = [prefix + name for name in phase.after]
                if not after and gate is not None:
                    after = [gate]
                trace.add(
                    prefix + phase.name, phase.kind, phase.seconds,
                    after=after,
                    streams_from=[
                        prefix + name for name in phase.streams_from
                    ],
                    description=phase.description,
                    volume_bytes=phase.volume_bytes,
                    tuples=phase.tuples,
                )
                segment_phases.append(prefix + phase.name)
            # The in-flight scan never reached its trace.add; price the
            # scanned-so-far fraction from the collector's raw counts.
            if collector.rows_scanned > 0:
                scan_gate = (
                    [prefix + "bf_db_send"]
                    if prefix + "bf_db_send" in segment_phases
                    else [prefix + "startup"]
                )
                add_scan_phase(
                    trace, costing, prefix + "hdfs_scan",
                    ScanStats(
                        rows_scanned=collector.rows_scanned,
                        stored_bytes_scanned=collector.stored_bytes_scanned,
                    ),
                    meta.format_name, scan_gate,
                    f"partial scan abandoned at "
                    f"{segment.decision.at_progress:.0%}",
                )
                segment_phases.append(prefix + "hdfs_scan")
            switch_name = (
                "switch" if len(abandoned) == 1 else f"switch{index + 1}"
            )
            trace.add(
                switch_name, "latency", SWITCH_PENALTY_SECONDS,
                after=segment_phases,
                description=(
                    f"drain {segment.algorithm!r}, re-plan as "
                    f"{segment.decision.target!r}"
                ),
            )
            gate = switch_name
        # The post-switch plan replaces its own startup with the switch
        # phase: coordination is already up, the penalty covers re-plan.
        trace.graft(final_result.trace, drop=("startup",),
                    remap={"startup": gate})

        stats = final_result.stats
        stats.hdfs_rows_discarded += sum(
            collector.rows_scanned for collector in report.segments[:-1]
        )
        timing = self._finish(warehouse, final_result.result, stats,
                              trace).timing
        return dataclasses.replace(final_result, algorithm=label,
                                   trace=trace, timing=timing,
                                   adaptive=report)
