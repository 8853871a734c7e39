"""Decision checkpoints: re-cost the plan with observed statistics.

At each checkpoint the :class:`ReOptimizer` folds the collector's
observed-so-far statistics into the original workload estimate
(:meth:`~repro.adaptive.collector.RuntimeStatsCollector.
observed_estimate`), re-runs the advisor's cost model, and compares

* the incumbent's *projected remaining* cost — its full re-costed
  estimate minus the work already behind us (the completed database
  filter and ``progress`` of the scan), against
* each alternative's *full* cost, credited for banked artifacts it can
  reuse (the T′ partitions, and with them the already-paid db filter)
  and charged the fixed switch penalty (drain + re-plan + restart).

A switch fires only when the best alternative beats the projection by
the hysteresis margin — re-costing with observed statistics is itself
an estimate, and thrashing between near-ties would pay the penalty for
nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional

from repro.core.advisor import JoinAdvisor, WorkloadEstimate
from repro.adaptive.collector import ArtifactBank, RuntimeStatsCollector


#: Below this scan progress the observed σ_L sample is too small to
#: trust for a switch (the T′ checkpoint, at progress 0, relies on the
#: exact observed σ_T instead and is exempt).
MIN_PROGRESS = 0.05
#: Fixed cost of a switch: drain in-flight stages, re-plan, restart
#: coordination (charged as a latency phase on the final trace).
SWITCH_PENALTY_SECONDS = 5.0
#: Switch only when the alternative beats the incumbent's projected
#: remaining cost by this factor.
HYSTERESIS = 0.9
#: Most switches allowed in one run (regret is bounded; after the
#: budget is spent the run continues collect-only).
MAX_SWITCHES = 1


@dataclass(frozen=True)
class SwitchDecision:
    """One checkpoint's vote to abandon the incumbent plan.

    The statistics it was costed on are the abandoned segment's
    :class:`~repro.adaptive.collector.RuntimeStatsCollector` as it
    stood at ``at_progress``.
    """

    incumbent: str
    target: str
    at_progress: float
    #: The incumbent's re-costed cost minus the work already behind it.
    projected_remaining: float
    #: The target's full cost, switch penalty and banked-artifact
    #: credits included.
    target_seconds: float
    #: Full re-costed estimates (every algorithm, uncredited).
    estimates: Dict[str, float] = field(default_factory=dict)

    @property
    def reason(self) -> str:
        """The vote in one line."""
        return (
            f"projected remaining {self.projected_remaining:.1f}s on "
            f"{self.incumbent!r} vs {self.target_seconds:.1f}s full re-run "
            f"of {self.target!r} (switch penalty and banked-artifact "
            "credits included)"
        )


class ReOptimizer:
    """Re-runs the advisor's cost model at decision checkpoints."""

    def __init__(self, advisor: JoinAdvisor, incumbent: str,
                 base_estimate: WorkloadEstimate,
                 exclude: FrozenSet[str] = frozenset(),
                 bank: Optional[ArtifactBank] = None):
        self.advisor = advisor
        self.incumbent = incumbent
        self.base_estimate = base_estimate
        #: Algorithms already tried this run — never switch back.
        self.exclude = frozenset(exclude) | {incumbent}
        self.bank = bank
        #: Every evaluation, for the run's report.
        self.evaluations: list = []

    def evaluate(self, collector: RuntimeStatsCollector,
                 progress: float) -> Optional[SwitchDecision]:
        """Re-cost with observations; a decision means *switch now*."""
        if 0.0 < progress < MIN_PROGRESS:
            return None
        observed = collector.observed_estimate(self.base_estimate)
        estimates = self.advisor.estimate_all(observed)
        if self.incumbent not in estimates:
            # Incumbent outside the advisor's costed set (e.g. an
            # explicitly requested variant): nothing to project against.
            return None

        # Work already behind the incumbent: the completed db filter
        # and `progress` of the scan.  Both overlap other phases in the
        # full estimates, so this projection errs toward keeping the
        # incumbent — exactly the conservative direction we want.
        db_filter = self.advisor.db_filter_seconds(observed)
        scan = self.advisor.scan_seconds(observed)
        sunk = 0.0
        if collector.db_rows_scanned > 0:
            sunk += db_filter
        sunk += progress * scan
        remaining = max(0.0, estimates[self.incumbent] - sunk)

        # Alternatives pay from scratch, minus banked-artifact credits.
        t_prime_banked = self.bank is not None and self.bank.has_db_filter
        best_name, best_cost = None, None
        for name, full in estimates.items():
            if name in self.exclude:
                continue
            cost = full + SWITCH_PENALTY_SECONDS
            if t_prime_banked:
                cost -= db_filter
            if best_cost is None or (cost, name) < (best_cost, best_name):
                best_name, best_cost = name, cost

        record = {
            "progress": round(progress, 4),
            "incumbent": self.incumbent,
            "projected_remaining": remaining,
            "best_alternative": best_name,
            "alternative_cost": best_cost,
            "estimates": dict(estimates),
        }
        self.evaluations.append(record)
        if best_name is None or best_cost >= HYSTERESIS * remaining:
            return None
        return SwitchDecision(
            incumbent=self.incumbent,
            target=best_name,
            at_progress=progress,
            projected_remaining=remaining,
            target_seconds=best_cost,
            estimates=dict(estimates),
        )
