"""Runtime statistics collected while one plan segment executes.

:class:`RuntimeStatsCollector` accumulates what the segment's run
reports — the database filter's observed σ_T and per-block scan counts
(observed σ_L so far, BF(T′) hit rate).  :meth:`RuntimeStatsCollector.
observed_estimate` folds the observations into a fresh
:class:`~repro.core.advisor.WorkloadEstimate`, extrapolating the
observed-so-far rates to the whole table — the input the re-optimizer
feeds back through the advisor's cost model.

:class:`ArtifactBank` keeps materialised artifacts that stay legal
across a plan switch: the merged BF(T′) (bit-identical reuse, by
object) and the filtered T′ partitions.  One bank outlives every
segment of one adaptive run and observes each.

:class:`AdaptiveContext` is the other run observer (:class:`repro.
observer.RunObserver`) :class:`~repro.adaptive.algorithm.AdaptiveJoin`
adds to one segment's run (the ``observers`` of its
:class:`~repro.core.joins.base.ExecutionContext`): it owns one
collector, the run's trace (the adaptive wrapper grafts an abandoned
segment's priced phases from it) and, unless the run is collect-only,
the re-optimizer consulted at checkpoints.  :class:`SwitchSignal` is
what it raises to abandon the run.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.core.advisor import WorkloadEstimate
from repro.observer import RunObserver

#: Observed selectivities are clamped to the advisor's legal floor.
_SIGMA_FLOOR = 1e-5
#: Fractional scan-progress marks where the re-optimizer runs (the
#: named ``t_prime_built`` checkpoint always runs in addition).
CHECKPOINTS = (0.25, 0.5, 0.75)


class SwitchSignal(Exception):
    """Raised out of an engine hot loop to abandon the incumbent plan.

    Carries the re-optimizer's :class:`~repro.adaptive.reoptimizer.
    SwitchDecision`.  Only :class:`AdaptiveContext` raises it and only
    :class:`~repro.adaptive.algorithm.AdaptiveJoin` catches it; the
    engines treat it like any other abort (their ``finally`` blocks
    restore scan depth and toggles).
    """

    def __init__(self, decision):
        super().__init__(
            f"switch to {decision.target!r} at "
            f"{decision.at_progress:.0%} scan progress"
        )
        self.decision = decision


@dataclasses.dataclass
class RuntimeStatsCollector:
    """Observed-so-far statistics of one executing plan segment."""

    # Database side (observed sigma_T).
    db_rows_scanned: int = 0
    db_rows_out: int = 0
    # HDFS scan progress.
    total_blocks: int = 0
    blocks_done: int = 0
    rows_scanned: int = 0
    stored_bytes_scanned: float = 0.0
    rows_after_predicates: int = 0
    rows_after_bloom: int = 0
    bloom_applied: bool = False

    # ------------------------------------------------------------------
    # Derived observations
    # ------------------------------------------------------------------
    def scan_progress(self) -> float:
        """Fraction of assigned blocks fully scanned."""
        if self.total_blocks <= 0:
            return 0.0
        return min(1.0, self.blocks_done / self.total_blocks)

    def observed_sigma_t(self) -> Optional[float]:
        """σ_T from the completed database filter, if it ran."""
        if self.db_rows_scanned <= 0:
            return None
        return max(self.db_rows_out / self.db_rows_scanned, _SIGMA_FLOOR)

    def observed_sigma_l(self) -> Optional[float]:
        """σ_L over the rows scanned so far, if any block finished."""
        if self.rows_scanned <= 0:
            return None
        return max(self.rows_after_predicates / self.rows_scanned,
                   _SIGMA_FLOOR)

    def bloom_hit_rate(self) -> Optional[float]:
        """BF(T′) pass rate over predicate survivors, when it applied."""
        if not self.bloom_applied or self.rows_after_predicates <= 0:
            return None
        return self.rows_after_bloom / self.rows_after_predicates

    def observed_estimate(self, base: WorkloadEstimate) -> WorkloadEstimate:
        """``base`` with every observed statistic extrapolated in.

        The scanned prefix of L is assumed representative (blocks are
        written in load order from a uniformly shuffled workload), so
        observed-so-far rates stand in for whole-table rates; the
        database filter runs to completion before any checkpoint, so
        its σ_T is exact.  An observed BF(T′) pass rate sharpens
        ``s_l`` (pass rate ≈ S_L′ + false-positive rate).
        """
        replacements: Dict[str, float] = {}
        sigma_t = self.observed_sigma_t()
        if sigma_t is not None:
            replacements["sigma_t"] = min(1.0, sigma_t)
        sigma_l = self.observed_sigma_l()
        if sigma_l is not None:
            replacements["sigma_l"] = min(1.0, sigma_l)
        hit_rate = self.bloom_hit_rate()
        if hit_rate is not None:
            replacements["s_l"] = min(
                1.0, max(hit_rate - base.bloom_fpr, 1e-4)
            )
        if not replacements:
            return base
        return dataclasses.replace(base, **replacements)


class ArtifactBank(RunObserver):
    """Materialised artifacts that survive a plan switch legally.

    Reuse is legal because the data plane is deterministic and the
    query is unchanged within one adaptive run: the filtered T′
    partitions and the merged BF(T′) a new segment would build are
    bit-identical to the banked ones.  Banked Bloom filters are reused
    *by object*.  Each segment's run banks and borrows through the
    bank's run-observer hooks.
    """

    def __init__(self):
        self._blooms: Dict[Tuple, object] = {}
        self._db_filters: Dict[str, Tuple[List[object], int]] = {}
        self.bloom_reuses = 0
        self.db_filter_reuses = 0

    # -- BF(T') --------------------------------------------------------
    def bank_bloom(self, key: Tuple, result) -> None:
        self._blooms.setdefault(key, result)

    def banked_bloom(self, key: Tuple):
        result = self._blooms.get(key)
        if result is not None:
            self.bloom_reuses += 1
        return result

    # -- filtered T' partitions ----------------------------------------
    def bank_db_filter(self, key: str, parts, matched: int) -> None:
        self._db_filters.setdefault(key, (parts, matched))

    def banked_db_filter(self, key: str):
        entry = self._db_filters.get(key)
        if entry is not None:
            self.db_filter_reuses += 1
        return entry

    @property
    def has_db_filter(self) -> bool:
        return bool(self._db_filters)


class AdaptiveContext(RunObserver):
    """The observer of one plan segment's run.

    ``reoptimizer`` is ``None`` for collect-only segments (statistics
    flow, checkpoints never fire) — the mode used when the run carries a
    fault plan, where abandoning a half-recovered scan has no defined
    semantics, and for the final segment after the switch budget is
    spent.
    """

    def __init__(self, collector: RuntimeStatsCollector,
                 reoptimizer=None):
        self.collector = collector
        self.reoptimizer = reoptimizer
        #: The observed run's trace; the run hands it over when it opens.
        self.trace = None
        #: Fractional checkpoints already evaluated (fire each once).
        self._fired: set = set()

    # -- what the run reports ------------------------------------------
    def on_run_begin(self, trace) -> None:
        self.trace = trace

    def on_db_filter(self, rows_scanned: int, rows_out: int) -> None:
        self.collector.db_rows_scanned += rows_scanned
        self.collector.db_rows_out += rows_out

    def on_scan_begin(self, total_blocks: int) -> None:
        self.collector.total_blocks += total_blocks

    def on_scan_block(self, rows_scanned: int, stored_bytes: float,
                      rows_after_predicates: int, rows_after_bloom: int,
                      bloom_applied: bool) -> None:
        collector = self.collector
        collector.blocks_done += 1
        collector.rows_scanned += rows_scanned
        collector.stored_bytes_scanned += stored_bytes
        collector.rows_after_predicates += rows_after_predicates
        collector.rows_after_bloom += rows_after_bloom
        collector.bloom_applied = collector.bloom_applied or bloom_applied
        if self.reoptimizer is None:
            return
        progress = collector.scan_progress()
        for mark in CHECKPOINTS:
            if progress >= mark > 0 and mark not in self._fired \
                    and progress < 1.0:
                self._fired.add(mark)
                decision = self.reoptimizer.evaluate(collector, progress)
                if decision is not None:
                    raise SwitchSignal(decision)

    def on_checkpoint(self, label: str) -> None:
        """A named (non-fractional) checkpoint, e.g. after T′ build."""
        if self.reoptimizer is None or label in self._fired:
            return
        self._fired.add(label)
        decision = self.reoptimizer.evaluate(
            self.collector, self.collector.scan_progress()
        )
        if decision is not None:
            raise SwitchSignal(decision)
