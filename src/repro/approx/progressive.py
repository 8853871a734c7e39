"""Progressive refinement: a stream of monotone snapshots.

A progressive approximate join emits one :class:`Snapshot` per scanned
block: the current estimate per cell, its interval, and the fraction of
the table scanned so far.  Raw interval half-widths are *almost* always
shrinking, but the variance estimate itself is random and can tick up
between blocks; clients of a refining stream expect monotonicity, so
the tracker reports each cell's half-width as the running minimum of
its raw half-widths.  That clamped interval is still a valid
``confidence``-level interval whenever the raw one is (it is centred on
the newest, better estimate and never wider than an interval already
reported), and the raw value is kept on the cell for anyone who wants
the unclamped statistics.

The final snapshot of a run that consumed every block is exact: zero
half-widths, estimate identical to the oracle answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.approx.estimator import ApproxEstimate, CellEstimate, CellKey
from repro.approx.policy import ApproxPolicy


@dataclass(frozen=True)
class Snapshot:
    """One point in a progressive run's refinement stream."""

    blocks_scanned: int
    blocks_total: int
    fraction_scanned: float
    exact: bool
    cells: Dict[CellKey, CellEstimate]

    def max_relative_error(self) -> float:
        """Worst relative half-width across cells (absolute at zero)."""
        worst = 0.0
        for cell in self.cells.values():
            scale = abs(cell.estimate)
            error = cell.half_width / scale if scale else cell.half_width
            worst = max(worst, error)
        return worst


class SnapshotTracker:
    """Turns raw estimates into a monotone refinement stream."""

    def __init__(self):
        self._best_half_widths: Dict[CellKey, float] = {}
        self.snapshots: List[Snapshot] = []

    def record(self, estimate: ApproxEstimate) -> Snapshot:
        """Clamp ``estimate``'s intervals and append a snapshot."""
        cells: Dict[CellKey, CellEstimate] = {}
        for key, cell in estimate.cells.items():
            best = self._best_half_widths.get(key)
            if best is not None:
                cell = cell.clamped(best)
            self._best_half_widths[key] = cell.half_width
            cells[key] = cell
        snapshot = Snapshot(
            blocks_scanned=estimate.blocks_scanned,
            blocks_total=estimate.blocks_total,
            fraction_scanned=estimate.fraction_scanned,
            exact=estimate.exact,
            cells=cells,
        )
        self.snapshots.append(snapshot)
        return snapshot


def error_target_met(snapshot: Snapshot, policy: ApproxPolicy) -> bool:
    """True when every cell satisfies the policy's ``max_error``.

    Relative half-width for non-zero estimates, absolute for zero ones;
    always false before ``min_blocks`` blocks or without a target.
    """
    if policy.max_error is None:
        return False
    if snapshot.blocks_scanned < policy.min_blocks:
        return False
    return snapshot.max_relative_error() <= policy.max_error
