"""Generic parameter sweeps over the join algorithms.

The registered experiments reproduce the paper's exact grids; this
module is the open-ended version — sweep any combination of σ_T, σ_L,
S_T′, S_L′ and storage format over any algorithm set, and get back rows
ready for :func:`repro.bench.reporting.format_series` or the ASCII
figure renderer.  Powers ``python -m repro sweep``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.harness import WarehouseCache
from repro.core.joins import algorithm_by_name
from repro.errors import ReproError, WorkloadError


@dataclass(frozen=True)
class SweepPoint:
    """One (σ_T, σ_L, S_T′, S_L′, format) combination."""

    sigma_t: float
    sigma_l: float
    s_t: Optional[float] = None
    s_l: Optional[float] = 0.1
    format_name: str = "parquet"

    def label(self) -> str:
        """Compact rendering for tables."""
        parts = [f"sT={self.sigma_t:g}", f"sL={self.sigma_l:g}"]
        if self.s_t is not None:
            parts.append(f"ST'={self.s_t:g}")
        if self.s_l is not None:
            parts.append(f"SL'={self.s_l:g}")
        if self.format_name != "parquet":
            parts.append(self.format_name)
        return " ".join(parts)


@dataclass
class SweepResult:
    """All rows of one sweep plus any skipped (infeasible) points."""

    rows: List[Dict] = field(default_factory=list)
    skipped: List[Tuple[SweepPoint, str]] = field(default_factory=list)

    def winners(self) -> Dict[str, str]:
        """Fastest algorithm per sweep point."""
        best: Dict[str, Tuple[str, float]] = {}
        for row in self.rows:
            current = best.get(row["point"])
            if current is None or row["seconds"] < current[1]:
                best[row["point"]] = (row["algorithm"], row["seconds"])
        return {point: name for point, (name, _s) in best.items()}


def run_sweep(
    points: Sequence[SweepPoint],
    algorithms: Sequence[str],
    cache: Optional[WarehouseCache] = None,
) -> SweepResult:
    """Run every algorithm at every point.

    Points whose selectivity combination the workload generator rejects
    are recorded in ``skipped`` rather than aborting the sweep.
    """
    if not points:
        raise ReproError("sweep needs at least one point")
    if not algorithms:
        raise ReproError("sweep needs at least one algorithm")
    cache = cache or WarehouseCache()
    result = SweepResult()
    for point in points:
        try:
            setup = cache.setup(
                point.sigma_t, point.sigma_l,
                s_t=point.s_t, s_l=point.s_l,
                format_name=point.format_name,
            )
        except WorkloadError as error:
            result.skipped.append((point, str(error)))
            continue
        for name in algorithms:
            run = algorithm_by_name(name).run(
                setup.warehouse, setup.query
            )
            paper = run.paper_stats()
            result.rows.append({
                "point": point.label(),
                "sigma_T": point.sigma_t,
                "sigma_L": point.sigma_l,
                "format": point.format_name,
                "algorithm": name,
                "seconds": run.total_seconds,
                "shuffled_M": paper.hdfs_tuples_shuffled / 1e6,
                "db_sent_M": paper.db_tuples_sent / 1e6,
            })
    return result


def grid(sigma_ts: Sequence[float], sigma_ls: Sequence[float],
         s_l: float = 0.1, format_name: str = "parquet"
         ) -> List[SweepPoint]:
    """The cartesian σ_T × σ_L grid the paper's figures use."""
    return [
        SweepPoint(sigma_t=sigma_t, sigma_l=sigma_l, s_l=s_l,
                   format_name=format_name)
        for sigma_t in sigma_ts
        for sigma_l in sigma_ls
    ]
