"""Warehouse construction and caching for the experiment sweeps.

Each figure sweeps several (σ, S) settings; building a workload and
loading both engines is the expensive part, so :class:`WarehouseCache`
memoises fully loaded warehouses keyed by the workload spec, the storage
format and the data-plane scale.  Simulated times are independent of the
materialised scale (volumes are rescaled before pricing), so benchmarks
default to a smaller data plane than the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.config import HybridConfig, default_config
from repro.core.joins.base import JoinResult
from repro.core.joins import algorithm_by_name
from repro.warehouse import HybridWarehouse
from repro.workload import (
    Workload,
    WorkloadSpec,
    build_paper_query,
    generate_workload,
    load_paper_tables,
)
from repro.query.query import HybridQuery

#: Default benchmark data-plane size: 1/25,000 of paper scale keeps a
#: full figure sweep under a few seconds while the simulated results
#: stay at paper scale.
BENCH_SCALE = 1.0 / 25_000.0


@dataclass
class BenchSetup:
    """A loaded warehouse plus the query for one experiment point."""

    warehouse: HybridWarehouse
    query: HybridQuery
    workload: Workload


def make_spec(sigma_t: float, sigma_l: float,
              s_t: Optional[float] = None, s_l: Optional[float] = None,
              scale: float = BENCH_SCALE) -> WorkloadSpec:
    """A workload spec at the given fraction of the paper's table sizes."""
    return WorkloadSpec(
        sigma_t=sigma_t,
        sigma_l=sigma_l,
        s_t=s_t,
        s_l=s_l,
        t_rows=max(1000, int(1_600_000_000 * scale)),
        l_rows=max(10_000, int(15_000_000_000 * scale)),
        n_keys=max(100, int(16_000_000 * scale)),
    )


def build_setup(spec: WorkloadSpec, format_name: str = "parquet",
                scale: float = BENCH_SCALE,
                config: Optional[HybridConfig] = None) -> BenchSetup:
    """Generate the workload and load both engines (uncached)."""
    config = config or default_config(scale=scale)
    workload = generate_workload(spec)
    return BenchSetup(
        warehouse=load_paper_tables(HybridWarehouse(config),
                                    workload.t_table, workload.l_table,
                                    format_name),
        query=build_paper_query(workload),
        workload=workload,
    )


class WarehouseCache:
    """Memoised :func:`build_setup` keyed by (spec, format, scale)."""

    def __init__(self, scale: float = BENCH_SCALE):
        self.scale = scale
        self._cache: Dict[Tuple, BenchSetup] = {}

    def setup(self, sigma_t: float, sigma_l: float,
              s_t: Optional[float] = None, s_l: Optional[float] = None,
              format_name: str = "parquet") -> BenchSetup:
        """A loaded warehouse for these parameters (cached)."""
        key = (sigma_t, sigma_l, s_t, s_l, format_name, self.scale)
        if key not in self._cache:
            spec = make_spec(sigma_t, sigma_l, s_t, s_l, scale=self.scale)
            self._cache[key] = build_setup(
                spec, format_name=format_name, scale=self.scale
            )
        return self._cache[key]

    def clear(self) -> None:
        """Drop all cached warehouses."""
        self._cache.clear()


def run_algorithms(setup: BenchSetup, names: List[str]
                   ) -> Dict[str, JoinResult]:
    """Run the named algorithms on one setup."""
    return {
        name: algorithm_by_name(name).run(setup.warehouse, setup.query)
        for name in names
    }
