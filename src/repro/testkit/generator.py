"""Seeded data/query/config generation for the differential harness.

A *data case* is (T table, L table, hybrid query) plus the provenance
expression that rebuilds it; a *config cell* is one point on the
metamorphic axes — algorithm, worker count, HDFS storage format,
fault plan, cache cold/warm, estimate error, approximate sampling,
late materialization.  Every (case, cell) pair
must produce exactly the row multiset of
:func:`repro.testkit.oracle.oracle_execute` on the same case.

:func:`generate_data_case` draws a random workload/query from a seed
(Zipf-skewed keys, dtype mixes in the aggregates, selectivity-
controlled predicates); :func:`edge_cases` pins the extremes random
sampling rarely hits (empty filtered sides, a single all-duplicate
join key, empty results, wide dtype aggregation).  The data model has
no SQL NULLs; the closest analogue — join keys that match nothing —
is covered by the disjoint-key-region construction of the workload
generator and the zero-selectivity edge case.

:func:`run_cell` executes one cell end to end under an
:class:`~repro.testkit.invariants.InvariantChecker`, restoring the
late-materialization toggle afterwards, and :func:`default_grid`
builds the seeded cross-axis grid the tier-1 differential test sweeps.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import HybridWarehouse, algorithm_by_name, default_config
from repro.config import ClusterConfig
from repro.core.joins import ExecutionContext
from repro.errors import ServiceError, WorkloadError
from repro.faults import FaultInjector, FaultPlan
from repro.query.query import HybridQuery
from repro.relational.aggregates import AggregateSpec
from repro.relational.expressions import BetweenDayDiff, compare
from repro.relational.table import Table
from repro.testkit.invariants import InvariantChecker
from repro.workload import (
    WorkloadSpec,
    build_paper_query,
    generate_workload,
    load_paper_tables,
    zipf_skew_factor,
)

#: Every registered join algorithm, including the exact baselines and
#: the mid-query re-optimizing wrapper.
ALL_ALGORITHMS = (
    "db", "db(BF)", "broadcast", "repartition", "repartition(BF)",
    "zigzag", "zigzag-db", "semijoin", "perf", "adaptive",
)
#: The metamorphic worker-count axis (1 = fully degenerate cluster).
WORKER_AXIS = (1, 4, 30)
#: HDFS storage-format axis.
FORMAT_AXIS = ("parquet", "text", "orc")
#: Fault-plan axis: one spec per recovery mechanism (crash re-scan,
#: straggler speculation, lossy links with dedup, spill pressure).
FAULT_AXIS = (
    "crash:w2@scan",
    "slow:w1x4",
    "drop:shuffle:0.05,dup:shuffle:0.05",
    "spill:x0.5",
)
#: db_servers per worker count (mirrors the paper's 6-per-server shape).
_DB_SERVERS = {1: 1, 4: 2, 30: 5}
#: Estimate-error axis for adaptive cells: seeded ``(sigma_t_factor,
#: sigma_l_factor)`` pairs scaling the initial estimate.  ``(1.0, 0.1)``
#: is the paper-style 10x sigma_L underestimate that makes the advisor
#: mispick a DB-side plan and forces a mid-scan switch.
ESTIMATE_ERROR_AXIS = (
    (1.0, 0.1), (0.1, 1.0), (1.0, 10.0), (10.0, 1.0),
)
#: The algorithms whose plan shuffles L' with the agreed hash — the
#: only ones a skewed case's hybrid split can change.
SHUFFLE_ALGORITHMS = (
    "repartition", "repartition(BF)", "semijoin", "perf", "zigzag",
)
#: Zipf exponents the skew axis pins (0.0 = uniform control).
KEY_SKEW_AXIS = (0.0, 1.2, 1.8)


@dataclass(frozen=True)
class ConfigCell:
    """One point on the config axes; defaults are the cheapest cell."""

    algorithm: str
    workers: int = 4
    format_name: str = "parquet"
    fault_spec: Optional[str] = None
    cache_warm: bool = False
    #: ``(sigma_t_factor, sigma_l_factor)`` injected into the adaptive
    #: wrapper's initial estimate (only meaningful for ``"adaptive"``).
    estimate_error: Optional[Tuple[float, float]] = None
    #: Block-sampling rate for the approximate tier (only meaningful
    #: for ``"approx"``/``"approx(BF)"`` cells).  ``1.0`` scans every
    #: block, so the cell must be row-identical to the oracle; rates
    #: below 1.0 carry interval semantics and are checked by the
    #: statistical battery instead of the differential grid.
    approx: Optional[float] = None
    #: Thin-row shipping + batched payload stitch (:mod:`repro.latemat`);
    #: results must stay row-identical whatever side defers its payload.
    late_materialization: bool = False

    def label(self) -> str:
        """Compact cell id for test parametrisation and repro output.

        The constant ``kern`` part (every cell runs the vectorised
        kernels) keeps ids stable from when kernels were a grid axis.
        """
        parts = [self.algorithm, f"w{self.workers}", self.format_name, "kern"]
        if self.fault_spec:
            parts.append(f"faults[{self.fault_spec}]")
        if self.cache_warm:
            parts.append("warm")
        if self.estimate_error is not None:
            parts.append(
                f"esterr[{self.estimate_error[0]:g}x,"
                f"{self.estimate_error[1]:g}x]"
            )
        if self.approx is not None:
            parts.append(f"approx{self.approx:g}")
        if self.late_materialization:
            parts.append("latemat")
        return "/".join(parts)


@dataclass(frozen=True)
class DataCase:
    """Tables plus query plus the expression that rebuilds them."""

    name: str
    t_table: Table
    l_table: Table
    query: HybridQuery
    provenance: str
    #: What the tables were drawn from: its key skew and key count
    #: price the shuffle of a warehouse loaded with them.
    spec: WorkloadSpec

    def oracle_rows(self) -> List[Tuple]:
        """The trusted answer for this case, as canonical rows."""
        from repro.testkit import oracle

        return oracle.canonical_rows(
            oracle.oracle_execute(self.t_table, self.l_table, self.query)
        )


# ----------------------------------------------------------------------
# Data cases
# ----------------------------------------------------------------------
def generate_data_case(seed: int, t_rows: int = 1_500,
                       l_rows: int = 6_000) -> DataCase:
    """A random small workload/query, deterministic in ``seed``.

    Randomised: selectivities, join-key skew (uniform or Zipf), the
    aggregate list (count / int32 and int64 sums, mins, maxes) and
    whether the post-join predicate applies.  Infeasible selectivity
    draws fall back to the next derived seed, so every seed yields a
    case.
    """
    rng = np.random.default_rng(seed)
    for attempt in range(16):
        spec = WorkloadSpec(
            sigma_t=float(rng.choice([0.05, 0.1, 0.3, 0.8])),
            sigma_l=float(rng.choice([0.05, 0.2, 0.5])),
            s_l=float(rng.choice([0.1, 0.3, 0.7])),
            t_rows=t_rows, l_rows=l_rows,
            n_keys=int(rng.choice([8, 64, 200])),
            n_urls=40,
            seed=seed * 16 + attempt,
            key_skew=float(rng.choice([0.0, 0.0, 1.2, 1.8])),
        )
        try:
            workload = generate_workload(spec)
        except WorkloadError:
            continue
        break
    else:  # pragma: no cover - the fallback grid above always succeeds
        raise WorkloadError(f"no feasible workload for seed {seed}")

    query = build_paper_query(workload)
    # Dtype-mixing aggregates over the joined wire columns: int32 date
    # and key columns plus the int64 uniqKey when projected.
    aggregate_menu: List[Tuple[AggregateSpec, ...]] = [
        (AggregateSpec("count"),),
        (AggregateSpec("count"), AggregateSpec("sum", "l_predAfterJoin")),
        (AggregateSpec("count"), AggregateSpec("min", "t_predAfterJoin"),
         AggregateSpec("max", "l_joinKey")),
    ]
    replacements: Dict[str, object] = {
        "aggregates": aggregate_menu[int(rng.integers(len(aggregate_menu)))],
    }
    if rng.random() < 0.25:
        replacements["post_join_predicate"] = None
    if rng.random() < 0.25:
        replacements["group_by"] = ("l_joinKey",)
    query = dataclasses.replace(query, **replacements)
    return DataCase(
        name=f"seed{seed}",
        t_table=workload.t_table,
        l_table=workload.l_table,
        query=query,
        provenance=f"generator.generate_data_case(seed={seed})",
        spec=workload.spec,
    )


def _edge_case_builders() -> Dict[str, "callable"]:
    def _paper(seed, **overrides):
        settings = dict(
            sigma_t=0.2, sigma_l=0.3, s_l=0.3, t_rows=600, l_rows=2_400,
            n_keys=48, n_urls=24, seed=seed,
        )
        settings.update(overrides)
        workload = generate_workload(WorkloadSpec(**settings))
        return workload, build_paper_query(workload)

    def empty_t_prime():
        """T's predicate selects nothing: the join input is empty."""
        workload, query = _paper(101)
        return workload, dataclasses.replace(
            query, db_predicate=compare("corPred", "<=", -1)
        )

    def all_duplicate_keys():
        """A single join key: every row collides on one hash bucket."""
        spec = WorkloadSpec(
            sigma_t=0.5, sigma_l=0.5, s_t=1.0, s_l=1.0,
            t_rows=300, l_rows=900, n_keys=1, n_urls=12, seed=102,
        )
        workload = generate_workload(spec)
        return workload, build_paper_query(workload)

    def zipf_skew():
        """Heavily skewed keys: one worker owns most of the shuffle."""
        workload, query = _paper(103, key_skew=1.4, sigma_t=0.5,
                                 sigma_l=0.5, s_l=0.5)
        return workload, query

    def empty_result():
        """Post-join window no date pair can satisfy: empty output."""
        workload, query = _paper(104)
        return workload, dataclasses.replace(
            query,
            post_join_predicate=BetweenDayDiff(
                "t_predAfterJoin", "l_predAfterJoin", low=50, high=60
            ),
        )

    def wide_dtypes():
        """int64 projection plus min/max/sum over mixed-width columns."""
        workload, query = _paper(105)
        return workload, dataclasses.replace(
            query,
            db_projection=("joinKey", "uniqKey", "predAfterJoin"),
            aggregates=(
                AggregateSpec("count"),
                AggregateSpec("max", "t_uniqKey"),
                AggregateSpec("sum", "l_predAfterJoin"),
                AggregateSpec("min", "t_predAfterJoin"),
            ),
        )

    return {
        "empty-t-prime": empty_t_prime,
        "all-duplicate-keys": all_duplicate_keys,
        "zipf-skew": zipf_skew,
        "empty-result": empty_result,
        "wide-dtypes": wide_dtypes,
    }


def skewed_case(key_skew: float, seed: int = 7) -> DataCase:
    """A pinned heavily Zipf-skewed case, where the hybrid split runs.

    Selectivities are kept moderate so the hot keys survive both
    predicates and dominate the shuffle; infeasible draws (high skew
    can starve a correlated key region of probability mass) retry on
    the next derived seed.
    """
    for attempt in range(16):
        spec = WorkloadSpec(
            sigma_t=0.5, sigma_l=0.5, s_l=0.5,
            t_rows=900, l_rows=3_600, n_keys=64, n_urls=24,
            seed=seed * 16 + attempt, key_skew=key_skew,
        )
        try:
            workload = generate_workload(spec)
        except WorkloadError:
            continue
        break
    else:
        raise WorkloadError(
            f"no feasible skewed workload for key_skew={key_skew}"
        )
    return DataCase(
        name=f"skew{key_skew:g}",
        t_table=workload.t_table,
        l_table=workload.l_table,
        query=build_paper_query(workload),
        provenance=(
            f"generator.skewed_case({key_skew!r}, seed={seed})"
        ),
        spec=workload.spec,
    )


#: One pinned seed per aggregate mix the approximate tier estimates.
#: ``count`` and ``sum`` get closed-form interval totals, ``avg`` rides
#: the ratio estimator, ``minmax`` folds extremes without intervals —
#: each kind exercises a different estimator path, so the grids and the
#: statistical battery sweep all of them.
APPROX_KINDS = ("count", "sum", "avg", "minmax")
_APPROX_KIND_SEEDS = {"count": 12, "sum": 5, "avg": 5, "minmax": 7}


def approx_case(kind: str, seed: Optional[int] = None) -> DataCase:
    """A pinned case whose query exercises one aggregate kind.

    The generated aggregate menu never draws ``avg``, so that kind is
    built by replacing the pinned sum case's aggregates with an
    ``avg`` over the same wire column (plus the count the ratio
    estimator decomposes it into anyway).
    """
    if kind not in APPROX_KINDS:
        raise KeyError(
            f"unknown approx kind {kind!r}; have {list(APPROX_KINDS)}"
        )
    case = generate_data_case(
        _APPROX_KIND_SEEDS[kind] if seed is None else seed)
    query = case.query
    if kind == "avg":
        query = dataclasses.replace(query, aggregates=(
            AggregateSpec("count"),
            AggregateSpec("avg", "l_predAfterJoin"),
        ))
    return DataCase(
        name=f"approx-{kind}" if seed is None else f"approx-{kind}{seed}",
        t_table=case.t_table,
        l_table=case.l_table,
        query=query,
        provenance=f"generator.approx_case({kind!r}, seed={seed!r})",
        spec=case.spec,
    )


def edge_case(name: str) -> DataCase:
    """One named extreme (see :func:`edge_cases` for the full set)."""
    builders = _edge_case_builders()
    if name not in builders:
        raise KeyError(
            f"unknown edge case {name!r}; have {sorted(builders)}"
        )
    workload, query = builders[name]()
    return DataCase(
        name=name,
        t_table=workload.t_table,
        l_table=workload.l_table,
        query=query,
        provenance=f"generator.edge_case({name!r})",
        spec=workload.spec,
    )


def edge_cases() -> List[DataCase]:
    """The pinned extremes every grid should visit."""
    return [edge_case(name) for name in _edge_case_builders()]


def with_rows(case: DataCase, t_rows: Sequence[int],
              l_rows: Sequence[int]) -> DataCase:
    """The same case restricted to the given row indices (shrinking)."""
    t_idx = np.asarray(list(t_rows), dtype=np.int64)
    l_idx = np.asarray(list(l_rows), dtype=np.int64)
    return DataCase(
        name=f"{case.name}[{len(t_idx)}x{len(l_idx)}]",
        t_table=case.t_table.take(t_idx),
        l_table=case.l_table.take(l_idx),
        query=case.query,
        provenance=(
            f"generator.with_rows({case.provenance}, "
            f"t_rows={t_idx.tolist()!r}, l_rows={l_idx.tolist()!r})"
        ),
        spec=case.spec,
    )


# ----------------------------------------------------------------------
# Cell execution
# ----------------------------------------------------------------------
def build_cell_warehouse(case: DataCase, workers: int,
                         format_name: str) -> HybridWarehouse:
    """A loaded warehouse sized to one cell's worker axis, its shuffle
    priced at the case's key skew (:func:`zipf_skew_factor`)."""
    config = dataclasses.replace(
        default_config(scale=1.0 / 50_000.0),
        shuffle_skew=zipf_skew_factor(case.spec.key_skew,
                                      case.spec.n_keys, workers),
        cluster=ClusterConfig(
            hdfs_nodes=workers,
            db_workers=workers,
            db_servers=_DB_SERVERS.get(workers, max(1, workers // 6)),
            hdfs_replication=min(2, workers),
        ),
    )
    return load_paper_tables(HybridWarehouse(config), case.t_table,
                             case.l_table, format_name)


def _run_via_service(warehouse, case: DataCase, algorithm: str,
                     checker: InvariantChecker) -> Table:
    """Cold run then warm run through the semantic caches."""
    from repro.service import QueryService, ServiceConfig

    class CheckedService(QueryService):
        def _context(self, query, algorithm):
            return dataclasses.replace(super()._context(query, algorithm),
                                       observers=(checker,))

    service = CheckedService(warehouse, ServiceConfig(
        enable_result_cache=False,  # a result-cache hit would be trivial
        enable_feedback=False,
    ))
    service.execute(case.query, algorithm=algorithm)
    warm = service.execute(case.query, algorithm=algorithm)
    if warm.status != "ok":
        raise ServiceError(
            f"warm-cache run failed: {warm.status} {warm.error}"
        )
    return warm.result


def run_cell(case: DataCase, cell: ConfigCell,
             warehouse: Optional[HybridWarehouse] = None,
             checker: Optional[InvariantChecker] = None) -> Table:
    """Execute one (case, cell) pair and return the result table.

    Every run of the cell is observed by ``checker`` (a fresh
    :class:`~repro.testkit.invariants.InvariantChecker` by default),
    so a broken engine invariant raises, and a fault cell's plan rides
    the run's context.  The late-materialization toggle is restored on
    every exit path, so grid sweeps cannot leak configuration between
    cells.  Pass a ``warehouse`` (matching the cell's worker count and
    format) to amortise loading across cells.
    """
    if warehouse is None:
        warehouse = build_cell_warehouse(
            case, cell.workers, cell.format_name
        )
    from repro.latemat import set_late_materialization_enabled

    checker = checker or InvariantChecker()
    context = ExecutionContext(
        observers=(checker,),
        faults=(FaultInjector(FaultPlan.from_spec(cell.fault_spec))
                if cell.fault_spec else None))
    previous_latemat = set_late_materialization_enabled(
        cell.late_materialization)
    algorithm_kwargs = {}
    if cell.estimate_error is not None:
        algorithm_kwargs["estimate_errors"] = cell.estimate_error
    if cell.approx is not None:
        algorithm_kwargs["sample_rate"] = cell.approx
    try:
        if cell.cache_warm:
            return _run_via_service(warehouse, case, cell.algorithm,
                                    checker)
        return algorithm_by_name(cell.algorithm, **algorithm_kwargs).run(
            warehouse, case.query, context
        ).result
    finally:
        set_late_materialization_enabled(previous_latemat)


class WarehouseCache:
    """Memoises loaded warehouses per (case, workers, format).

    Cells only ever read the loaded tables, so one warehouse can back
    every cell that shares a data case, worker count and format.
    """

    def __init__(self):
        self._entries: Dict[Tuple[str, int, str], HybridWarehouse] = {}

    def get(self, case: DataCase, cell: ConfigCell) -> HybridWarehouse:
        key = (case.name, cell.workers, cell.format_name)
        if key not in self._entries:
            self._entries[key] = build_cell_warehouse(
                case, cell.workers, cell.format_name
            )
        return self._entries[key]


# ----------------------------------------------------------------------
# Grids
# ----------------------------------------------------------------------
def default_grid(seed: int = 2015) -> List[Tuple[DataCase, ConfigCell]]:
    """The seeded tier-1 grid: 213 cells across every axis.

    The first seeded case sweeps the full cross of algorithms x worker
    counts, plus the format, fault and warm-cache axes; a second seeded
    case and every pinned edge case sweep all algorithms.
    """
    base = generate_data_case(seed)
    grid: List[Tuple[DataCase, ConfigCell]] = []
    for algorithm in ALL_ALGORITHMS:
        for workers in WORKER_AXIS:
            grid.append((base, ConfigCell(algorithm, workers=workers)))
        for format_name in ("text", "orc"):
            grid.append((base, ConfigCell(
                algorithm, workers=4, format_name=format_name,
            )))
        for fault_spec in FAULT_AXIS:
            grid.append((base, ConfigCell(
                algorithm, workers=30, fault_spec=fault_spec,
            )))
        grid.append((base, ConfigCell(
            algorithm, workers=4, cache_warm=True,
        )))
    # Adaptive x injected estimate errors: each pair makes the initial
    # advice wrong in a different direction; the result must still be
    # the oracle's, wherever (or whether) the switch lands.
    for estimate_error in ESTIMATE_ERROR_AXIS:
        grid.append((base, ConfigCell(
            "adaptive", workers=4, estimate_error=estimate_error,
        )))
    extra_cases = [generate_data_case(seed + 1)] + edge_cases()
    for case in extra_cases:
        for algorithm in ALL_ALGORITHMS:
            grid.append((case, ConfigCell(algorithm, workers=4)))
    # Skewed data: every shuffle-using algorithm on the pinned heavily
    # skewed case, where the hybrid split runs — plus every fault plan
    # (detection, broadcast split and work stealing must all survive
    # crashes, stragglers, lossy links and spill pressure without
    # changing a row).
    hot = skewed_case(1.8)
    for algorithm in SHUFFLE_ALGORITHMS:
        grid.append((hot, ConfigCell(algorithm, workers=4)))
        for fault_spec in FAULT_AXIS:
            grid.append((hot, ConfigCell(
                algorithm, workers=30, fault_spec=fault_spec,
            )))
    # Late-materialization axis: thin-row shipping + payload stitch
    # must be row-identical everywhere it can activate — every
    # algorithm on a wide-payload case (where both stores engage),
    # across formats, on the hot case, and under a fault plan.
    wide = edge_case("wide-dtypes")
    for algorithm in ALL_ALGORITHMS:
        grid.append((wide, ConfigCell(
            algorithm, workers=4, late_materialization=True,
        )))
    for format_name in ("text", "orc"):
        grid.append((wide, ConfigCell(
            "repartition", workers=4, format_name=format_name,
            late_materialization=True,
        )))
    for algorithm in ("repartition(BF)", "zigzag"):
        grid.append((hot, ConfigCell(
            algorithm, workers=4, late_materialization=True,
        )))
    grid.append((wide, ConfigCell(
        "zigzag", workers=30, fault_spec=FAULT_AXIS[0],
        late_materialization=True,
    )))
    grid.append((wide, ConfigCell(
        "repartition", workers=30, fault_spec=FAULT_AXIS[3],
        late_materialization=True,
    )))
    # Approx axis at rate 1.0: sampling every block must reproduce the
    # exact answer bit-for-bit on every aggregate kind, with and
    # without the Bloom filter — the degenerate end of the statistical
    # contract, checked with the same differential machinery as every
    # exact cell.
    for kind in APPROX_KINDS:
        case = approx_case(kind)
        for algorithm in ("approx", "approx(BF)"):
            grid.append((case, ConfigCell(
                algorithm, workers=4, approx=1.0,
            )))
    return grid


def wide_grid(seeds: Sequence[int]) -> List[Tuple[DataCase, ConfigCell]]:
    """The slow-marked sweep: the full axis cross per seeded case."""
    grid: List[Tuple[DataCase, ConfigCell]] = []
    for seed in seeds:
        case = generate_data_case(seed)
        for algorithm in ALL_ALGORITHMS:
            for workers in WORKER_AXIS:
                for format_name in FORMAT_AXIS:
                    grid.append((case, ConfigCell(
                        algorithm, workers=workers, format_name=format_name,
                    )))
            for fault_spec in FAULT_AXIS:
                grid.append((case, ConfigCell(
                    algorithm, workers=30, fault_spec=fault_spec,
                )))
            grid.append((case, ConfigCell(
                algorithm, workers=30, cache_warm=True,
            )))
        for estimate_error in ESTIMATE_ERROR_AXIS:
            for workers in WORKER_AXIS:
                grid.append((case, ConfigCell(
                    "adaptive", workers=workers,
                    estimate_error=estimate_error,
                )))
        for key_skew in KEY_SKEW_AXIS[1:]:
            hot = skewed_case(key_skew, seed=seed)
            for algorithm in SHUFFLE_ALGORITHMS:
                for workers in WORKER_AXIS:
                    grid.append((hot, ConfigCell(algorithm,
                                                 workers=workers)))
        # Crashes on two- and three-worker clusters, where a hot key's
        # fan-out (sized at scan start) can outgrow the survivors.
        for key_skew in (1.8, 2.5):
            hot = skewed_case(key_skew, seed=seed)
            for workers in (2, 3):
                for phase in ("scan", "shuffle"):
                    for algorithm in SHUFFLE_ALGORITHMS:
                        grid.append((hot, ConfigCell(
                            algorithm, workers=workers,
                            fault_spec=f"crash:w{workers - 1}@{phase}",
                        )))
    return grid
