"""The four workloads and the session that builds and runs one.

Every workload uses the paper's Section 5 data at 1/10 000 scale (the
``WorkloadSpec`` default sizes: T 160 000 rows, L 1 500 000 rows, 1 600
keys; 30 + 30 simulated workers; the two paper indexes on T) generated
from the run's seed, with sigma_T 0.1, S_T' 0.2, S_L' 0.1.  What
differs is which layers carry the op; ``why`` records that, and is
what ``BENCHMARK.json`` prints.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence


@dataclass(frozen=True)
class Workload:
    """One set of inputs the benchmark runs."""

    name: str
    why: str
    #: Registry name of the join algorithm one op runs ("" = service).
    algorithm: str
    sigma_l: float
    hdfs_format: str = "parquet"
    late_materialization: bool = False
    #: Fewest measured ops of a run, however short ``--seconds``.
    min_ops: int = 40
    #: Ops between two rebuilds of the set-up phase (one round).
    ops_per_round: int = 4

    @property
    def service(self) -> bool:
        """Whether one op is a whole query stream through the service."""
        return not self.algorithm


WORKLOADS = (
    Workload(
        "scan_zigzag",
        "zigzag on Parquet, sigma_L 0.1: BF_DB prunes 90% of L in the "
        "scan, so the 240-block jen scan loop and the fused core.bloom "
        "probe/insert carry the op",
        algorithm="zigzag", sigma_l=0.1),
    Workload(
        "shuffle_repartition",
        "repartition without Bloom filter, sigma_L 0.4: four times the "
        "rows survive, so partition, shuffle and join_and_aggregate "
        "carry the op; the bypass for any Bloom change",
        algorithm="repartition", sigma_l=0.4),
    Workload(
        "db_thin_text",
        "db(BF) on text L with late materialization: EDW-built Bloom "
        "filter (probe only), text parse, thin wirecodec frames over the "
        "cross-cluster link, stitch, join inside edw",
        algorithm="db(BF)", sigma_l=0.2, hdfs_format="text",
        late_materialization=True),
    Workload(
        "service_stream",
        "one op = fresh QueryService (2 slots), 12 SQL submissions over 4 "
        "templates, 2 tenants: sql, advisor, admission, fair-share replay "
        "and the three caches; 7 of 12 repeat a finished plan",
        algorithm="", sigma_l=0.4, min_ops=20, ops_per_round=2),
)


def workload_by_name(name: str) -> Workload:
    """Look a workload up; raises ``KeyError`` listing the valid names."""
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise KeyError(
        f"unknown workload {name!r}; valid: "
        + ", ".join(workload.name for workload in WORKLOADS))


# ----------------------------------------------------------------------
# The service stream
# ----------------------------------------------------------------------
#: Shape of one ``service_stream`` op: which template arrives when.
#: The stream is part of the workload, not of the seed (the seed makes
#: the tables): every template arrives three times, template 0 twice in
#: a row so its repeat finds the first run still in flight (a miss that
#: shares only the Bloom filter), and every other repeat lands at least
#: 180 simulated seconds after its first arrival, long after that one
#: finished.  Five arrivals execute, seven are result-cache hits, for
#: any seed.
STREAM_TEMPLATES = (0, 0, 1, 2, 3, 1, 0, 2, 3, 1, 2, 3)
STREAM_BEST_EFFORT = (3, 7, 10)
STREAM_TENANTS = 2
STREAM_GAP_SIM_S = 60.0
#: The stream must keep sharing work: outside this realised result-cache
#: hit rate the op no longer measures what its rationale says.
RESULT_HIT_RATE_RANGE = (0.3, 0.8)


@dataclass(frozen=True)
class Submission:
    """One arrival of the stream."""

    template: int
    tenant: str
    at: float
    priority: int


STREAM = tuple(
    Submission(template=template,
               tenant=f"tenant-{index % STREAM_TENANTS}",
               at=index * STREAM_GAP_SIM_S,
               priority=1 if index in STREAM_BEST_EFFORT else 0)
    for index, template in enumerate(STREAM_TEMPLATES)
)


def template_sql(workload, t_factor: float, l_factor: float) -> str:
    """The paper's statement with the independent thresholds scaled.

    The SQL twin of ``repro.service.stream.build_template_query``, which
    the oracle runs: the service has to parse and translate this text
    into the same plan.
    """
    t_thr, l_thr = workload.t_thresholds, workload.l_thresholds
    t_ind = max(0, round(t_thr.ind_threshold * t_factor))
    l_ind = max(0, round(l_thr.ind_threshold * l_factor))
    return (
        "SELECT extract_group(L.groupByExtractCol) AS url_prefix, "
        "COUNT(*) AS views FROM T, L "
        f"WHERE T.corPred <= {t_thr.cor_threshold} "
        f"AND T.indPred <= {t_ind} "
        f"AND L.corPred <= {l_thr.cor_threshold} "
        f"AND L.indPred <= {l_ind} "
        "AND T.joinKey = L.joinKey "
        "AND days(T.predAfterJoin) - days(L.predAfterJoin) >= 0 "
        "AND days(T.predAfterJoin) - days(L.predAfterJoin) <= 1 "
        "GROUP BY extract_group(L.groupByExtractCol)"
    )


# ----------------------------------------------------------------------
# One built warehouse and how to run an op on it
# ----------------------------------------------------------------------
@dataclass
class QueryRecord:
    """What one query of an op produced."""

    #: Index into :attr:`Session.oracle_queries`.
    template: int
    status: str
    result: Optional[object]
    sim_seconds: float
    #: ``None`` when the service answered from its result cache.
    join_result: Optional[object] = None
    queue_wait: float = 0.0


@dataclass
class OpRecord:
    """Everything one op produced."""

    queries: List[QueryRecord]
    #: Realised cache hit rates of the op's service, by cache.
    hit_rates: Optional[Dict[str, float]] = None


class Session:
    """The set-up phase of one workload, and the op it then repeats.

    Constructing a session is exactly what ``setup_s`` times: generate T
    and L, load T and build both indexes, write L, build the query, run
    it once cold.  ``stage_seconds`` keeps the per-stage split for the
    load-path layer metrics.
    """

    def __init__(self, workload: Workload, seed: int,
                 rows_scale: float = 1.0):
        from repro import (
            HybridWarehouse,
            WorkloadSpec,
            build_paper_query,
            default_config,
            generate_workload,
        )
        from repro.latemat import set_late_materialization_enabled
        from repro.service.stream import (
            build_template_query,
            template_factors,
        )

        self.workload = workload
        self.stage_seconds: Dict[str, float] = {}
        self._service_config = None
        self._previous_latemat = set_late_materialization_enabled(
            workload.late_materialization)

        spec = WorkloadSpec(sigma_t=0.1, sigma_l=workload.sigma_l,
                            s_t=0.2, s_l=0.1, seed=seed)
        spec = dataclasses.replace(
            spec,
            t_rows=int(spec.t_rows * rows_scale),
            l_rows=int(spec.l_rows * rows_scale),
            n_keys=int(spec.n_keys * rows_scale),
        )
        self.data = self._stage("generate", generate_workload, spec)
        self.warehouse = HybridWarehouse(
            default_config(scale=1e-4 * rows_scale))
        self._stage("edw_load", self.warehouse.load_db_table,
                    "T", self.data.t_table, distribute_on="uniqKey")
        self._stage("edw_index", self._create_indexes)
        self._stage("hdfs_write", self.warehouse.load_hdfs_table,
                    "L", self.data.l_table, workload.hdfs_format)

        if workload.service:
            from repro import AdmissionConfig, ServiceConfig

            factors = template_factors(max(STREAM_TEMPLATES) + 1)
            self.oracle_queries = [
                build_template_query(self.data, t_factor, l_factor)
                for t_factor, l_factor in factors
            ]
            self._sql = [template_sql(self.data, t_factor, l_factor)
                         for t_factor, l_factor in factors]
            self._service_config = ServiceConfig(
                admission=AdmissionConfig(slots=2))
            self._stage("cold_run", self._run_stream, STREAM[:1])
        else:
            from repro import algorithm_by_name

            self.oracle_queries = [build_paper_query(self.data)]
            self._algorithm = algorithm_by_name(workload.algorithm)
            self._stage("cold_run", self.run_op)

    def _stage(self, key: str, fn, *args, **kwargs):
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        self.stage_seconds[key] = time.perf_counter() - started
        return result

    def _create_indexes(self) -> None:
        database = self.warehouse.database
        database.create_index("T", "idx_pred", ["corPred", "indPred"])
        database.create_index(
            "T", "idx_bloom", ["corPred", "indPred", "joinKey"])

    # ------------------------------------------------------------------
    def run_op(self) -> OpRecord:
        """One closed-loop op: returns when every query has its answer."""
        if self.workload.service:
            return self._run_stream(STREAM)
        run = self._algorithm.run(self.warehouse, self.oracle_queries[0])
        return OpRecord([QueryRecord(
            template=0, status="ok", result=run.result,
            sim_seconds=run.total_seconds, join_result=run,
        )])

    def _run_stream(self, stream: Sequence[Submission]) -> OpRecord:
        from repro import QueryService

        service = QueryService(self.warehouse, self._service_config)
        for submission in stream:
            service.submit(self._sql[submission.template],
                           tenant=submission.tenant, at=submission.at,
                           priority=submission.priority)
        report = service.drain()
        queries = [
            QueryRecord(
                template=submission.template, status=outcome.status,
                result=outcome.result, sim_seconds=outcome.latency,
                join_result=outcome.join_result,
                queue_wait=outcome.queue_wait,
            )
            for submission, outcome in zip(stream, report.outcomes)
        ]
        return OpRecord(queries, hit_rates={
            "result": service.result_cache.hit_rate(),
            "bloom": service.bloom_builder.cache.hit_rate(),
            "join_index": service.join_index_provider.cache.hit_rate(),
        })

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Undo the process-global switch; let go of the tables."""
        from repro.latemat import set_late_materialization_enabled

        set_late_materialization_enabled(self._previous_latemat)
        self.data = self.warehouse = None
