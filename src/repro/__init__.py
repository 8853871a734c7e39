"""repro — reproduction of "Joins for Hybrid Warehouses: Exploiting
Massive Parallelism in Hadoop and Enterprise Data Warehouses"
(Tian, Zou, Özcan, Goncalves, Pirahesh — EDBT 2015).

The library simulates the paper's full stack: a shared-nothing parallel
database (:mod:`repro.edw`), an HDFS cluster with text and Parquet-like
storage (:mod:`repro.hdfs`), the JEN execution engine (:mod:`repro.jen`),
the network between them (:mod:`repro.net`), and a discrete-event time
plane (:mod:`repro.sim`) — plus the paper's contribution on top: Bloom
filters and the five hybrid join algorithms including the zigzag join
(:mod:`repro.core`).

Quickstart::

    from repro import (HybridWarehouse, WorkloadSpec, generate_workload,
                       build_paper_query, ZigzagJoin)

    workload = generate_workload(WorkloadSpec(
        sigma_t=0.1, sigma_l=0.4, s_t=0.2, s_l=0.1))
    warehouse = HybridWarehouse()
    warehouse.load_db_table("T", workload.t_table, distribute_on="uniqKey")
    warehouse.database.create_index("T", "idx_pred", ["corPred", "indPred"])
    warehouse.database.create_index(
        "T", "idx_bloom", ["corPred", "indPred", "joinKey"])
    warehouse.load_hdfs_table("L", workload.l_table, "parquet")

    result = ZigzagJoin().run(warehouse, build_paper_query(workload))
    print(result.summary())
"""

from repro.config import (
    BloomFilterConfig,
    ClusterConfig,
    CostModel,
    HybridConfig,
    PaperScale,
    default_config,
)
from repro.core import (
    ALGORITHMS,
    AdvisorDecision,
    BloomFilter,
    BroadcastJoin,
    DbSideJoin,
    JoinAdvisor,
    JoinAlgorithm,
    JoinResult,
    JoinStats,
    RepartitionJoin,
    ZigzagJoin,
    algorithm_by_name,
    valid_algorithm_names,
)
from repro.core.advisor import WorkloadEstimate
from repro.query import (
    HybridQuery,
    SelectivityReport,
    measure_selectivities,
)
from repro.service import (
    AdmissionConfig,
    QueryService,
    ServiceConfig,
    StreamSpec,
    generate_query_stream,
)
from repro.sql import SqlResult, SqlSession
from repro.warehouse import HybridWarehouse
from repro.workload import (
    Workload,
    WorkloadSpec,
    build_paper_query,
    generate_workload,
)

__version__ = "1.0.0"

__all__ = [
    "ALGORITHMS",
    "AdmissionConfig",
    "AdvisorDecision",
    "BloomFilter",
    "BloomFilterConfig",
    "BroadcastJoin",
    "ClusterConfig",
    "CostModel",
    "DbSideJoin",
    "HybridConfig",
    "HybridQuery",
    "HybridWarehouse",
    "JoinAdvisor",
    "JoinAlgorithm",
    "JoinResult",
    "JoinStats",
    "PaperScale",
    "QueryService",
    "RepartitionJoin",
    "SelectivityReport",
    "ServiceConfig",
    "SqlResult",
    "SqlSession",
    "StreamSpec",
    "Workload",
    "WorkloadEstimate",
    "WorkloadSpec",
    "ZigzagJoin",
    "algorithm_by_name",
    "build_paper_query",
    "default_config",
    "generate_query_stream",
    "generate_workload",
    "measure_selectivities",
    "valid_algorithm_names",
    "__version__",
]
