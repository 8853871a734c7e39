"""The five hybrid-warehouse join algorithms (paper Section 3).

========================  ======================================  =========
Algorithm                  Bloom filters                          Join site
========================  ======================================  =========
:class:`DbSideJoin`        optional BF(T′) pushed to HDFS          database
:class:`BroadcastJoin`     none (T′ must be tiny)                  HDFS
:class:`RepartitionJoin`   optional BF(T′) pushed to HDFS          HDFS
:class:`ZigzagJoin`        BF(T′) *and* BF(L″) — both directions   HDFS
========================  ======================================  =========

Every algorithm executes the real data plane (rows actually move between
the simulated engines) and emits a priced execution trace that the time
plane replays with pipelining.
"""

from repro.core.joins.base import (
    ALGORITHMS,
    ExecutionContext,
    JoinAlgorithm,
    JoinResult,
    JoinStats,
    algorithm_by_name,
    register_algorithm,
    valid_algorithm_names,
)
from repro.core.joins.db_side import DbSideJoin
from repro.core.joins.broadcast import BroadcastJoin
from repro.core.joins.repartition import RepartitionJoin
from repro.core.joins.zigzag import ZigzagJoin
from repro.core.joins.zigzag_db import ZigzagDbJoin
from repro.core.joins.semijoin import PerfJoin, SemiJoin
# Registered last: the adaptive wrapper re-dispatches through the
# registry the static algorithms just filled, and the approximate join
# layers block sampling over the shared exact plumbing.
from repro.adaptive.algorithm import AdaptiveJoin
from repro.approx.algorithm import ApproxJoin

__all__ = [
    "ALGORITHMS",
    "AdaptiveJoin",
    "ApproxJoin",
    "BroadcastJoin",
    "DbSideJoin",
    "ExecutionContext",
    "JoinAlgorithm",
    "JoinResult",
    "JoinStats",
    "PerfJoin",
    "RepartitionJoin",
    "SemiJoin",
    "ZigzagDbJoin",
    "ZigzagJoin",
    "algorithm_by_name",
    "register_algorithm",
    "valid_algorithm_names",
]
