"""Semantic caching for the query service.

Three artifacts of a hybrid-join execution are worth keeping across a
query stream:

* **the result** — the paper's query template always groups and
  aggregates, so results are small; a repeated query (same normalised
  plan) is answered from the coordinator without touching either
  cluster, and — because every algorithm is exact — a result computed
  by *any* algorithm serves a repeat regardless of which algorithm the
  advisor would pick this time;
* **the merged database Bloom filter BF(T′)** — the paper's Section 3
  filter depends only on the database table, its local predicate and
  the join key, *not* on the HDFS side of the query.  Two queries that
  share those (e.g. the same transaction filter joined against
  different log slices) can reuse one OR-merged filter, skipping the
  ``cal_filter``/``combine_filter`` pipeline entirely;
* **the join build index** — JEN's local join sorts every worker's
  build side (the filtered HDFS rows it received) in one slot-keyed
  index before probing.  Two queries whose HDFS side is unchanged —
  same table, predicate, derivations and join key, pruned by the same
  database filter — deliver byte-identical build partitions to each
  worker, so the sorted :class:`~repro.kernels.JoinBuildIndex` can be
  reused and only the probe runs.  Reuse is *verified*: a cached
  index is compared against the fresh build keys and slot boundaries
  (O(n), versus the O(n log n) sort it saves) and silently rebuilt on
  any mismatch, so a stale entry can never change a result.

Keys are *semantic*: predicates are normalised (conjunction and
disjunction children sorted, literals rendered canonically), so two
syntactically different but identical plans share an entry.  With
``literals=False`` the same normalisation yields a *template* key —
the plan with its constants stripped — which is what the feedback loop
(:mod:`repro.service.feedback`) aggregates observations under.

The caches are bounded LRU maps.  Entries are returned by reference
and must be treated as immutable, matching the read-only convention of
the rest of the data plane.  The Bloom and join-index caches reach a
query only through its :class:`~repro.core.joins.base.ExecutionContext`,
never through the shared warehouse.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import OrderedDict
from typing import Optional

from repro.errors import ServiceError
from repro.kernels.joinindex import JoinBuildIndex
from repro.query.query import HybridQuery
from repro.relational.expressions import (
    BetweenDayDiff,
    ColumnPairPredicate,
    ColumnPredicate,
    Conjunction,
    InSetPredicate,
    Predicate,
    TruePredicate,
    UdfPredicate,
)
from repro.relational.table import Table
from repro.service.metrics import MetricsRegistry


# ----------------------------------------------------------------------
# Canonical keys
# ----------------------------------------------------------------------
def predicate_key(predicate: Optional[Predicate],
                  literals: bool = True) -> str:
    """Canonical string form of a predicate.

    AND children are sorted so commutative rewrites coincide; with
    ``literals=False`` comparison constants are replaced by ``?``,
    producing the template form shared by all parameterisations.
    UDF predicates are keyed by UDF name and column (two UDFs with the
    same registered name are assumed to be the same function).
    """
    lit = (lambda value: repr(value)) if literals else (lambda value: "?")
    if predicate is None:
        return "NONE"
    if isinstance(predicate, TruePredicate):
        return "TRUE"
    if isinstance(predicate, ColumnPredicate):
        return f"{predicate.column}{predicate.op.value}{lit(predicate.literal)}"
    if isinstance(predicate, Conjunction):
        children = sorted(
            predicate_key(child, literals) for child in predicate.children
        )
        return "AND(" + ",".join(children) + ")"
    if isinstance(predicate, BetweenDayDiff):
        bounds = (f"{predicate.low},{predicate.high}" if literals
                  else "?,?")
        return (f"DAYDIFF({predicate.left_column},"
                f"{predicate.right_column})IN[{bounds}]")
    if isinstance(predicate, InSetPredicate):
        values = (",".join(sorted(repr(v) for v in predicate.values))
                  if literals else "?")
        return f"{predicate.column}IN({values})"
    if isinstance(predicate, ColumnPairPredicate):
        return (f"{predicate.left_column}{predicate.op.value}"
                f"{predicate.right_column}")
    if isinstance(predicate, UdfPredicate):
        return f"UDF:{predicate.name}({predicate.column})"
    # Unknown predicate types fall back to repr, which is stable for
    # the frozen dataclasses this AST is built from.
    return repr(predicate)


def plan_key(query: HybridQuery, literals: bool = True) -> str:
    """Canonical normalised form of a whole hybrid plan.

    Everything that affects the result participates: tables, join keys,
    projections (order matters — it is the output schema), predicates,
    scan-time derivations, post-join predicate, grouping and
    aggregates.  With ``literals=False`` this is the plan *template*.
    """
    derived = ";".join(
        f"{d.name}={d.udf_name}({d.source})" for d in query.hdfs_derived
    )
    aggregates = ";".join(
        f"{spec.function}({spec.column or '*'})as{spec.output_name()}"
        for spec in query.aggregates
    )
    parts = [
        f"db={query.db_table}",
        f"hdfs={query.hdfs_table}",
        f"on={query.db_join_key}={query.hdfs_join_key}",
        f"tproj={','.join(query.db_projection)}",
        f"lproj={','.join(query.hdfs_projection)}",
        f"tpred={predicate_key(query.db_predicate, literals)}",
        f"lpred={predicate_key(query.hdfs_predicate, literals)}",
        f"derived={derived}",
        f"post={predicate_key(query.post_join_predicate, literals)}",
        f"group={','.join(query.group_by)}",
        f"agg={aggregates}",
        f"prefix={query.db_prefix}|{query.hdfs_prefix}",
    ]
    return "&".join(parts)


def bloom_key(table_name: str, predicate: Predicate, key_column: str,
              num_bits: int, num_hashes: int, seed: int) -> str:
    """Canonical key of a merged BF(T′): everything its bits depend on."""
    return (f"{table_name}|{key_column}|{predicate_key(predicate)}"
            f"|m={num_bits}|k={num_hashes}|s={seed}")


def build_side_key(query: HybridQuery, num_workers: int,
                   algorithm: str = "") -> str:
    """Canonical key of the JEN workers' join build sides.

    Everything that determines which HDFS rows land on which worker
    participates: the HDFS table, its predicate and derivations, the
    join keys, the worker count (the agreed hash fans out over it) and
    the algorithm plus database predicate (they decide whether and with
    which BF(T′) the scan was pruned) and the build column of the
    post-join predicate's band (a banded index is sorted on it).
    Collisions are harmless — the provider verifies cached indexes
    against the fresh keys and band values before trusting them — so
    this key only has to be *selective*, not perfect.
    """
    derived = ";".join(
        f"{d.name}={d.udf_name}({d.source})" for d in query.hdfs_derived
    )
    post = query.post_join_predicate
    band = (None if post is None
            else post.band(query.hdfs_prefix, query.db_prefix))
    parts = [
        f"hdfs={query.hdfs_table}",
        f"key={query.hdfs_join_key}",
        f"lpred={predicate_key(query.hdfs_predicate)}",
        f"derived={derived}",
        f"db={query.db_table}",
        f"dbkey={query.db_join_key}",
        f"tpred={predicate_key(query.db_predicate)}",
        f"alg={algorithm}",
        f"workers={num_workers}",
        f"band={'' if band is None else band.build_column}",
    ]
    return "&".join(parts)


# ----------------------------------------------------------------------
# Bounded LRU caches
# ----------------------------------------------------------------------
class _LruCache:
    """Bounded LRU mapping with hit/miss/eviction counters."""

    def __init__(self, capacity: int, name: str,
                 metrics: Optional[MetricsRegistry] = None):
        if capacity < 1:
            raise ServiceError(f"{name} cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[str, object]" = OrderedDict()
        metrics = metrics or MetricsRegistry()
        self.hits = metrics.counter(f"cache.{name}.hits")
        self.misses = metrics.counter(f"cache.{name}.misses")
        self.evictions = metrics.counter(f"cache.{name}.evictions")

    def get(self, key: str):
        """The cached value, refreshing recency; None on miss."""
        try:
            value = self._entries[key]
        except KeyError:
            self.misses.inc()
            return None
        self._entries.move_to_end(key)
        self.hits.inc()
        return value

    def put(self, key: str, value) -> None:
        """Insert (or refresh) an entry, evicting the LRU tail."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions.inc()

    def hit_rate(self) -> float:
        """Hits over lookups (0 when never consulted)."""
        lookups = self.hits.value + self.misses.value
        return self.hits.value / lookups if lookups else 0.0


class ResultCache(_LruCache):
    """Normalised plan key -> final result :class:`Table`."""

    def __init__(self, capacity: int = 128,
                 metrics: Optional[MetricsRegistry] = None):
        super().__init__(capacity, "result", metrics)

    def get(self, key: str) -> Optional[Table]:
        return super().get(key)


class BloomCache(_LruCache):
    """BF(T′) key -> merged ``GlobalBloomResult``."""

    def __init__(self, capacity: int = 64,
                 metrics: Optional[MetricsRegistry] = None):
        super().__init__(capacity, "bloom", metrics)


class JoinIndexCache(_LruCache):
    """Build-side key -> the query's slot-keyed :class:`JoinBuildIndex`
    (one per group of units when the build side is grouped)."""

    def __init__(self, capacity: int = 64,
                 metrics: Optional[MetricsRegistry] = None):
        super().__init__(capacity, "joinindex", metrics)


class CachingJoinIndexProvider:
    """Cross-query memoisation of the join build index.

    :meth:`for_query` gives one query its ``index_for`` (the service
    puts it on the query's :class:`~repro.core.joins.base.
    ExecutionContext`), scoped to the query's :func:`build_side_key`;
    the engine asks it for the one index over every join unit's build
    rows.  A cached index is returned only if
    :meth:`JoinBuildIndex.matches` confirms it was built over exactly
    the fresh build keys, band values and slot boundaries — anything
    else (first sight, eviction, a key collision, a fault-recovery run
    that redistributed rows, equal keys split into slots differently,
    a key-only index asked for a band or the reverse) builds and caches
    a new index.  Reuse is therefore invisible to the data plane: the
    probe output is bit-identical either way.
    """

    def __init__(self, cache: JoinIndexCache):
        self.cache = cache

    def for_query(self, build_key: str):
        """The ``index_for(build_keys, band_values, slot_bounds)`` of
        one query whose build side is ``build_key``."""
        asked = itertools.count()

        def index_for(build_keys, band_values=None, slot_bounds=None):
            # A build side past ``GROUP_BUILD_ROWS`` asks once per group
            # of units (:func:`repro.query.plan.join_aggregate`): the
            # n-th index a query asks for is its n-th entry.
            nth = next(asked)
            key = f"{build_key}|{nth}" if nth else build_key
            cached = self.cache.get(key)
            if cached is not None \
                    and cached.matches(build_keys, band_values, slot_bounds):
                return cached
            index = JoinBuildIndex(build_keys, band_values, slot_bounds)
            self.cache.put(key, index)
            return index

        return index_for


class CachingBloomBuilder:
    """Memoising stand-in for ``ParallelDatabase.build_global_bloom``.

    The service hands it to each query as its context's
    ``bloom_builder``: a cache hit returns the previously merged filter
    with its build-cost stats zeroed (``index_only=True``, nothing
    scanned), so the trace prices the BF build at its floor while the
    data plane probes bits identical to a rebuild.  The multicast to
    the JEN workers is *not* elided — a reused filter still has to
    reach the scan sites.
    """

    def __init__(self, database, cache: BloomCache):
        self._database = database
        self.cache = cache

    def __call__(self, table_name, predicate, key_column, num_bits,
                 num_hashes=2, seed=7):
        key = bloom_key(table_name, predicate, key_column,
                        num_bits, num_hashes, seed)
        cached = self.cache.get(key)
        if cached is not None:
            return dataclasses.replace(
                cached, index_only=True, rows_accessed=0, keys_added=0,
            )
        result = self._database.build_global_bloom(
            table_name, predicate, key_column, num_bits,
            num_hashes=num_hashes, seed=seed)
        self.cache.put(key, result)
        return result
