"""Which entry points are timed, and how spans become layer metrics.

A layer is a module under ``src/repro``.  :func:`install` wraps each
layer's public entry points with spans (see
:mod:`benchmarks.e2e.tracing`); :func:`layer_metrics` turns the spans
and the op records of the traced pass into the per-layer metrics of
:data:`benchmarks.e2e.metrics.PER_LAYER` — per-op means unless the
name says otherwise.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

import numpy as np

from benchmarks.e2e.metrics import PER_LAYER
from benchmarks.e2e.tracing import Tracer, inclusive_totals, span_totals
from benchmarks.e2e.workloads import OpRecord

#: Simulated phase kinds behind each ``sim.*_sim_s`` metric.
_PHASE_KINDS = {
    "scan": ("hdfs_scan", "db_scan"),
    "shuffle": ("shuffle", "db_shuffle"),
    "transfer": ("transfer",),
    "cpu": ("cpu", "db_cpu"),
}

#: Name of the root span the harness opens around each traced op.
OP_SPAN = "harness.op"


# ----------------------------------------------------------------------
# Counters: what each boundary reads off its arguments and result
# ----------------------------------------------------------------------
def _scan_counts(_args, _kwargs, scan):
    stats = scan.stats
    return {"blocks": stats.local_blocks + stats.remote_blocks,
            "rows_in": stats.rows_scanned,
            "rows_out": sum(table.num_rows for table in scan.wire_tables)}


def _bloom_add_counts(args, _kwargs, _result):
    return {"keys": np.size(args[1])}


def _bloom_probe_counts(keys_at):
    def counts(args, _kwargs, mask):
        probed = np.size(args[keys_at])
        return {"keys": probed, "probed": probed,
                "passed": int(np.count_nonzero(mask))}
    return counts


def _codec_counts(args, _kwargs, encoded):
    size = encoded if isinstance(encoded, int) else len(encoded)
    return {"bytes_out": size, "rows": args[0].num_rows}


def _stitch_counts(stats):
    return {
        "fetched": stats.l_fetched_tuples + stats.t_fetched_tuples,
        "touched": (stats.l_fetched_tuples * stats.l_amplification
                    + stats.t_fetched_tuples * stats.t_amplification),
    }


def _gather_counts(_args, _kwargs, table):
    return {"rows": table.num_rows}


def install(tracer: Tracer) -> None:
    """Wrap every timed entry point; ``tracer.restore()`` undoes it."""
    from repro import latemat
    from repro.core import bloom
    from repro.core.advisor import JoinAdvisor
    from repro.core.joins.base import ALGORITHMS
    from repro.edw.database import ParallelDatabase
    from repro.edw.worker import DbWorker
    from repro.hdfs.filesystem import HdfsFileSystem
    from repro.jen.engine import Jen
    from repro.kernels import joinindex, partition, wirecodec
    from repro.relational.table import Table
    from repro.service.server import QueryService
    from repro.sim import replay
    from repro.sql.engine import SqlSession

    method, function = tracer.patch_method, tracer.patch_function

    for algorithm in set(ALGORITHMS.values()):
        if "run" in vars(algorithm):
            method(algorithm, "run", "core.joins.driver")

    method(Jen, "scan_with_request", "jen.scan", _scan_counts)
    method(Jen, "shuffle_by_key", "jen.shuffle",
           lambda _a, _k, shuffled: {"rows": shuffled.tuples_shuffled})
    method(Jen, "join_and_aggregate", "jen.join",
           lambda _a, _k, joined:
           {"output_rows": joined[1].join_output_tuples})
    method(HdfsFileSystem, "read_block", "hdfs.read_block")

    method(bloom.BloomFilter, "add", "core.bloom", _bloom_add_counts)
    method(bloom.BloomFilter, "contains", "core.bloom",
           _bloom_probe_counts(1))
    function(bloom.probe_and_insert, "core.bloom", _bloom_probe_counts(0))

    method(ParallelDatabase, "filter_project", "edw.filter",
           lambda _a, _k, filtered:
           {"rows_out": sum(s.rows_out for s in filtered[1])})
    method(ParallelDatabase, "build_global_bloom", "edw.bloom_build")
    method(ParallelDatabase, "execute_hybrid_join", "edw.hybrid_join")
    method(DbWorker, "apply_bloom", "edw.apply_bloom")

    function(partition.partition_table, "kernels.partition",
             lambda args, _k, _r: {"rows": args[0].num_rows})
    method(joinindex.JoinBuildIndex, "__init__", "kernels.joinindex.build")
    method(joinindex.JoinBuildIndex, "probe", "kernels.joinindex.probe")
    function(joinindex.probe_join, "kernels.joinindex.probe")
    function(wirecodec.encode_table, "kernels.wirecodec", _codec_counts)
    function(wirecodec.encoded_table_bytes, "kernels.wirecodec",
             _codec_counts)

    for attr in ("filter", "take", "concat"):
        method(Table, attr, "relational.gather", _gather_counts)

    function(latemat.thin_for_transfer, "latemat.store")
    method(latemat.LateMatPlan, "stitch", "latemat.stitch",
           lambda args, _k, _r: _stitch_counts(args[0].stats))
    function(latemat.stitch_parts, "latemat.stitch",
             lambda args, kwargs, _r:
             _stitch_counts(kwargs["stats"] if "stats" in kwargs
                            else args[4]))

    function(replay.replay_trace, "sim.replay")
    method(SqlSession, "explain", "sql.translate")
    method(JoinAdvisor, "decide", "core.advisor.decide")
    method(QueryService, "submit", "service.submit")
    method(QueryService, "drain", "service.drain")


# ----------------------------------------------------------------------
# Spans + op records -> the per-layer metrics
# ----------------------------------------------------------------------
def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: Sequence[Sequence], ops: List[OpRecord],
                  extras: Dict[str, float]) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced pass.

    ``extras`` are the values measured outside the traced ops (load
    stages, harness diagnostics); a metric whose layer the workload
    never entered reads 0.
    """
    totals = span_totals(spans)
    num_ops = max(1, len(ops))
    values: Dict[str, float] = {}

    for metric in PER_LAYER:
        if metric.source is None:
            continue
        span, key = metric.source
        entry = totals.get(span, {})
        if key == "self_ms":
            values[metric.name] = entry.get("self_ns", 0) / 1e6 / num_ops
        else:
            values[metric.name] = entry.get(key, 0) / num_ops

    bloom = totals.get("core.bloom", {})
    values["core.bloom.ns_per_key"] = _ratio(
        bloom.get("self_ns", 0), bloom.get("keys", 0))
    values["core.bloom.pass_rate"] = _ratio(
        bloom.get("passed", 0), bloom.get("probed", 0))
    codec = totals.get("kernels.wirecodec", {})
    values["kernels.wirecodec.bytes_per_row"] = _ratio(
        codec.get("bytes_out", 0), codec.get("rows", 0))
    stitch = totals.get("latemat.stitch", {})
    values["latemat.amplification"] = _ratio(
        stitch.get("touched", 0), stitch.get("fetched", 0))

    queries = [query for op in ops for query in op.queries]
    executed = [query.join_result for query in queries
                if query.join_result is not None]
    num_queries = max(1, len(queries))
    for category in ("export", "shuffle", "stitch", "cross_cluster"):
        values[f"net.{category}_bytes"] = sum(
            run.trace.metadata["bytes_shipped"][category]
            for run in executed) / num_queries
    values["sim.phases"] = _ratio(
        sum(len(list(run.trace)) for run in executed), len(executed))
    for label, kinds in _PHASE_KINDS.items():
        values[f"sim.{label}_sim_s"] = _ratio(
            sum(phase.seconds for run in executed for phase in run.trace
                if phase.kind in kinds), len(executed))

    services = [op.hit_rates for op in ops if op.hit_rates is not None]
    for cache in ("result", "bloom", "join_index"):
        values[f"service.cache.{cache}_hit_rate"] = (
            statistics.fmean(rates[cache] for rates in services)
            if services else 0.0)
    values["service.queue_wait_sim_s_p50"] = (
        statistics.median(query.queue_wait for query in queries)
        if services else 0.0)
    values["service.rejected"] = sum(
        query.status == "rejected" for query in queries)

    values.update(extras)
    return {metric.name: float(values.get(metric.name, 0.0))
            for metric in PER_LAYER}


def layer_shares(spans: Sequence[Sequence]) -> Dict[str, Dict[str, float]]:
    """Each span name's share of the traced op time.

    ``self`` shares are disjoint: those of everything but the harness's
    own root span add up to the part of the op the named layers account
    for.  ``inclusive`` shares count a layer's callees with it, which is
    how a workload's rationale speaks ("the scan carries the op").
    """
    inclusive = inclusive_totals(spans)
    op_ns = inclusive[OP_SPAN]
    return {
        "self": {name: entry["self_ns"] / op_ns
                 for name, entry in sorted(span_totals(spans).items())},
        "inclusive": {name: total / op_ns
                      for name, total in sorted(inclusive.items())},
    }
