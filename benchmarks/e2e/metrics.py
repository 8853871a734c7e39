"""The metric catalogue: every name the benchmark prints, once.

``BENCHMARK.json`` carries name / unit / better (and the bound of an
end-to-end metric); this module carries the same rows plus what the
JSON schema has no key for — the definition of each end-to-end metric
and, for each per-layer metric, the end-to-end metric it should move
and on which workload.  ``python -m benchmarks.e2e --list`` prints it,
and the self-tests check that the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class EndToEnd:
    """One metric a user of the system would see."""

    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen
    #: before a change counts as a regression.
    bound: float
    definition: str


@dataclass(frozen=True)
class PerLayer:
    """One metric of a single layer, taken from the traced pass."""

    name: str
    unit: str
    better: str
    #: Which end-to-end metric this one should move, on which workload.
    moves: str
    #: ``(span name, key)`` when the value is read straight off the
    #: span totals; ``None`` when :mod:`benchmarks.e2e.layers` derives
    #: it (ratios, byte counts off the query trace, diagnostics).
    source: Optional[Tuple[str, str]] = None


#: The bounds are set from A/A run sets on the 2-core reference host
#: (README.md, "How the bounds were derived"): each is at least three
#: times the widest inter-quartile spread seen on any workload across
#: ten seeds.  ``sim_seconds_mean`` and ``cross_cluster_bytes_mean``
#: repeat exactly for one seed; their bounds cover how far the seed's
#: data moves them, which is what the driver's spread check sees.
END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("op_wall_ms_min", "ms", "lower", 0.25,
             "wall time of the fastest measured op (closed loop, one "
             "client); the minimum because host interference only adds "
             "time - median, p90 and throughput are harness.* diagnostics"),
    EndToEnd("sim_seconds_mean", "sim_s", "lower", 0.05,
             "mean simulated seconds per query (JoinResult.total_seconds; "
             "service: submission to answer) - the paper's clock"),
    EndToEnd("cross_cluster_bytes_mean", "bytes", "lower", 0.10,
             "mean bytes_shipped['cross_cluster'] per query - what crossed "
             "the EDW<->HDFS switch"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.25,
             "ru_maxrss of the workload's process at exit"),
    EndToEnd("setup_s", "s", "lower", 0.25,
             "minimum over the rounds' timed in-process rebuilds of: "
             "generate T and L, load T + both indexes, write L, build the "
             "query, one cold run (service: + QueryService and its first "
             "query)"),
)

_LOAD = "setup_s, all workloads"
_SCAN = "op_wall_ms_min on scan_zigzag, db_thin_text"
_JEN = ("op_wall_ms_min on scan_zigzag (scan), shuffle_repartition "
        "(shuffle, join); none on service_stream cache hits")
_BLOOM = ("op_wall_ms_min on scan_zigzag; smaller on db_thin_text; zero "
          "on shuffle_repartition")
_EDW = "op_wall_ms_min on db_thin_text; <=5 % elsewhere"
_KERNELS = ("op_wall_ms_min on shuffle_repartition (partition, join "
            "index), db_thin_text (codec)")
_CODEC_BYTES = "cross_cluster_bytes_mean on db_thin_text"
_GATHER = ("op_wall_ms_min on scan_zigzag first, then every single-query "
           "workload; peak_rss_mb")
_LATEMAT = ("op_wall_ms_min, cross_cluster_bytes_mean, sim_seconds_mean "
            "on db_thin_text only")
_NET = "cross_cluster_bytes_mean, sim_seconds_mean, every workload"
_SIM = ("sim_seconds_mean everywhere; op_wall_ms_min on service_stream "
        "(concurrent replay)")
_DRIVER = ("op_wall_ms_min, all workloads; must not rise under the "
           "ExecutionContext refactor")
_FRONT = "op_wall_ms_min on service_stream only"
_SERVICE = "op_wall_ms_min, sim_seconds_mean on service_stream"
_DIAG = "diagnostic only"


def _self_ms(span: str, moves: str, name: str = "") -> PerLayer:
    return PerLayer(name or f"{span}.self_ms", "ms", "lower", moves,
                    (span, "self_ms"))


def _count(span: str, key: str, moves: str, unit: str = "count"
           ) -> PerLayer:
    return PerLayer(f"{span}.{key}", unit, "lower", moves, (span, key))


PER_LAYER: Tuple[PerLayer, ...] = (
    # -- load path (set-up phase) --------------------------------------
    PerLayer("workload.generate_s", "s", "lower", _LOAD),
    PerLayer("hdfs.write_table_s", "s", "lower", _LOAD),
    PerLayer("edw.load_s", "s", "lower", _LOAD),
    PerLayer("edw.index_s", "s", "lower", _LOAD),
    # -- jen -------------------------------------------------------------
    _self_ms("jen.scan", _JEN),
    _count("jen.scan", "blocks", _JEN),
    _count("jen.scan", "rows_in", _JEN, "rows"),
    _count("jen.scan", "rows_out", _JEN, "rows"),
    _self_ms("jen.shuffle", _JEN),
    _count("jen.shuffle", "rows", _JEN, "rows"),
    _self_ms("jen.join", _JEN),
    _count("jen.join", "output_rows", _JEN, "rows"),
    # -- hdfs ------------------------------------------------------------
    _self_ms("hdfs.read_block", _SCAN),
    _count("hdfs.read_block", "calls", _SCAN),
    # -- core.bloom ------------------------------------------------------
    _self_ms("core.bloom", _BLOOM),
    _count("core.bloom", "calls", _BLOOM),
    _count("core.bloom", "keys", _BLOOM, "keys"),
    PerLayer("core.bloom.ns_per_key", "ns", "lower", _BLOOM),
    PerLayer("core.bloom.pass_rate", "ratio", "lower", _BLOOM),
    # -- edw -------------------------------------------------------------
    _self_ms("edw.filter", _EDW),
    _count("edw.filter", "rows_out", _EDW, "rows"),
    _self_ms("edw.bloom_build", _EDW),
    _self_ms("edw.apply_bloom", _EDW),
    _self_ms("edw.hybrid_join", _EDW),
    # -- kernels ---------------------------------------------------------
    _self_ms("kernels.partition", _KERNELS),
    _count("kernels.partition", "rows", _KERNELS, "rows"),
    _self_ms("kernels.joinindex.build", _KERNELS,
             "kernels.joinindex.build_ms"),
    _self_ms("kernels.joinindex.probe", _KERNELS,
             "kernels.joinindex.probe_ms"),
    _self_ms("kernels.wirecodec", _KERNELS, "kernels.wirecodec.encode_ms"),
    _count("kernels.wirecodec", "bytes_out", _CODEC_BYTES, "bytes"),
    PerLayer("kernels.wirecodec.bytes_per_row", "bytes", "lower",
             _CODEC_BYTES),
    # -- relational ------------------------------------------------------
    _self_ms("relational.gather", _GATHER),
    _count("relational.gather", "calls", _GATHER),
    _count("relational.gather", "rows", _GATHER, "rows"),
    # -- latemat ---------------------------------------------------------
    _self_ms("latemat.store", _LATEMAT),
    _self_ms("latemat.stitch", _LATEMAT),
    PerLayer("latemat.amplification", "ratio", "lower", _LATEMAT),
    # -- net (exact byte counts off the query trace) ---------------------
    PerLayer("net.export_bytes", "bytes", "lower", _NET),
    PerLayer("net.shuffle_bytes", "bytes", "lower", _NET),
    PerLayer("net.stitch_bytes", "bytes", "lower", _NET),
    PerLayer("net.cross_cluster_bytes", "bytes", "lower", _NET),
    # -- sim (simulated seconds by phase kind, exact) --------------------
    _self_ms("sim.replay", _SIM),
    PerLayer("sim.phases", "count", "lower", _SIM),
    PerLayer("sim.scan_sim_s", "sim_s", "lower", _SIM),
    PerLayer("sim.shuffle_sim_s", "sim_s", "lower", _SIM),
    PerLayer("sim.transfer_sim_s", "sim_s", "lower", _SIM),
    PerLayer("sim.cpu_sim_s", "sim_s", "lower", _SIM),
    # -- core.joins ------------------------------------------------------
    _self_ms("core.joins.driver", _DRIVER),
    # -- sql / core.advisor ----------------------------------------------
    _self_ms("sql.translate", _FRONT),
    _self_ms("core.advisor.decide", _FRONT),
    # -- service ---------------------------------------------------------
    _self_ms("service.drain", _SERVICE),
    PerLayer("service.cache.result_hit_rate", "ratio", "higher", _SERVICE),
    PerLayer("service.cache.bloom_hit_rate", "ratio", "higher", _SERVICE),
    PerLayer("service.cache.join_index_hit_rate", "ratio", "higher",
             _SERVICE),
    PerLayer("service.queue_wait_sim_s_p50", "sim_s", "lower", _SERVICE),
    PerLayer("service.rejected", "count", "lower", _SERVICE),
    # -- harness ---------------------------------------------------------
    PerLayer("harness.op_wall_ms_p50", "ms", "lower", _DIAG),
    PerLayer("harness.op_wall_ms_p90", "ms", "lower", _DIAG),
    PerLayer("harness.throughput_qps", "1/s", "higher", _DIAG),
    PerLayer("harness.trace_overhead_pct", "%", "lower", _DIAG),
    PerLayer("harness.warmup_ops", "count", "lower", _DIAG),
)


def units() -> Dict[str, str]:
    """Unit of every metric, by name."""
    return {metric.name: metric.unit for metric in END_TO_END + PER_LAYER}
