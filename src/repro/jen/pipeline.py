"""Micro-model of one JEN worker's thread pipeline (paper Fig. 7).

Section 4.4 describes how a worker overlaps everything: one read thread
per disk, a single process thread (parse, predicates, Bloom filter,
projection, routing), send threads draining the send buffers, and
receive threads building the hash table as rows arrive.  The paper
asserts that although there is only one process thread, "it is never
the bottleneck".

This module reconstructs that pipeline as a streaming stage graph and
replays it with :mod:`repro.sim.replay`, reporting per-stage busy time
and the bottleneck stage, so the claim can be checked quantitatively for
any format/selectivity combination (see the ``ablation_process_thread``
experiment).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.config import HybridConfig
from repro.errors import SimulationError
from repro.sim.replay import replay_trace
from repro.sim.trace import Trace


@dataclass(frozen=True)
class PipelineInputs:
    """Per-worker volumes of one scan+shuffle stage (paper scale)."""

    #: Rows this worker scans.
    rows_scanned: float
    #: Stored bytes this worker reads (format- and projection-aware).
    stored_bytes: float
    #: Rows surviving predicates/Bloom filter (entering send buffers).
    rows_out: float
    #: Wire bytes per outgoing row.
    wire_row_bytes: float
    #: Rows arriving from peers (for the hash-table build).
    rows_in: float
    format_name: str = "parquet"


@dataclass
class PipelineReport:
    """Outcome of the worker-pipeline micro-simulation."""

    stage_seconds: Dict[str, float]
    makespan: float

    def bottleneck(self) -> str:
        """The stage with the largest busy time."""
        return max(self.stage_seconds, key=self.stage_seconds.get)

    def process_thread_is_bottleneck(self) -> bool:
        """The paper claims this is never true in practice."""
        return self.bottleneck() == "process"

    def describe(self) -> str:
        """Multi-line summary."""
        lines = [f"worker pipeline: {self.makespan:.1f}s makespan, "
                 f"bottleneck={self.bottleneck()}"]
        for stage, seconds in self.stage_seconds.items():
            lines.append(f"  {stage:<8s} {seconds:8.2f}s busy")
        return "\n".join(lines)


def simulate_worker_pipeline(inputs: PipelineInputs,
                             config: HybridConfig) -> PipelineReport:
    """Replay one worker's read/process/send/receive/build pipeline.

    Stage durations are the *busy* times each thread pool needs for its
    volume; the replay wires them with the streaming edges of Figure 7,
    so the makespan reflects the overlap the paper engineered.
    """
    if inputs.rows_scanned < 0 or inputs.stored_bytes < 0:
        raise SimulationError("negative pipeline volumes")
    cost = config.cost
    cluster = config.cluster

    read_seconds = (inputs.stored_bytes
                    / cost.scan_bytes_per_s(inputs.format_name))
    process_seconds = inputs.rows_scanned / cost.jen_process_tuples_per_s
    outbound = inputs.rows_out * inputs.wire_row_bytes
    inbound = inputs.rows_in * inputs.wire_row_bytes
    send_seconds = outbound / cost.shuffle_bytes_per_s
    receive_seconds = inbound / min(cost.shuffle_bytes_per_s,
                                    cluster.hdfs_nic_bytes_per_s)
    build_seconds = inputs.rows_in / cost.hash_build_tuples_per_s

    trace = Trace(label="worker-pipeline")
    trace.add("read", "disk", read_seconds,
              description=f"{cluster.hdfs_disks_per_node} read threads")
    trace.add("process", "cpu", process_seconds, streams_from=["read"],
              description="single process thread: parse, predicates, "
                          "BF, projection, routing")
    trace.add("send", "network", send_seconds, streams_from=["process"],
              description="send-thread pool draining buffers")
    trace.add("receive", "network", receive_seconds,
              streams_from=["process"],
              description="receive threads (peers' sends mirror ours)")
    trace.add("build", "cpu", build_seconds, streams_from=["receive"],
              description="hash-table inserts as rows arrive")
    timing = replay_trace(trace)
    return PipelineReport(
        stage_seconds={
            "read": read_seconds,
            "process": process_seconds,
            "send": send_seconds,
            "receive": receive_seconds,
            "build": build_seconds,
        },
        makespan=timing.total_seconds,
    )
