"""Data-transfer patterns between DB2 workers and JEN workers.

Reproduces the volume math of the paper's Figure 6:

* **DB-side join**: the ``n`` JEN workers are split into ``m`` roughly
  even groups and each DB worker ingests from one group in parallel.
* **Broadcast join**: every DB worker sends its filtered partition to
  *every* JEN worker (the paper found the direct scheme beats relaying
  through one worker), so the bytes crossing the switch are
  ``|T'| * n``.
* **Repartition/zigzag joins**: DB workers use the agreed hash function
  and send each record directly to the JEN worker that will join it, so
  ``|T'|`` crosses the switch exactly once.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List

from repro.errors import SimulationError, TransferFaultError
from repro.net.topology import HybridTopology


class TransferPattern(enum.Enum):
    """How database data reaches JEN workers (paper Fig. 6)."""

    GROUPED_INGEST = "grouped_ingest"
    BROADCAST_DIRECT = "broadcast_direct"
    BROADCAST_RELAY = "broadcast_relay"
    AGREED_HASH_DIRECT = "agreed_hash_direct"


@dataclass(frozen=True)
class RetryPolicy:
    """Retry discipline for unreliable transfers (fault injection).

    A lost or truncated message is detected after ``timeout_seconds``
    (the per-transfer timeout), then re-sent after an exponentially
    growing backoff: failure *i* waits
    ``backoff_base_seconds * backoff_multiplier**(i-1)`` before the next
    attempt.  After ``max_attempts`` total attempts the transfer is
    abandoned with :class:`~repro.errors.TransferFaultError`.
    """

    max_attempts: int = 4
    timeout_seconds: float = 2.0
    backoff_base_seconds: float = 0.5
    backoff_multiplier: float = 2.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise SimulationError("retry policy needs at least one attempt")
        if self.timeout_seconds < 0 or self.backoff_base_seconds < 0:
            raise SimulationError("retry timings must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise SimulationError("backoff multiplier must be >= 1")

    def backoff_seconds(self, failure_index: int) -> float:
        """Backoff slept after the ``failure_index``-th (1-based) loss."""
        if failure_index < 1:
            raise SimulationError("failure index is 1-based")
        return (self.backoff_base_seconds
                * self.backoff_multiplier ** (failure_index - 1))

    def retry_overhead_seconds(self, failures: int) -> float:
        """Extra seconds ``failures`` consecutive losses cost.

        Each loss burns the detection timeout plus its backoff; the
        final successful attempt's own transfer time is priced by the
        ordinary cost model, not here.
        """
        return sum(
            self.timeout_seconds + self.backoff_seconds(index)
            for index in range(1, failures + 1)
        )


def deliver_with_retry(payload, send, policy: RetryPolicy,
                       channel: str = "transfer",
                       sender: int = -1, destination: int = -1):
    """Drive ``send(payload, attempt)`` until it reports success.

    ``send`` returns an outcome string: ``"ok"`` (delivered), ``"dup"``
    (delivered but the acknowledgement was lost, so the payload arrives
    twice — the receiver must deduplicate), or ``"drop"``/``"trunc"``
    (lost or cut short in flight; retry).  Returns
    ``(outcome, attempts)`` for the terminal attempt; raises
    :class:`~repro.errors.TransferFaultError` once the policy's attempt
    budget is exhausted.
    """
    attempts = 0
    while True:
        attempts += 1
        outcome = send(payload, attempts)
        if outcome in ("ok", "dup"):
            return outcome, attempts
        if outcome not in ("drop", "trunc"):
            raise SimulationError(f"unknown delivery outcome {outcome!r}")
        if attempts >= policy.max_attempts:
            raise TransferFaultError(
                f"{channel} transfer {sender}->{destination} lost "
                f"{attempts} times (retry budget exhausted)",
                channel=channel, sender=sender, destination=destination,
                attempts=attempts,
            )


def grouped_assignment(num_jen_workers: int, num_db_workers: int
                       ) -> List[List[int]]:
    """Partition JEN workers into one group per DB worker.

    The paper's coordinator "evenly divides the n workers into m groups"
    (Section 4.1.1, assuming m <= n).  When there are more DB workers
    than JEN workers, groups of size one are reused round-robin so every
    DB worker still has an endpoint.
    """
    if num_jen_workers <= 0 or num_db_workers <= 0:
        raise SimulationError("both worker counts must be positive")
    if num_db_workers <= num_jen_workers:
        groups: List[List[int]] = [[] for _ in range(num_db_workers)]
        for worker in range(num_jen_workers):
            groups[worker % num_db_workers].append(worker)
        return groups
    return [[db % num_jen_workers] for db in range(num_db_workers)]


def broadcast_volume(
    filtered_db_bytes: float,
    num_jen_workers: int,
    pattern: TransferPattern = TransferPattern.BROADCAST_DIRECT,
) -> float:
    """Bytes crossing the inter-cluster switch for a broadcast of T'.

    The relay variant moves T' across the switch once but then pays an
    intra-HDFS re-broadcast (accounted separately by the cost layer);
    the direct variant multiplies the switch traffic by the number of
    JEN workers.
    """
    if pattern is TransferPattern.BROADCAST_DIRECT:
        return filtered_db_bytes * num_jen_workers
    if pattern is TransferPattern.BROADCAST_RELAY:
        return filtered_db_bytes
    raise SimulationError(f"not a broadcast pattern: {pattern}")


def parallel_transfer_seconds(
    volume_bytes: float,
    topology: HybridTopology,
    senders: int,
    receivers: int,
    sender_side: str,
    per_endpoint_bytes_per_s: float = float("inf"),
) -> float:
    """Seconds to move ``volume_bytes`` between the clusters in parallel.

    ``per_endpoint_bytes_per_s`` caps each sending endpoint's goodput
    below its NIC line rate — this is how the deliberately constrained
    UDF-based export/ingest paths of the EDW enter the model.
    """
    if volume_bytes < 0:
        raise SimulationError("negative transfer volume")
    if volume_bytes == 0:
        return 0.0
    network = topology.inter_cluster_bandwidth(senders, receivers, sender_side)
    endpoint_cap = senders * per_endpoint_bytes_per_s
    bandwidth = min(network, endpoint_cap)
    if bandwidth <= 0:
        raise SimulationError("transfer has zero available bandwidth")
    return volume_bytes / bandwidth


def shuffle_seconds(
    volume_bytes: float,
    topology: HybridTopology,
    workers: int,
    per_worker_goodput_bytes_per_s: float,
) -> float:
    """Seconds for an all-to-all shuffle of ``volume_bytes`` inside HDFS.

    Every worker both sends and receives ``volume / workers`` bytes;
    effective per-worker goodput (well below the NIC line rate for the
    small-record workloads of the paper) is supplied by the cost model.
    """
    if volume_bytes < 0:
        raise SimulationError("negative shuffle volume")
    if volume_bytes == 0:
        return 0.0
    workers = min(workers, topology.hdfs.nodes)
    if workers <= 0:
        raise SimulationError("shuffle needs at least one worker")
    per_worker = min(
        per_worker_goodput_bytes_per_s, topology.hdfs.nic_bytes_per_s
    )
    # A fraction 1/workers of the data is destined for the local worker
    # and never touches the NIC.
    remote_fraction = (workers - 1) / workers if workers > 1 else 0.0
    if remote_fraction == 0.0:
        return 0.0
    return (volume_bytes * remote_fraction) / (workers * per_worker)
