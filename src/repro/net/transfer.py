"""Data-transfer patterns between DB2 workers and JEN workers.

:class:`TransferPattern` names the broadcast join's two schemes of the
paper's Figure 6 (direct, or through a relay); the other two, grouped
DB-side ingest and agreed-hash direct sends, are simply what the
DB-side and repartition joins do.  The engine prices every pattern in
:class:`~repro.core.joins.costing.JoinCosting` and groups the DB-side
ingest in ``repro.core.joins.db_side``.  This module also holds the
retry discipline of unreliable transfers and the all-to-all shuffle
inside HDFS.
"""

from __future__ import annotations

import enum

from repro.errors import SimulationError, TransferFaultError
from repro.net.topology import HybridTopology


class TransferPattern(enum.Enum):
    """How the broadcast join's T′ reaches every JEN worker (paper
    Fig. 6)."""

    BROADCAST_DIRECT = "broadcast_direct"
    BROADCAST_RELAY = "broadcast_relay"


# Retry discipline for unreliable transfers (fault injection).  A lost
# or truncated message is detected after the per-transfer timeout, then
# re-sent after an exponentially growing backoff: failure *i* waits
# ``BACKOFF_BASE_SECONDS * BACKOFF_MULTIPLIER**(i-1)`` before the next
# attempt.  After ``MAX_ATTEMPTS`` total attempts the transfer is
# abandoned with :class:`~repro.errors.TransferFaultError`.
MAX_ATTEMPTS = 4
TIMEOUT_SECONDS = 2.0
BACKOFF_BASE_SECONDS = 0.5
BACKOFF_MULTIPLIER = 2.0


def backoff_seconds(failure_index: int) -> float:
    """Backoff slept after the ``failure_index``-th (1-based) loss."""
    if failure_index < 1:
        raise SimulationError("failure index is 1-based")
    return BACKOFF_BASE_SECONDS * BACKOFF_MULTIPLIER ** (failure_index - 1)


def retry_overhead_seconds(failures: int) -> float:
    """Extra seconds ``failures`` consecutive losses cost.

    Each loss burns the detection timeout plus its backoff; the final
    successful attempt's own transfer time is priced by the ordinary
    cost model, not here.
    """
    return sum(
        TIMEOUT_SECONDS + backoff_seconds(index)
        for index in range(1, failures + 1)
    )


def deliver_with_retry(send, channel: str = "transfer",
                       sender: int = -1, destination: int = -1):
    """Drive ``send(attempt)`` until it reports success.

    ``send`` returns an outcome string: ``"ok"`` (delivered), ``"dup"``
    (delivered but the acknowledgement was lost, so the payload arrives
    twice — the receiver must deduplicate), or ``"drop"``/``"trunc"``
    (lost or cut short in flight; retry).  Returns
    ``(outcome, attempts)`` for the terminal attempt; raises
    :class:`~repro.errors.TransferFaultError` once ``MAX_ATTEMPTS``
    attempts are spent.
    """
    attempts = 0
    while True:
        attempts += 1
        outcome = send(attempts)
        if outcome in ("ok", "dup"):
            return outcome, attempts
        if outcome not in ("drop", "trunc"):
            raise SimulationError(f"unknown delivery outcome {outcome!r}")
        if attempts >= MAX_ATTEMPTS:
            raise TransferFaultError(
                f"{channel} transfer {sender}->{destination} lost "
                f"{attempts} times (retry budget exhausted)",
                channel=channel, sender=sender, destination=destination,
                attempts=attempts,
            )


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
