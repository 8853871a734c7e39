"""Worker-to-worker exchange: the shuffle.

Three kinds of transfers happen among JEN workers (paper Section 4.3):
the all-to-all shuffle of filtered HDFS rows for repartition-based
joins, the aggregation of local Bloom filters at a designated worker,
and the merge of partial aggregates at a designated worker.  The
functions here perform the shuffle and report its volume.  The data
plane builds BF_H as one filter during the scan
(:meth:`repro.jen.engine.Jen.scan_with_request`), so the Bloom merge is
only priced on the trace (``bf_h_merge``), and it merges the partial
aggregates inside the one local join
(:func:`repro.query.plan.join_aggregate`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import JoinError
from repro.relational.table import Table


@dataclass
class ShuffleResult:
    """Regrouped tables plus movement accounting."""

    #: Destination worker -> concatenated rows it received.
    per_destination: List[Table]
    #: All tuples that entered the shuffle (the paper's Table 1 counts
    #: every shuffled tuple, including those staying on their sender).
    tuples_shuffled: int
    #: Tuples that actually crossed the network (sender != receiver).
    tuples_remote: int
    #: Rows each sender addressed to each destination (those a probe
    #: can reach travel), as ``routed[sender, destination]``.
    routed: np.ndarray
    #: Lost messages that had to be re-sent (fault injection).
    retries: int = 0
    #: Re-delivered partitions the receivers suppressed (lost ACKs).
    duplicates_suppressed: int = 0
    #: Rows routed off the agreed hash by a hybrid (skew-resistant)
    #: shuffle — hot-key build rows spread round-robin across workers.
    hot_tuples: int = 0

    def balance_factor(self) -> float:
        """Rows addressed to the hottest receiver relative to the mean
        (>= 1.0).

        This is the measured data-plane analogue of the analytic
        ``HybridConfig.shuffle_skew`` multiplier: the shuffle finishes
        when the most-loaded receiver has everything addressed to it.
        """
        sizes = self.routed.sum(axis=0).tolist()
        total = sum(sizes)
        if not sizes or total == 0:
            return 1.0
        return max(1.0, max(sizes) * len(sizes) / total)


def shuffle(per_destination: Sequence[Table], routed: np.ndarray,
            kept: Optional[np.ndarray] = None, faults=None,
            observers: Tuple = ()) -> ShuffleResult:
    """Deliver a partitioned all-to-all exchange exactly once.

    ``per_destination[destination]`` holds the rows addressed there via
    the agreed hash, grouped by sender in sender order, and
    ``routed[sender, destination]`` how many rows each sender addressed
    there, ``kept`` how many of them it delivers (``routed`` when
    ``None``; :meth:`repro.jen.worker.JenWorker.partition_for_exchange`
    produces all three).  One message travels per (sender, destination)
    pair.

    ``faults`` is the run's :class:`~repro.faults.FaultInjector`, or
    ``None``; when given, every remote message goes through its retry machinery
    (drops and truncations are re-sent after a timeout) and delivery is
    idempotent: each receiver accepts one copy per sender, so a
    message re-delivered because its acknowledgement was lost does
    *not* duplicate rows.  Each of ``observers`` checks the delivery.
    """
    routed = np.asarray(routed)
    if routed.ndim != 2 or routed.shape[0] == 0:
        raise JoinError("shuffle needs at least one sender")
    num_senders, num_destinations = routed.shape
    if len(per_destination) != num_destinations:
        raise JoinError(
            f"ragged shuffle: {len(per_destination)} destination tables, "
            f"row counts for {num_destinations}"
        )

    # Every receiver accepts exactly one copy of each message, so the
    # counts follow from ``routed``; a faulted run walks the remote
    # messages through the injector for its retries and duplicates.
    tuples_shuffled = int(routed.sum())
    tuples_remote = tuples_shuffled - int(np.trace(routed))
    retries = duplicates_suppressed = 0
    if faults is not None:
        for destination in range(num_destinations):
            for sender in range(num_senders):
                if sender != destination:
                    # Local messages never touch the network; remote
                    # ones can be dropped (re-sent) or duplicated (lost
                    # ACK, the copy suppressed).
                    duplicated, failures = faults.deliver(
                        "shuffle", sender, destination)
                    retries += failures
                    duplicates_suppressed += bool(duplicated)
    for observer in observers:
        observer.check_shuffle_delivery(
            routed if kept is None else kept, per_destination,
            np.ones_like(routed))
    return ShuffleResult(
        per_destination=list(per_destination),
        tuples_shuffled=tuples_shuffled,
        tuples_remote=tuples_remote,
        routed=routed,
        retries=retries,
        duplicates_suppressed=duplicates_suppressed,
    )

