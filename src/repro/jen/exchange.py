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
from typing import List, Sequence

import numpy as np

from repro.errors import JoinError
from repro.relational.table import Table
from repro.testkit import invariants


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
    #: Lost messages that had to be re-sent (fault injection).
    retries: int = 0
    #: Re-delivered partitions the receivers suppressed (lost ACKs).
    duplicates_suppressed: int = 0
    #: Rows routed off the agreed hash by a hybrid (skew-resistant)
    #: shuffle — hot-key build rows spread round-robin across workers.
    hot_tuples: int = 0

    def balance_factor(self) -> float:
        """Hottest receiver's row count relative to the mean (>= 1.0).

        This is the measured data-plane analogue of the analytic
        ``HybridConfig.shuffle_skew`` multiplier: the shuffle finishes
        when the most-loaded receiver has everything addressed to it.
        """
        sizes = [table.num_rows for table in self.per_destination]
        total = sum(sizes)
        if not sizes or total == 0:
            return 1.0
        return max(1.0, max(sizes) * len(sizes) / total)


def shuffle(per_destination: Sequence[Table], routed: np.ndarray,
            faults=None) -> ShuffleResult:
    """Deliver a partitioned all-to-all exchange exactly once.

    ``per_destination[destination]`` holds the rows addressed there via
    the agreed hash, grouped by sender in sender order, and
    ``routed[sender, destination]`` how many of them each sender
    contributed (:meth:`repro.jen.worker.JenWorker.partition_for_exchange`
    produces both).  One message travels per (sender, destination)
    pair.

    ``faults`` is an optional :class:`~repro.faults.FaultInjector`;
    when armed, every remote message goes through its retry machinery
    (drops and truncations are re-sent after a timeout) and delivery is
    idempotent: each receiver accepts one copy per sender, so a
    message re-delivered because its acknowledgement was lost does
    *not* duplicate rows.
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

    tuples_shuffled = 0
    tuples_remote = 0
    retries = 0
    duplicates_suppressed = 0
    delivery_counts = (
        np.zeros((num_senders, num_destinations), dtype=np.int64)
        if invariants.checking_enabled() else None
    )
    for destination, sizes in enumerate(routed.T.tolist()):
        seen_senders = set()
        for sender, size in enumerate(sizes):
            copies = 1
            if faults is not None and sender != destination:
                # Local messages never touch the network; remote ones
                # can be dropped (re-sent) or duplicated (lost ACK).
                duplicated, failures = faults.deliver(
                    "shuffle", sender, destination
                )
                retries += failures
                if duplicated:
                    copies = 2
            for _ in range(copies):
                if sender in seen_senders:
                    duplicates_suppressed += 1
                    continue
                seen_senders.add(sender)
                if delivery_counts is not None:
                    delivery_counts[sender, destination] += 1
                tuples_shuffled += size
                if sender != destination:
                    tuples_remote += size
    if delivery_counts is not None:
        invariants.check_shuffle_delivery(
            routed, per_destination, delivery_counts
        )
    return ShuffleResult(
        per_destination=list(per_destination),
        tuples_shuffled=tuples_shuffled,
        tuples_remote=tuples_remote,
        retries=retries,
        duplicates_suppressed=duplicates_suppressed,
    )

