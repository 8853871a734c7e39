"""Grace-hash spilling for JEN's local joins.

The paper's JEN "requires that all data fit in memory for the local
hash-based join on each worker.  In the future, we plan to support
spilling to disk to over come this limitation" (Section 4.4).  This
module implements that future work: when a worker's build side exceeds
its memory budget, both inputs are partitioned into fragments with a
*third* hash function (independent of both the agreed shuffle hash and
the database's internal hash, so fragments stay balanced), fragments are
"written" to disk, and the join runs fragment by fragment.

The data plane executes the fragmenting for real; the cost layer prices
one write plus one read of every spilled byte against the worker's disk
bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import JoinError

_FRAGMENT_MULT = np.uint64(0xD6E8FEB86659FD93)


def fragment_hash_partition(keys: np.ndarray, num_fragments: int
                            ) -> np.ndarray:
    """Fragment assignment, independent of the shuffle hashes."""
    if num_fragments <= 0:
        raise JoinError("num_fragments must be positive")
    x = np.asarray(keys).astype(np.uint64)
    with np.errstate(over="ignore"):
        x = x * _FRAGMENT_MULT
        x ^= x >> np.uint64(31)
        x = x * np.uint64(0x9E3779B97F4A7C15)
        x ^= x >> np.uint64(29)
    return (x % np.uint64(num_fragments)).astype(np.int64)


@dataclass
class SpillPlan:
    """How one worker's join will be fragmented."""

    num_fragments: int
    build_rows: int
    probe_rows: int

    @property
    def spilled(self) -> bool:
        """True if any fragmenting (and hence disk I/O) happens."""
        return self.num_fragments > 1

    def spilled_tuples(self) -> int:
        """Tuples written to and re-read from disk."""
        if not self.spilled:
            return 0
        return self.build_rows + self.probe_rows


def plan_spill(build_rows: int, probe_rows: int,
               memory_budget_rows: float) -> SpillPlan:
    """Decide the fragment count for one worker's join.

    ``memory_budget_rows`` is the largest build side that fits in the
    worker's memory; a non-positive budget means unlimited.
    """
    if memory_budget_rows <= 0 or build_rows <= memory_budget_rows:
        return SpillPlan(1, build_rows, probe_rows)
    fragments = int(np.ceil(build_rows / memory_budget_rows))
    return SpillPlan(fragments, build_rows, probe_rows)


def fragment_tables(build, probe, build_key: str, probe_key: str,
                    num_fragments: int, observers: Tuple = ()
                    ) -> List[Tuple[object, object]]:
    """Split both join inputs into co-aligned fragments.

    Rows with equal keys always land in the same fragment, so joining
    fragment-wise is exactly equivalent to the in-memory join.  Both
    sides go through the single-pass partition kernel — one sort + one
    gather each, with fragments as zero-copy views — so spill re-reads
    do not rescan either input once per fragment.  Each of
    ``observers`` checks the round trip.
    """
    from repro.kernels.partition import partition_table

    if num_fragments <= 1:
        return [(build, probe)]
    build_assignment = fragment_hash_partition(
        build.column(build_key), num_fragments
    )
    probe_assignment = fragment_hash_partition(
        probe.column(probe_key), num_fragments
    )
    build_fragments = partition_table(build, build_assignment, num_fragments)
    probe_fragments = partition_table(probe, probe_assignment, num_fragments)
    fragments = list(zip(build_fragments, probe_fragments))
    for observer in observers:
        observer.check_spill_fragments(
            build, probe, build_key, probe_key, fragments,
            num_fragments, fragment_hash_partition,
        )
    return fragments
