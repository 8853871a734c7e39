"""Locality-aware, balanced block assignment (paper Section 4.2).

The coordinator "carefully considers the locations of each HDFS block to
create balanced assignments and maximize the locality of data in a
best-effort manner".  The greedy policy below reproduces that: blocks
are dealt one at a time to the least-loaded worker holding a replica,
unless every replica holder is already at the balanced target, in which
case the globally least-loaded worker takes it as a remote read.

The same least-loaded-first instinct drives :func:`plan_work_stealing`,
the skew plane's join-time rebalancer: when a straggler partition
survives the hybrid shuffle (detection has thresholds; mild skew slips
under them), its work is fragmented and re-dealt across the idle
workers before the local joins run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.errors import SimulationError
from repro.hdfs.blocks import Block


@dataclass
class BlockAssignment:
    """Result of assigning one table's blocks to workers."""

    #: worker id -> blocks it will read.
    per_worker: Dict[int, List[Block]]
    #: Blocks read from a local replica.
    local_blocks: int = 0
    #: Blocks read over the network.
    remote_blocks: int = 0

    def blocks_for(self, worker_id: int) -> List[Block]:
        """Blocks assigned to one worker."""
        return self.per_worker.get(worker_id, [])

    def locality_fraction(self) -> float:
        """Fraction of blocks served from a local replica."""
        total = self.local_blocks + self.remote_blocks
        return self.local_blocks / total if total else 1.0


@dataclass
class StealPlan:
    """How straggler partitions are re-dealt across workers.

    ``fragments[slot]`` is how many pieces slot's work splits into
    (1 = untouched); ``assignments[(slot, piece)]`` names the worker
    that executes the piece.  The plan is purely an assignment — the
    engine fragments the actual tables (key-aligned, via
    :func:`repro.jen.spill.fragment_tables`) and measures the achieved
    balance afterwards.
    """

    loads: List[int]
    fragments: List[int]
    assignments: Dict[tuple, int]
    #: max/mean load before and (estimated) after stealing.
    pre_balance: float
    post_balance: float

    def has_moves(self) -> bool:
        """True if any piece runs away from its original owner."""
        return any(
            destination != slot
            for (slot, _piece), destination in self.assignments.items()
        )


def plan_work_stealing(loads: Sequence[int],
                       threshold: float = 1.25) -> StealPlan:
    """Deterministic LPT re-deal of straggler partitions.

    ``loads[i]`` is worker *i*'s pending join work (build + probe
    rows).  When the heaviest worker exceeds ``threshold`` times the
    mean, every straggler's work is fragmented into roughly mean-sized
    pieces; non-stragglers stay pinned to their owner (stealing must
    only move the surplus, never reshuffle work that is already
    placed).  The straggler pieces are then greedily dealt (largest
    first) to the least-loaded workers — classic longest-processing-
    time scheduling, with ties broken toward the piece's original owner
    and then the lowest worker id so the plan is reproducible.
    """
    loads = [int(load) for load in loads]
    n = len(loads)
    identity = StealPlan(
        loads=loads,
        fragments=[1] * n,
        assignments={(slot, 0): slot for slot in range(n)},
        pre_balance=1.0,
        post_balance=1.0,
    )
    if n <= 1:
        return identity
    total = sum(loads)
    mean = total / n
    if mean <= 0:
        return identity
    pre_balance = max(loads) / mean
    identity.pre_balance = identity.post_balance = pre_balance
    if pre_balance <= threshold:
        return identity

    fragments = [
        min(n, math.ceil(load / mean)) if load > threshold * mean else 1
        for load in loads
    ]
    assigned = [0.0] * n
    assignments: Dict[tuple, int] = {}
    for slot in range(n):
        if fragments[slot] == 1:
            assignments[(slot, 0)] = slot
            assigned[slot] += loads[slot]
    pieces = [
        (slot, piece, loads[slot] / fragments[slot])
        for slot in range(n)
        if fragments[slot] > 1
        for piece in range(fragments[slot])
    ]
    pieces.sort(key=lambda entry: (-entry[2], entry[0], entry[1]))
    for slot, piece, estimate in pieces:
        destination = min(
            range(n),
            key=lambda worker: (
                assigned[worker], 0 if worker == slot else 1, worker
            ),
        )
        assignments[(slot, piece)] = destination
        assigned[destination] += estimate
    return StealPlan(
        loads=loads,
        fragments=fragments,
        assignments=assignments,
        pre_balance=pre_balance,
        post_balance=max(assigned) / mean,
    )


def assign_blocks(blocks: Sequence[Block], workers,
                  locality: bool = True) -> BlockAssignment:
    """Assign blocks to workers, balancing load and honouring locality.

    ``workers`` is either a worker count (ids ``0..n-1``) or an explicit
    list of live worker ids — the latter is what the coordinator passes
    after a worker failure, so blocks whose replicas live on a dead node
    fall back to remote reads on the survivors.

    ``locality=False`` ignores replica placement entirely (blocks are
    dealt round-robin) — the locality ablation benchmark uses this to
    quantify what Section 4.2's policy buys.
    """
    if isinstance(workers, int):
        worker_ids = list(range(workers))
    else:
        worker_ids = list(workers)
    if not worker_ids:
        raise SimulationError("need at least one worker")
    live = set(worker_ids)
    assignment = BlockAssignment(
        per_worker={worker: [] for worker in worker_ids}
    )
    if not blocks:
        return assignment

    target = math.ceil(len(blocks) / len(worker_ids))
    load = {worker: 0 for worker in worker_ids}

    for position, block in enumerate(blocks):
        if not locality:
            # Round-robin with an offset so the assignment does not
            # accidentally line up with the NameNode's own round-robin
            # first-replica placement.
            index = (position + len(worker_ids) // 2 + 1) % len(worker_ids)
            worker = worker_ids[index]
            assignment.per_worker[worker].append(block)
            load[worker] += 1
            if worker in block.replicas:
                assignment.local_blocks += 1
            else:
                assignment.remote_blocks += 1
            continue
        candidates = [
            node for node in block.replicas
            if node in live and load[node] < target
        ]
        if candidates:
            worker = min(candidates, key=lambda node: (load[node], node))
            assignment.local_blocks += 1
        else:
            worker = min(load, key=lambda node: (load[node], node))
            if worker in block.replicas:
                assignment.local_blocks += 1
            else:
                assignment.remote_blocks += 1
        assignment.per_worker[worker].append(block)
        load[worker] += 1
    return assignment
