"""Stratified block sampling over the HDFS side of the join.

The sampling unit is an HDFS block: we either scan every row of a block
or none of it (cluster sampling), so a sample of ``m`` of the table's
``M`` blocks costs ``m/M`` of the full scan.  Blocks are stratified by
the datanode holding their primary replica and the sample is allocated
proportionally across strata, which keeps the scan load spread across
the cluster exactly like a full scan would and never inflates the
variance of the pooled SRSWOR estimator used downstream.

``plan_block_sample`` returns a *full* ordering of the table's blocks —
a seeded within-stratum shuffle interleaved round-robin across strata —
plus the target prefix length.  Any prefix of the ordering is an
approximately stratified sample, so a progressive run can keep
consuming blocks past the target until its error budget is met, and a
run that consumes the whole ordering has scanned the table exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import ceil
from typing import Dict, List, Sequence, Tuple

from repro.hdfs.filesystem import Block


@dataclass(frozen=True)
class BlockSample:
    """A seeded sampling plan over one HDFS table's blocks."""

    #: Every block of the table, in stratified-interleaved scan order.
    ordering: Tuple[Block, ...]
    #: How many blocks a one-shot run at the requested rate scans.
    target_blocks: int

    @property
    def total_blocks(self) -> int:
        return len(self.ordering)


def _primary_node(block: Block) -> int:
    return block.replicas[0] if block.replicas else -1


def plan_block_sample(
    blocks: Sequence[Block],
    sample_rate: float,
    seed: int,
    min_blocks: int = 1,
) -> BlockSample:
    """Plan a stratified block sample at ``sample_rate``.

    The target size is ``min(M, max(min_blocks, ceil(rate * M)))`` —
    small tables are simply scanned in full, which downstream code
    treats as an exact (zero-width-interval) run.
    """
    total = len(blocks)
    target = min(total, max(min_blocks, ceil(sample_rate * total)))

    strata: Dict[int, List[Block]] = {}
    for block in blocks:
        strata.setdefault(_primary_node(block), []).append(block)

    rng = random.Random(seed)
    # Shuffle within each stratum (strata visited in sorted order so the
    # permutation is a pure function of the seed, not of dict order).
    shuffled: List[List[Block]] = []
    for node in sorted(strata):
        group = list(strata[node])
        rng.shuffle(group)
        shuffled.append(group)

    # Round-robin interleave across strata: any prefix of the resulting
    # ordering holds a near-proportional share of every stratum.
    ordering: List[Block] = []
    cursor = 0
    while len(ordering) < total:
        for group in shuffled:
            if cursor < len(group):
                ordering.append(group[cursor])
        cursor += 1

    return BlockSample(ordering=tuple(ordering), target_blocks=target)
