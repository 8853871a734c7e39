"""JEN: the join execution engine on HDFS (paper Section 4).

A coordinator plus one worker per DataNode.  The coordinator resolves
table metadata from HCatalog, asks the NameNode for block locations,
hands out locality-aware balanced block assignments, and brokers the
connections between database workers and JEN workers.  Workers run the
scan → filter/project/Bloom → shuffle → hash-join → partial-aggregate
pipeline; a designated worker merges Bloom filters and final aggregates.
"""

from repro.jen.scheduler import BlockAssignment, assign_blocks
from repro.jen.coordinator import JenCoordinator
from repro.jen.worker import JenWorker, ScanStats
from repro.jen.exchange import ShuffleResult, shuffle
from repro.jen.engine import Jen

__all__ = [
    "BlockAssignment",
    "Jen",
    "JenCoordinator",
    "JenWorker",
    "ScanStats",
    "ShuffleResult",
    "assign_blocks",
    "shuffle",
]
