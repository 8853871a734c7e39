"""Time plane: the schedule of the hybrid warehouse's execution traces.

The data plane (real numpy execution) emits a :class:`~repro.sim.trace.Trace`
of phases with measured volumes; :mod:`repro.sim.replay` computes its
schedule in one pass over the phase graph, honouring the pipelining and
barriers the paper describes (e.g. JEN overlaps shuffling with scanning,
while the zigzag join's HDFS Bloom filter is a hard barrier before the
second database access).  The query service's shared cluster
(:mod:`repro.service.scheduler`) computes each phase's chunks with the
same :func:`~repro.sim.replay.chunk_ends`.
"""

from repro.sim.trace import Phase, Trace
from repro.sim.replay import (
    PhaseTiming,
    TimingResult,
    chunk_ends,
    replay_trace,
)

__all__ = [
    "Phase",
    "PhaseTiming",
    "TimingResult",
    "Trace",
    "chunk_ends",
    "replay_trace",
]
