"""Time plane: discrete-event simulation of the hybrid warehouse.

The data plane (real numpy execution) emits a :class:`~repro.sim.trace.Trace`
of phases with measured volumes; :mod:`repro.sim.replay` computes its
schedule in one pass over the phase graph, honouring the pipelining and
barriers the paper describes (e.g. JEN overlaps shuffling with scanning,
while the zigzag join's HDFS Bloom filter is a hard barrier before the
second database access).  The event-driven kernel in
:mod:`repro.sim.engine` runs the query service's shared cluster.
"""

from repro.sim.engine import AllOf, Event, Resource, SimEngine, Timeout
from repro.sim.trace import Phase, Trace
from repro.sim.replay import PhaseTiming, TimingResult, replay_trace

__all__ = [
    "AllOf",
    "Event",
    "Phase",
    "PhaseTiming",
    "Resource",
    "SimEngine",
    "Timeout",
    "TimingResult",
    "Trace",
    "replay_trace",
]
