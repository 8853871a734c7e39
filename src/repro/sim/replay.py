"""Replaying an execution trace: the phase schedule of one query.

Every phase:

1. waits for all ``after`` dependencies to finish and all
   ``streams_from`` producers to *start*;
2. works through its duration in fixed-size chunks, where chunk ``i`` may
   only be processed once every streaming producer has emitted its own
   chunk ``i`` — which is exactly how JEN's send/receive threads overlap
   a shuffle with the scan that feeds it (paper Section 4.4);
3. signals completion, releasing phases barriered on it.

These rules are a recurrence over the phase graph, so
:func:`replay_trace` evaluates them in one pass in dependency order,
with no event queue: a phase starts at the latest of its barriers, and
:func:`chunk_ends` gives its chunk ends — chunk ``i`` ends one slice
after the later of its own chunk ``i - 1`` and its producers' chunk
``i``, the rule the query service's shared cluster schedules on too.
(``tests/test_trace_replay.py`` holds every start and end to the
event-by-event kernel of ``tests/engine_reference.py``, bit for bit.)

The result records per-phase start and end times plus the makespan; the
difference between the makespan and :meth:`Trace.total_work_seconds` is
precisely the time saved by pipelining, which the pipelining ablation
benchmark measures directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import Dict, List, Optional, Sequence

from repro.errors import SimulationError
from repro.sim.trace import Phase, Trace

#: Number of chunks a streamed phase is divided into.  Larger values make
#: the pipelining approximation finer at linear simulation cost; 64 keeps
#: the discretisation error under 2%.
DEFAULT_CHUNKS = 64


@dataclass(frozen=True)
class PhaseTiming:
    """Simulated start and end of one phase."""

    name: str
    kind: str
    start: float
    end: float

    @property
    def elapsed(self) -> float:
        """Wall-clock the phase occupied (including stalls on producers)."""
        return self.end - self.start


@dataclass
class TimingResult:
    """Outcome of replaying one trace."""

    label: str
    total_seconds: float
    #: Listed in the order the phases finish, phases finishing at the
    #: same instant in trace order.  :meth:`critical_path` picks its
    #: terminal phase, and :meth:`breakdown` and the Gantt chart order
    #: phases with equal start and end, by this order.
    phases: Dict[str, PhaseTiming]

    def phase(self, name: str) -> PhaseTiming:
        """Timing of one phase."""
        try:
            return self.phases[name]
        except KeyError:
            raise SimulationError(f"no timing for phase {name!r}") from None

    def critical_path(self, trace: Optional[Trace] = None) -> List[str]:
        """The chain of phases that determined the makespan, in execution
        order.

        With the originating :class:`Trace` supplied, walks backward from
        the last-finishing phase (the first listed in :attr:`phases`
        among phases finishing together) through whichever dependency or
        streaming producer finished latest — the chain to attack when
        explaining why an algorithm lost.  Without the trace only the
        terminal phase is known.
        """
        if not self.phases:
            return []
        last = max(self.phases.values(), key=lambda timing: timing.end)
        if trace is None:
            return [last.name]
        return compute_critical_path(trace, self)

    def breakdown(self) -> str:
        """Multi-line report of the phase schedule."""
        lines = [f"{self.label}: {self.total_seconds:.1f}s simulated"]
        for timing in sorted(self.phases.values(),
                             key=lambda t: (t.start, t.end)):
            lines.append(
                f"  {timing.name:<28s} {timing.kind:<12s} "
                f"{timing.start:8.1f} -> {timing.end:8.1f} "
                f"({timing.elapsed:7.1f}s)"
            )
        return "\n".join(lines)


def compute_critical_path(trace: Trace, timing: TimingResult) -> List[str]:
    """Backward walk from the makespan phase through its gating inputs.

    At each step the walk moves to the dependency (``after``) or
    streaming producer whose *end* time is largest — the input that
    actually held the phase (or its completion) back.  Predecessors that
    finished well before the phase started cannot be the gate and are
    ignored when an alternative exists.
    """
    if len(timing.phases) == 0:
        return []
    current = max(timing.phases.values(), key=lambda t: t.end).name
    path = [current]
    while True:
        phase = trace.phase(current)
        predecessors = tuple(phase.after) + tuple(phase.streams_from)
        candidates = [
            name for name in predecessors if name in timing.phases
        ]
        if not candidates:
            break
        gate = max(candidates, key=lambda name: timing.phases[name].end)
        # If every predecessor finished before this phase began, the
        # phase started on time: its own duration was the constraint.
        if timing.phases[gate].end + 1e-9 < timing.phases[current].start:
            break
        path.append(gate)
        current = gate
    path.reverse()
    return path


def replay_trace(
    trace: Trace,
    chunks: int = DEFAULT_CHUNKS,
    pipelining: bool = True,
) -> TimingResult:
    """Schedule ``trace`` and return the phase timings.

    With ``pipelining=False`` every ``streams_from`` edge is treated as a
    hard barrier instead, modelling a materialising engine (the
    MapReduce-era behaviour the paper's JEN engine improves on); the
    pipelining ablation benchmark compares the two.

    One pass over the phases in trace order, which :meth:`Trace.add`
    makes dependency order: a phase starts once its ``after`` phases
    have ended and its streaming producers have started, and its chunks
    end at :func:`chunk_ends`.  The timings are listed as
    :attr:`TimingResult.phases` describes.

    Raises :class:`SimulationError` naming both phases when a phase
    depends on one missing from the trace, and a "deadlock" one when a
    phase waits on one not scheduled before it (a cycle).
    """
    if chunks <= 0:
        raise SimulationError("chunks must be positive")
    starts: Dict[str, float] = {}
    ends: Dict[str, float] = {}
    marks: Dict[str, List[float]] = {}
    timings: List[PhaseTiming] = []
    # Without pipelining a producer gates its consumers by its end.
    gates = starts if pipelining else ends
    for phase in trace:
        try:
            start = max([ends[name] for name in phase.after]
                        + [gates[name] for name in phase.streams_from],
                        default=0.0)
        except KeyError as missing:
            raise _unscheduled(trace, phase, missing.args[0]) from None
        starts[phase.name] = start
        producers = ([marks[name] for name in phase.streams_from]
                     if pipelining else [])
        marks[phase.name] = chunk_ends(start, phase.seconds, producers,
                                       chunks)
        ends[phase.name] = marks[phase.name][-1]
        timings.append(PhaseTiming(name=phase.name, kind=phase.kind,
                                   start=start, end=ends[phase.name]))
    timings.sort(key=lambda timing: timing.end)
    return TimingResult(
        label=trace.label,
        total_seconds=max(ends.values(), default=0.0),
        phases={timing.name: timing for timing in timings},
    )


def chunk_ends(start: float, seconds: float,
               producers: Sequence[List[float]], chunks: int) -> List[float]:
    """When each of a phase's ``chunks`` chunks ends, the phase starting
    at ``start`` and streaming from phases with chunk ends ``producers``.

    Chunk ``i`` ends ``seconds / chunks`` after the later of its own
    chunk ``i - 1`` and every producer's chunk ``i``.  The slices are
    summed one at a time, so every end is the float an event-by-event
    simulation of the same rule reaches.
    """
    slice_seconds = seconds / chunks
    now = start
    if producers:
        ends = []
        for ready in zip(*producers):
            now = max(now, *ready)
            if slice_seconds > 0:
                now += slice_seconds
            ends.append(now)
        return ends
    if slice_seconds > 0:
        return list(accumulate(repeat(slice_seconds, chunks),
                               initial=start))[1:]
    return [start] * chunks


def _unscheduled(trace: Trace, phase: Phase,
                 dependency: str) -> SimulationError:
    """Why ``phase`` found ``dependency`` not yet scheduled."""
    if dependency not in {other.name for other in trace}:
        return SimulationError(
            f"phase {phase.name!r} depends on unknown phase {dependency!r}"
        )
    return SimulationError(
        f"deadlock: phase {phase.name!r} waits on {dependency!r}, which "
        "is not scheduled before it"
    )
