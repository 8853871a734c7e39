"""Execution traces: the contract between the data plane and time plane.

A join algorithm run produces a :class:`Trace` — an ordered set of
:class:`Phase` records.  Each phase carries its *duration* (already priced
by the cost layer from measured volumes) plus two kinds of dependencies:

``after``
    Hard barriers: the phase cannot start before these finish.  Example:
    the zigzag join's second database access cannot start before the HDFS
    Bloom filter has been fully built and shipped.

``streams_from``
    Pipelined producers: the phase starts as soon as the producer starts
    and consumes its output chunk by chunk, so it cannot *finish* before
    the producer does but overlaps with it otherwise.  Example: JEN
    shuffles filtered records while the scan is still running
    (paper Section 4.4, Figure 7).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import SimulationError


@dataclass(frozen=True)
class Phase:
    """One priced step of an algorithm's execution."""

    name: str
    kind: str
    seconds: float
    after: Tuple[str, ...] = ()
    streams_from: Tuple[str, ...] = ()
    description: str = ""
    volume_bytes: float = 0.0
    tuples: float = 0.0

    def __post_init__(self):
        if self.seconds < 0:
            raise SimulationError(
                f"phase {self.name!r} has negative duration {self.seconds}"
            )


class Trace:
    """An ordered, validated collection of phases for one execution."""

    def __init__(self, label: str = ""):
        self.label = label
        self._phases: Dict[str, Phase] = {}
        self.metadata: Dict[str, object] = {}

    def add(
        self,
        name: str,
        kind: str,
        seconds: float,
        after: Sequence[str] = (),
        streams_from: Sequence[str] = (),
        description: str = "",
        volume_bytes: float = 0.0,
        tuples: float = 0.0,
    ) -> Phase:
        """Append a phase; dependency names must already exist."""
        if name in self._phases:
            raise SimulationError(f"duplicate phase name {name!r}")
        for dependency in tuple(after) + tuple(streams_from):
            if dependency not in self._phases:
                raise SimulationError(
                    f"phase {name!r} depends on unknown phase {dependency!r}"
                )
        phase = Phase(
            name=name,
            kind=kind,
            seconds=float(seconds),
            after=tuple(after),
            streams_from=tuple(streams_from),
            description=description,
            volume_bytes=float(volume_bytes),
            tuples=float(tuples),
        )
        self._phases[name] = phase
        return phase

    def graft(self, other: "Trace", drop: Sequence[str] = (),
              remap: Optional[Dict[str, str]] = None) -> None:
        """Append every phase of ``other``, rewiring dependencies.

        ``drop`` names phases of ``other`` to omit; ``remap`` redirects
        dependency references (typically from a dropped phase to an
        existing phase of this trace).  Dependencies on dropped,
        unremapped phases are removed.  Used by the adaptive plane to
        stitch the post-switch run onto the trace that already carries
        the abandoned segment's phases.
        """
        remap = dict(remap or {})
        dropped = set(drop)

        def rewire(deps: Tuple[str, ...]) -> List[str]:
            rewired = []
            for dep in deps:
                dep = remap.get(dep, dep)
                if dep in dropped:
                    continue
                rewired.append(dep)
            return rewired

        for phase in other:
            if phase.name in dropped:
                continue
            self.add(
                phase.name, phase.kind, phase.seconds,
                after=rewire(phase.after),
                streams_from=rewire(phase.streams_from),
                description=phase.description,
                volume_bytes=phase.volume_bytes,
                tuples=phase.tuples,
            )

    def splice_after(
        self,
        anchor_name: str,
        name: str,
        kind: str,
        seconds: float,
        description: str = "",
        tuples: float = 0.0,
    ) -> Phase:
        """Insert a phase between ``anchor_name`` and its dependents.

        The new phase waits on the anchor, and every phase that depended
        on the anchor additionally depends on the new phase — through
        ``after`` if it was a barrier, through ``streams_from`` if it was
        pipelined — so the inserted work lands on the critical path
        instead of dangling off it.  This is how injected-fault recovery
        (re-scans, retries, speculation) is charged retroactively: the
        phases downstream of a delayed producer genuinely waited for the
        recovery to finish.
        """
        anchor = self.phase(anchor_name)
        if name in self._phases:
            raise SimulationError(f"duplicate phase name {name!r}")
        spliced = Phase(
            name=name,
            kind=kind,
            seconds=float(seconds),
            after=(anchor.name,),
            description=description,
            tuples=float(tuples),
        )
        rebuilt: Dict[str, Phase] = {}
        for existing_name, phase in self._phases.items():
            updated = phase
            if anchor_name in phase.after:
                updated = replace(updated, after=phase.after + (name,))
            if anchor_name in phase.streams_from:
                updated = replace(
                    updated, streams_from=phase.streams_from + (name,)
                )
            rebuilt[existing_name] = updated
            if existing_name == anchor_name:
                rebuilt[name] = spliced
        self._phases = rebuilt
        return spliced

    def __iter__(self) -> Iterator[Phase]:
        return iter(self._phases.values())

    def __len__(self) -> int:
        return len(self._phases)

    def phase(self, name: str) -> Phase:
        """Look up a phase by name."""
        try:
            return self._phases[name]
        except KeyError:
            raise SimulationError(f"unknown phase {name!r}") from None

    def names(self) -> List[str]:
        """Phase names in insertion order."""
        return list(self._phases)

    def total_work_seconds(self) -> float:
        """Sum of phase durations (an upper bound on the critical path)."""
        return sum(phase.seconds for phase in self)

    def describe(self) -> str:
        """Human-readable multi-line summary of the trace."""
        lines = [f"Trace {self.label or '(unlabelled)'}:"]
        for phase in self:
            dependencies = []
            if phase.after:
                dependencies.append("after " + ",".join(phase.after))
            if phase.streams_from:
                dependencies.append("streams " + ",".join(phase.streams_from))
            suffix = f" [{'; '.join(dependencies)}]" if dependencies else ""
            lines.append(
                f"  {phase.name:<28s} {phase.kind:<12s} "
                f"{phase.seconds:9.2f}s{suffix}"
            )
        return "\n".join(lines)
