"""The fault injector: fires a :class:`FaultPlan` during execution.

One :class:`FaultInjector` is armed on a :class:`~repro.jen.engine.Jen`
(via ``arm_faults``) and consulted from the engine's hook points:

* the distributed scan asks :meth:`scan_crash_block` whether a worker
  dies mid-scan and at which block;
* the shuffle asks :meth:`shuffle_crashes` for workers dying after
  their scan but before their rows are safely exchanged;
* every shuffle/transfer message goes through :meth:`deliver`, which
  rolls the plan's drop/trunc/dup probabilities with a per-message
  seeded RNG and drives :func:`~repro.net.transfer.deliver_with_retry`
  (timeout plus exponential backoff, four attempts per message);
* phase entries call :meth:`check_abort` so ``abort:`` events can kill
  the whole query (the service plane re-admits it once).

Every recovery the engine performs is logged as a
:class:`RecoveryAction`; :meth:`charge_trace` later materialises the
actions as ``recovery`` phases on the algorithm's trace, so the Gantt
timeline shows the detection timeouts, re-scans, backoffs and
speculative backups — and the simulated makespan pays for them.

Determinism: message outcomes are drawn from
``random.Random(f"{seed}:{epoch}:{channel}:{sender}:{dest}:{attempt}")``
so they depend only on the plan seed and the message identity, never on
call order.  Crash and abort events fire exactly once (aborts: once per
configured count); the fired state survives a service-plane retry, which
is what lets a re-admitted query succeed where the first attempt died.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import QueryAbortError
from repro.faults.plan import FaultPlan
from repro.net.transfer import (
    TIMEOUT_SECONDS,
    deliver_with_retry,
    retry_overhead_seconds,
)

#: A straggler gets a speculative backup once it falls this fraction
#: of its phase behind, which also caps what a straggler can cost.
DETECT_FRACTION = 0.25


class CrashSignal(Exception):
    """Internal control-flow signal: a worker just died mid-task.

    Not part of the :class:`~repro.errors.ReproError` family on purpose
    — it must never escape the engine, which converts it into recovery
    (or :class:`~repro.errors.WorkerCrashError` when unrecoverable).
    """

    def __init__(self, worker_id: int, stats):
        super().__init__(f"worker {worker_id} crashed")
        self.worker_id = worker_id
        self.stats = stats


class ScanFaultHook:
    """Per-task adapter handed to ``JenWorker.read_batch``.

    Raises :class:`CrashSignal` when the scan reaches the injected
    crash block, carrying the partial stats (the work about to be
    lost): rows, bytes and block counts of the blocks read so far.
    The worker's batch of read blocks has not been through the Bloom
    step yet, so no BF_H insert or observer call exists to undo.
    """

    def __init__(self, crash_at: Optional[int]):
        self.crash_at = crash_at

    def before_block(self, worker_id: int, index: int, stats) -> None:
        """Called by the worker before reading each block."""
        if self.crash_at is not None and index == self.crash_at:
            raise CrashSignal(worker_id, stats)


@dataclass
class RecoveryAction:
    """One recovery the engine performed, to be charged on the trace.

    ``seconds`` is an absolute cost (detection timeouts, backoffs);
    ``fraction`` is additionally multiplied by the duration of the
    anchor phase — the last trace phase whose kind equals
    ``anchor_kind`` — because re-scans and speculative backups cost a
    share of the work the phase itself priced.
    """

    kind: str
    description: str
    anchor_kind: str
    seconds: float = 0.0
    fraction: float = 0.0
    tuples: float = 0.0


class FaultInjector:
    """Arms a :class:`FaultPlan` and records the recovery it forces."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        #: Query attempt number; bumped by the service plane on retry so
        #: per-message RNG draws differ between attempts.
        self.epoch = 0
        self.actions: List[RecoveryAction] = []
        #: channel -> destination -> accumulated retry wait.  Retries on
        #: different links overlap; a receiver only waits for its own
        #: slowest chain, so the per-channel charge is the max.
        self._retry_waits: Dict[str, Dict[int, float]] = {}
        self._retry_messages: Dict[str, int] = {}
        self.fired: List[str] = []
        self._crashed: set = set()
        self._abort_remaining: Dict[str, int] = dict(plan.abort_counts())
        # Counters (exactly-once accounting for the chaos battery).
        self.crashes = 0
        self.rows_discarded = 0
        self.blocks_reassigned = 0
        self.speculations = 0
        self.stragglers = 0
        self.retries = 0
        self.duplicates_suppressed = 0
        self.aborts = 0

    # ------------------------------------------------------------------
    # Crash events
    # ------------------------------------------------------------------
    def scan_crash_block(self, worker_id: int,
                         num_blocks: int) -> Optional[int]:
        """Block index at which ``worker_id`` dies scanning, or None.

        Fires at the midpoint of the worker's block list — far enough in
        that partial work exists to discard, early enough that the
        un-scanned tail dominates.  Each worker crashes at most once.
        """
        for event in self.plan.crash_events():
            if (event.phase == "scan" and event.worker == worker_id
                    and worker_id not in self._crashed):
                self._crashed.add(worker_id)
                crash_at = num_blocks // 2
                self.fired.append(
                    f"crash: worker {worker_id} died during scan "
                    f"(block {crash_at}/{num_blocks})"
                )
                return crash_at
        return None

    def shuffle_crashes(self, live_ids: Sequence[int]) -> List[int]:
        """Workers among ``live_ids`` that die entering the shuffle."""
        victims = []
        for event in self.plan.crash_events():
            if (event.phase == "shuffle" and event.worker in live_ids
                    and event.worker not in self._crashed):
                self._crashed.add(event.worker)
                self.fired.append(
                    f"crash: worker {event.worker} died during shuffle"
                )
                victims.append(event.worker)
        return victims

    def record_scan_crash(self, worker_id: int, rows_lost: int,
                          blocks: int, survivors: int) -> None:
        """Account a recovered mid-scan crash."""
        self.crashes += 1
        self.rows_discarded += rows_lost
        self.blocks_reassigned += blocks
        self.actions.append(RecoveryAction(
            kind="rescan",
            description=(
                f"re-scan {blocks} blocks of crashed worker {worker_id} "
                f"on {survivors} survivors ({rows_lost} partial rows "
                "discarded)"
            ),
            anchor_kind="hdfs_scan",
            seconds=TIMEOUT_SECONDS,
            fraction=1.0 / max(1, survivors),
            tuples=rows_lost,
        ))

    def record_shuffle_crash(self, worker_id: int, rows_lost: int,
                             survivor: int) -> None:
        """Account a crash after the scan but mid-exchange.

        The victim's filtered rows existed only in its memory; the
        survivor must re-produce the victim's whole scan share, so the
        recovery costs a full per-worker scan on top of the detection
        timeout.
        """
        self.crashes += 1
        self.rows_discarded += rows_lost
        self.actions.append(RecoveryAction(
            kind="rescan",
            description=(
                f"worker {survivor} re-produces the {rows_lost} filtered "
                f"rows lost with worker {worker_id} (died in shuffle)"
            ),
            anchor_kind="hdfs_scan",
            seconds=TIMEOUT_SECONDS,
            fraction=1.0,
            tuples=rows_lost,
        ))

    # ------------------------------------------------------------------
    # Stragglers
    # ------------------------------------------------------------------
    def slow_factor(self, worker_id: int) -> float:
        """The straggler slowdown of ``worker_id`` (1.0 = healthy)."""
        factor = 1.0
        for event in self.plan.slow_events():
            if event.worker == worker_id:
                factor = max(factor, event.factor)
        return factor

    def record_straggler(self, worker_id: int, factor: float,
                         backup: Optional[int]) -> None:
        """Account a straggler; ``backup`` is the speculative worker.

        Without speculation the phase would stretch by ``factor``; with
        a backup launched once the worker falls ``DETECT_FRACTION``
        behind, the stretch is capped at ``DETECT_FRACTION`` of the
        phase.  The cheaper of the two is charged — speculation only
        helps once the straggler is slower than the backup path.
        """
        extra = min(factor - 1.0, DETECT_FRACTION)
        if extra <= 0:
            return
        speculated = backup is not None and factor - 1.0 > DETECT_FRACTION
        if speculated:
            self.speculations += 1
            description = (
                f"speculative re-execution of straggler worker "
                f"{worker_id} (x{factor:g}) on backup worker {backup}"
            )
        else:
            self.stragglers += 1
            description = (
                f"straggler worker {worker_id} (x{factor:g}) finished "
                "before speculation paid off"
            )
        self.fired.append(f"slow: worker {worker_id} x{factor:g}"
                          + (f", backup {backup}" if speculated else ""))
        self.actions.append(RecoveryAction(
            kind="speculate" if speculated else "straggler",
            description=description,
            anchor_kind="hdfs_scan",
            fraction=extra,
        ))

    # ------------------------------------------------------------------
    # Message faults
    # ------------------------------------------------------------------
    def transfer_outcome(self, channel: str, sender: int,
                         destination: int, attempt: int) -> str:
        """Outcome of one message attempt: ok / drop / trunc / dup.

        Drawn from a RNG seeded by the message identity, so outcomes are
        independent of call order and reproducible across runs.
        """
        events = self.plan.message_events(channel)
        if not events:
            return "ok"
        rng = random.Random(
            f"{self.plan.seed}:{self.epoch}:{channel}"
            f":{sender}:{destination}:{attempt}"
        )
        for event in events:
            if rng.random() < event.prob:
                return event.kind
        return "ok"

    def deliver(self, channel: str, sender: int,
                destination: int) -> Tuple[bool, int]:
        """Deliver one message through the retry machinery.

        Returns ``(duplicated, failures)``: whether the payload arrived
        twice (lost ACK — the receiver must suppress the copy) and how
        many attempts were lost before success.  Raises
        :class:`~repro.errors.TransferFaultError` once the retry budget
        is exhausted; the service plane handles that.
        """
        outcome, attempts = deliver_with_retry(
            None,
            lambda _payload, attempt: self.transfer_outcome(
                channel, sender, destination, attempt
            ),
            channel=channel, sender=sender, destination=destination,
        )
        failures = attempts - 1
        if failures:
            self.retries += failures
            self.fired.append(
                f"{channel}: message {sender}->{destination} lost "
                f"{failures}x, delivered on attempt {attempts}"
            )
            waits = self._retry_waits.setdefault(channel, {})
            waits[destination] = (
                waits.get(destination, 0.0)
                + retry_overhead_seconds(failures)
            )
            self._retry_messages[channel] = (
                self._retry_messages.get(channel, 0) + 1
            )
        if outcome == "dup":
            self.duplicates_suppressed += 1
            self.fired.append(
                f"{channel}: message {sender}->{destination} delivered "
                "twice (lost ACK); duplicate suppressed"
            )
        return outcome == "dup", failures

    # ------------------------------------------------------------------
    # Query aborts
    # ------------------------------------------------------------------
    def check_abort(self, phase: str) -> None:
        """Raise the injected coordinator abort if one is pending."""
        remaining = self._abort_remaining.get(phase, 0)
        if remaining > 0:
            self._abort_remaining[phase] = remaining - 1
            self.aborts += 1
            self.fired.append(f"abort: query killed at {phase} "
                              f"(attempt {self.epoch + 1})")
            raise QueryAbortError(
                f"injected abort at {phase} start "
                f"({remaining - 1} aborts remaining)",
                phase=phase,
            )

    def bump_epoch(self) -> None:
        """Advance the query-attempt counter (service-plane retry)."""
        self.epoch += 1

    # ------------------------------------------------------------------
    # Spill pressure
    # ------------------------------------------------------------------
    def spill_budget_rows(self, max_build_rows: int) -> float:
        """Injected per-worker memory budget (0 = no pressure)."""
        factor = self.plan.spill_factor()
        if factor <= 0 or max_build_rows <= 0:
            return 0.0
        budget = max(1.0, factor * max_build_rows)
        if not any(entry.startswith("spill:") for entry in self.fired):
            self.fired.append(
                f"spill: memory budget squeezed to {budget:.0f} rows "
                f"(x{factor:g} of the largest build side)"
            )
        return budget

    # ------------------------------------------------------------------
    # Charging the time plane
    # ------------------------------------------------------------------
    def charge_trace(self, trace) -> int:
        """Materialise pending recovery actions as trace phases.

        Each action becomes a ``recovery``-kind phase spliced in right
        after the last phase of its ``anchor_kind`` (falling back to the
        last phase of the trace), with duration ``seconds + fraction *
        anchor.seconds``.  Splicing rewires the anchor's dependents to
        wait on the recovery, so the replayed makespan pays for it —
        downstream phases genuinely could not proceed until the re-scan
        or retry finished.  Drains the action list; returns how many
        phases were added.
        """
        self._drain_retry_actions()
        actions, self.actions = self.actions, []
        names = trace.names()
        if not names or not actions:
            return 0
        last_by_kind: Dict[str, str] = {}
        for phase in trace:
            last_by_kind[phase.kind] = phase.name
        added = 0
        for index, action in enumerate(actions):
            anchor_name = last_by_kind.get(action.anchor_kind, names[-1])
            anchor = trace.phase(anchor_name)
            seconds = action.seconds + action.fraction * anchor.seconds
            if seconds <= 0:
                continue
            trace.splice_after(
                anchor_name,
                f"recovery_{index}_{action.kind}", "recovery", seconds,
                description=action.description,
                tuples=action.tuples,
            )
            added += 1
        return added

    def _drain_retry_actions(self) -> None:
        """Fold accumulated per-link retry waits into one action each.

        A receiver waits for its own slowest chain of re-sends while all
        other links keep flowing, so the phase-level charge is the
        maximum per-destination wait, not the sum over messages.
        """
        waits, self._retry_waits = self._retry_waits, {}
        messages, self._retry_messages = self._retry_messages, {}
        for channel, per_destination in waits.items():
            slowest = max(per_destination.values())
            self.actions.append(RecoveryAction(
                kind="retry",
                description=(
                    f"{messages.get(channel, 0)} lost {channel} messages "
                    f"re-sent after timeout + backoff (slowest receiver "
                    f"waited {slowest:.1f}s)"
                ),
                anchor_kind=("shuffle" if channel == "shuffle"
                             else "transfer"),
                seconds=slowest,
            ))

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        """The accounting counters as a plain dict."""
        return {
            "crashes": self.crashes,
            "rows_discarded": self.rows_discarded,
            "blocks_reassigned": self.blocks_reassigned,
            "speculations": self.speculations,
            "stragglers": self.stragglers,
            "retries": self.retries,
            "duplicates_suppressed": self.duplicates_suppressed,
            "aborts": self.aborts,
        }

    def report(self) -> str:
        """Human-readable summary of everything that fired."""
        lines = [f"fault plan: {self.plan.spec()} (seed {self.plan.seed})"]
        if self.fired:
            lines += [f"  {entry}" for entry in self.fired]
        else:
            lines.append("  no faults fired")
        active = {name: value for name, value in self.counters().items()
                  if value}
        if active:
            lines.append("  " + ", ".join(
                f"{name}={value}" for name, value in sorted(active.items())
            ))
        return "\n".join(lines)
