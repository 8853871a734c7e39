"""Admission control and the resource governor for the query service.

Every submitted query passes through one :class:`AdmissionController`
before it may touch the shared cluster:

* at most ``slots`` queries are in flight at once (bounded concurrency);
* excess queries wait in a bounded FIFO queue; a queue beyond
  ``max_queue`` rejects new arrivals outright (``queue_full``);
* a queued query that is not granted a slot within ``queue_timeout``
  simulated seconds is rejected (``timeout``) — its timer is a callback
  on the service's timeline — unless it was degraded (below);
* under overload the controller degrades gracefully: once the queue is
  ``shed_fraction`` full, *best-effort* arrivals (priority > 0) are shed
  immediately (``overload_shed``) so interactive traffic keeps its
  queue headroom — or, with ``degrade_to_approx``, queued for the
  approximate tier.

Which queued query gets a freed slot is decided by
:class:`~repro.service.scheduler.FairSharePolicy`: priority, then fair
share across tenants (the tenant holding the fewest slots), then FIFO.

The controller lives in simulated time, on the service's
:class:`~repro.service.scheduler.Timeline`; a request's callback gets
its :class:`AdmissionOutcome` the moment it is decided.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.errors import ServiceError
from repro.service.metrics import MetricsRegistry
from repro.service.scheduler import FairSharePolicy, Timeline


@dataclass(frozen=True)
class AdmissionConfig:
    """Tunables of the resource governor."""

    #: Maximum queries in flight on the cluster at once.
    slots: int = 8
    #: Maximum queries waiting for a slot; further arrivals are rejected.
    max_queue: int = 32
    #: Simulated seconds a query may wait before it is rejected.
    queue_timeout: float = 300.0
    #: Queue-depth fraction beyond which best-effort (priority > 0)
    #: arrivals are shed immediately.  None disables shedding.
    shed_fraction: Optional[float] = 0.75
    #: Turn shedding into a degraded tier: arrivals that would be
    #: rejected ``overload_shed`` are admitted (queued) for *approximate*
    #: execution instead.  Interactive (priority 0) traffic is never
    #: shed, so the exact tier is unaffected either way.  Needs
    #: ``shed_fraction``: nothing is shed, so nothing degrades, without.
    degrade_to_approx: bool = False

    def __post_init__(self):
        if not isinstance(self.slots, numbers.Integral) or self.slots < 1:
            raise ServiceError(
                f"admission needs a whole number of slots >= 1, "
                f"got {self.slots!r}")
        if not isinstance(self.max_queue, numbers.Integral) \
                or self.max_queue < 0:
            raise ServiceError(
                f"max_queue must be a non-negative whole number, "
                f"got {self.max_queue!r}")
        if not (math.isfinite(self.queue_timeout)
                and self.queue_timeout > 0):
            raise ServiceError(
                f"queue_timeout must be finite and positive, "
                f"got {self.queue_timeout!r}")
        if self.shed_fraction is not None and not 0 < self.shed_fraction <= 1:
            raise ServiceError("shed_fraction must be in (0, 1]")
        if self.degrade_to_approx and self.shed_fraction is None:
            raise ServiceError(
                "degrade_to_approx needs a shed_fraction: without "
                "shedding no query is ever degraded")


@dataclass
class AdmissionGrant:
    """A held slot; hand it back via :meth:`AdmissionController.release`."""

    tenant: str
    released: bool = False


@dataclass(frozen=True)
class AdmissionOutcome:
    """What a request resolves to."""

    admitted: bool
    #: "admitted", "queue_full", "overload_shed" or "timeout".
    reason: str
    queued_seconds: float
    grant: Optional[AdmissionGrant] = None
    #: True when the slot was granted under overload for the degraded
    #: (approximate) tier instead of being shed.
    degraded: bool = False


@dataclass(eq=False)
class _Pending:
    """One queued admission request."""

    tenant: str
    priority: int
    seq: int
    enqueued_at: float
    on_outcome: Callable[[AdmissionOutcome], None]
    degraded: bool = False


class AdmissionController:
    """Gate between submitted queries and the shared cluster."""

    def __init__(self, timeline: Timeline,
                 config: Optional[AdmissionConfig] = None,
                 metrics: Optional[MetricsRegistry] = None):
        self.timeline = timeline
        self.config = config or AdmissionConfig()
        self.policy = FairSharePolicy()
        self.metrics = metrics or MetricsRegistry()
        self._pending: List[_Pending] = []
        self._in_flight = 0
        self._by_tenant: Dict[str, int] = {}
        self._seq = itertools.count()
        self._gauge_queue = self.metrics.gauge(
            "admission.queue_depth", "queries waiting for a slot")
        self._gauge_in_flight = self.metrics.gauge(
            "admission.in_flight", "queries holding a slot")
        self._wait_histogram = self.metrics.histogram(
            "admission.queue_wait_seconds", "slot wait of admitted queries")

    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Queries currently holding a slot."""
        return self._in_flight

    @property
    def queue_depth(self) -> int:
        """Queries currently waiting."""
        return len(self._pending)

    # ------------------------------------------------------------------
    def request(self, on_outcome: Callable[[AdmissionOutcome], None],
                tenant: str = "default", priority: int = 0) -> None:
        """Ask for a slot; ``on_outcome`` gets the
        :class:`AdmissionOutcome` once decided (possibly at once)."""
        now = self.timeline.now
        degraded = False
        if self._shed_now(priority):
            if not self.config.degrade_to_approx:
                self._reject(on_outcome, "overload_shed", 0.0)
                return
            # Degraded tier: the query keeps its place in line but will
            # execute approximately — overload buys latency/accuracy,
            # not a rejection.
            degraded = True
        if len(self._pending) >= self.config.max_queue \
                and self._in_flight >= self.config.slots:
            self._reject(on_outcome, "queue_full", 0.0)
            return
        if degraded:
            self.metrics.counter("admission.degraded_to_approx").inc()
        pending = _Pending(
            tenant=tenant, priority=priority, seq=next(self._seq),
            enqueued_at=now, on_outcome=on_outcome, degraded=degraded,
        )
        self._pending.append(pending)
        self._gauge_queue.set(len(self._pending))
        self._dispatch()
        if pending in self._pending and not degraded:
            # Only genuinely queued requests need an expiry timer; a
            # degraded one is already overload's answer, and waits.
            self.timeline.after(self.config.queue_timeout,
                                lambda: self._expire(pending))

    def release(self, grant: AdmissionGrant) -> None:
        """Return a slot; wakes the next eligible queued query."""
        if grant.released:
            raise ServiceError(
                f"admission grant for tenant {grant.tenant!r} "
                "released twice"
            )
        grant.released = True
        self._in_flight -= 1
        self._by_tenant[grant.tenant] -= 1
        self._gauge_in_flight.set(self._in_flight)
        self._dispatch()

    # ------------------------------------------------------------------
    def _shed_now(self, priority: int) -> bool:
        if self.config.shed_fraction is None or priority <= 0:
            return False
        if self.config.max_queue == 0:
            return False
        threshold = self.config.shed_fraction * self.config.max_queue
        return len(self._pending) >= threshold

    def _reject(self, on_outcome: Callable[[AdmissionOutcome], None],
                reason: str, waited: float) -> None:
        self.metrics.counter(f"admission.rejected.{reason}").inc()
        self.metrics.counter("admission.rejected").inc()
        on_outcome(AdmissionOutcome(
            admitted=False, reason=reason, queued_seconds=waited,
        ))

    def _expire(self, pending: _Pending) -> None:
        if pending not in self._pending:
            return
        self._pending.remove(pending)
        self._gauge_queue.set(len(self._pending))
        self._reject(pending.on_outcome, "timeout",
                     self.timeline.now - pending.enqueued_at)

    def _dispatch(self) -> None:
        while self._in_flight < self.config.slots:
            choice = self.policy.select(self._pending, self._by_tenant)
            if choice is None:
                return
            pending = self._pending.pop(choice)
            self._in_flight += 1
            self._by_tenant[pending.tenant] = (
                self._by_tenant.get(pending.tenant, 0) + 1
            )
            waited = self.timeline.now - pending.enqueued_at
            self._gauge_queue.set(len(self._pending))
            self._gauge_in_flight.set(self._in_flight)
            self._wait_histogram.observe(waited)
            self.metrics.counter("admission.admitted").inc()
            pending.on_outcome(AdmissionOutcome(
                admitted=True, reason="admitted", queued_seconds=waited,
                grant=AdmissionGrant(tenant=pending.tenant),
                degraded=pending.degraded,
            ))
