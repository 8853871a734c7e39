"""The query service: a stream of hybrid joins over one shared cluster.

:class:`QueryService` is the third plane of the reproduction, next to
the data plane (real rows moving between the simulated engines) and the
time plane (one trace's schedule).  It accepts *many* queries
— submitted ahead of time with simulated arrival offsets — and runs
them concurrently over one :class:`~repro.warehouse.HybridWarehouse`:

1. ``submit()`` records a query (a :class:`~repro.query.query.HybridQuery`
   or SQL text) and returns a :class:`QueryTicket`;
2. ``drain()`` replays the whole stream on a fresh
   :class:`~repro.service.scheduler.Timeline`: arrivals fire at their
   offsets, the admission controller gates entry to the cluster, admitted
   queries execute the real data plane (through the semantic caches)
   and their traces contend for the shared EDW / JEN / interconnect
   resources of :class:`~repro.service.scheduler.SharedCluster`;
3. each completion feeds observed statistics back to the advisor via
   :class:`~repro.service.feedback.FeedbackLoop`, so algorithm choice
   improves over the stream;
4. ``drain()`` returns a :class:`ServiceReport` with per-query outcomes
   and the service metrics (throughput, tail latency, cache hit rates,
   admission counters).

The service is reusable: caches and feedback survive across drains,
while simulated time restarts from zero for each batch.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Union

from repro.approx.policy import ApproxPolicy
from repro.core.joins import ExecutionContext, JoinResult, algorithm_by_name
from repro.errors import FaultError, ServiceError
from repro.query.query import HybridQuery
from repro.relational.table import Table
from repro.service.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionOutcome,
)
from repro.service.cache import (
    BloomCache,
    CachingBloomBuilder,
    CachingJoinIndexProvider,
    JoinIndexCache,
    ResultCache,
    build_side_key,
    plan_key,
)
from repro.service.feedback import FeedbackLoop
from repro.service.metrics import MetricsRegistry
from repro.service.scheduler import SharedCluster, Timeline
from repro.sql import SqlSession


#: Simulated coordinator latency of answering from the result cache.
CACHE_HIT_SECONDS = 0.1
#: How many times a query killed by an unrecoverable injected fault is
#: re-admitted before the failure is surfaced to the client.
FAULT_RETRIES = 1


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one query service.

    The degraded (approximate) tier is switched on by the admission
    config's ``degrade_to_approx``: under overload, best-effort arrivals
    that would be shed are admitted for approximate execution instead.
    Degraded results carry interval reports, never enter the result
    cache, and never feed the advisor's feedback loop.
    """

    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    enable_result_cache: bool = True
    enable_feedback: bool = True
    #: Run ``auto`` queries through the adaptive wrapper (mid-query
    #: re-optimization) instead of committing to the advisor's pick.
    enable_adaptive: bool = False
    #: Accuracy target of the degraded tier (None = the
    #: :class:`~repro.approx.policy.ApproxPolicy` defaults).
    approx_policy: Optional[ApproxPolicy] = None


@dataclass
class QueryOutcome:
    """Everything the service can say about one submitted query."""

    ticket_id: int
    tenant: str
    #: "ok", "rejected" (admission control) or "failed" (unrecoverable
    #: fault after ``FAULT_RETRIES`` re-admissions).
    status: str
    reject_reason: str = ""
    #: Typed error of the terminal fault, e.g. "QueryAbortError: ...".
    error: str = ""
    #: Re-admissions this query consumed recovering from faults.
    fault_retries_used: int = 0
    algorithm: str = ""
    advisor_rationale: str = ""
    cache_hit: bool = False
    submitted_at: float = 0.0
    admitted_at: float = 0.0
    finished_at: float = 0.0
    queue_wait: float = 0.0
    result: Optional[Table] = None
    join_result: Optional[JoinResult] = None
    #: True when the query executed on the degraded (approximate) tier.
    degraded: bool = False
    #: The approximate run's interval report (the
    #: ``trace.metadata["approx"]`` payload); ``None`` for exact runs.
    approx_report: Optional[dict] = None

    @property
    def ok(self) -> bool:
        """Whether the query completed."""
        return self.status == "ok"

    @property
    def latency(self) -> float:
        """Submission-to-answer simulated seconds."""
        return self.finished_at - self.submitted_at

    @property
    def service_seconds(self) -> float:
        """Execution time excluding the admission queue wait."""
        return self.finished_at - self.admitted_at


@dataclass
class QueryTicket:
    """Handle returned by :meth:`QueryService.submit`."""

    id: int
    tenant: str
    at: float
    outcome: Optional[QueryOutcome] = None

    @property
    def done(self) -> bool:
        """Whether the batch holding this ticket has been drained."""
        return self.outcome is not None

    def result(self) -> Table:
        """The result table; raises if not drained or not completed."""
        if self.outcome is None:
            raise ServiceError(
                f"query q{self.id} not executed yet; call drain()"
            )
        if not self.outcome.ok:
            detail = self.outcome.error or self.outcome.reject_reason
            raise ServiceError(
                f"query q{self.id} was {self.outcome.status} ({detail})"
            )
        return self.outcome.result


@dataclass
class _Submission:
    ticket: QueryTicket
    query: HybridQuery
    algorithm: str
    priority: int


@dataclass
class ServiceReport:
    """Outcome of draining one batch."""

    outcomes: List[QueryOutcome]
    makespan: float
    metrics: MetricsRegistry

    def completed(self) -> List[QueryOutcome]:
        """Queries that produced a result."""
        return [outcome for outcome in self.outcomes if outcome.ok]

    def rejected(self) -> List[QueryOutcome]:
        """Queries refused by admission control."""
        return [outcome for outcome in self.outcomes
                if outcome.status == "rejected"]

    def failed(self) -> List[QueryOutcome]:
        """Queries that died on an unrecoverable fault after retries."""
        return [outcome for outcome in self.outcomes
                if outcome.status == "failed"]

    def throughput(self) -> float:
        """Completed queries per simulated second."""
        if self.makespan <= 0:
            return 0.0
        return len(self.completed()) / self.makespan

    def serial_seconds(self) -> float:
        """Sum of per-query execution times — what a one-at-a-time
        service would have taken end to end."""
        return sum(outcome.service_seconds for outcome in self.completed())

    def render(self) -> str:
        """Human-readable report: per-query lines plus the metrics."""
        lines = [
            f"{len(self.completed())} completed, "
            f"{len(self.rejected())} rejected, "
            f"{len(self.failed())} failed in "
            f"{self.makespan:.1f}s simulated "
            f"({self.throughput() * 60:.2f} queries/min; serial sum "
            f"{self.serial_seconds():.1f}s)",
            "",
        ]
        for outcome in self.outcomes:
            if outcome.ok:
                source = "cache" if outcome.cache_hit else outcome.algorithm
                if outcome.degraded:
                    report = outcome.approx_report or {}
                    source = (
                        f"~{source}@"
                        f"{report.get('fraction_scanned', 1.0):.0%}"
                    )
                lines.append(
                    f"  q{outcome.ticket_id:<4d} {outcome.tenant:<10s} "
                    f"{source:<18s} wait={outcome.queue_wait:7.1f}s "
                    f"latency={outcome.latency:8.1f}s "
                    f"rows={outcome.result.num_rows}"
                )
            elif outcome.status == "failed":
                lines.append(
                    f"  q{outcome.ticket_id:<4d} {outcome.tenant:<10s} "
                    f"FAILED ({outcome.error}) after "
                    f"{outcome.fault_retries_used} re-admissions"
                )
            else:
                lines.append(
                    f"  q{outcome.ticket_id:<4d} {outcome.tenant:<10s} "
                    f"REJECTED ({outcome.reject_reason}) after "
                    f"{outcome.queue_wait:.1f}s"
                )
        lines += ["", "metrics:", self.metrics.render()]
        return "\n".join(lines)


class QueryService:
    """Concurrent query execution over one hybrid warehouse."""

    def __init__(self, warehouse, config: Optional[ServiceConfig] = None):
        self.warehouse = warehouse
        self.config = config or ServiceConfig()
        self.metrics = MetricsRegistry()
        self.feedback = FeedbackLoop(metrics=self.metrics)
        self.result_cache = ResultCache(metrics=self.metrics)
        self.bloom_builder = CachingBloomBuilder(
            warehouse.database, BloomCache(metrics=self.metrics))
        self.join_index_provider = CachingJoinIndexProvider(
            JoinIndexCache(metrics=self.metrics))
        refiner = (self._refine_estimate if self.config.enable_feedback
                   else None)
        self.session = SqlSession(warehouse, estimate_refiner=refiner)
        self._ids = itertools.count(1)
        self._pending: List[_Submission] = []

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, query: Union[HybridQuery, str], tenant: str = "default",
               at: float = 0.0, algorithm: str = "auto",
               priority: int = 0) -> QueryTicket:
        """Queue a query for the next drain; returns its ticket.

        ``at`` is the simulated arrival offset from the start of the
        batch; ``priority`` 0 is interactive, larger values are
        best-effort (shed first under overload).
        """
        if not (math.isfinite(at) and at >= 0):
            raise ServiceError(
                f"arrival offset must be finite and non-negative, got {at}")
        if isinstance(query, str):
            query = self._translate(query)
        if algorithm != "auto":
            algorithm_by_name(algorithm)  # validate the name early
        ticket = QueryTicket(id=next(self._ids), tenant=tenant, at=at)
        self._pending.append(_Submission(
            ticket=ticket, query=query, algorithm=algorithm,
            priority=priority,
        ))
        self.metrics.counter("service.submitted").inc()
        return ticket

    def _translate(self, sql: str) -> HybridQuery:
        translation = self.session.explain(sql)
        if translation.needs_prejoin():
            raise ServiceError(
                "star-schema SQL needs in-database pre-joins; run it "
                "through SqlSession.execute, not the query service"
            )
        return translation.query

    # ------------------------------------------------------------------
    # Draining a batch
    # ------------------------------------------------------------------
    def drain(self) -> ServiceReport:
        """Replay every pending submission on a fresh simulated clock."""
        batch, self._pending = self._pending, []
        timeline = Timeline()
        cluster = SharedCluster()
        admission = AdmissionController(
            timeline, self.config.admission, metrics=self.metrics)
        for submission in sorted(batch,
                                 key=lambda s: (s.ticket.at, s.ticket.id)):
            timeline.after(submission.ticket.at, functools.partial(
                self._arrive, timeline, cluster, admission, submission))
        timeline.run()
        outcomes = [submission.ticket.outcome for submission in batch]
        # The timeline's final clock includes queue-timeout timers that
        # fired as no-ops; the batch makespan is the last completion.
        makespan = max(
            (outcome.finished_at for outcome in outcomes), default=0.0)
        return ServiceReport(
            outcomes=outcomes, makespan=makespan, metrics=self.metrics)

    def execute(self, query: Union[HybridQuery, str],
                algorithm: str = "auto") -> QueryOutcome:
        """Convenience: submit one query and drain immediately."""
        ticket = self.submit(query, algorithm=algorithm)
        self.drain()
        return ticket.outcome

    # ------------------------------------------------------------------
    def _arrive(self, timeline: Timeline, cluster: SharedCluster,
                admission: AdmissionController,
                submission: _Submission) -> None:
        """One query from its arrival on: a chain of callbacks on the
        drain's timeline, each run one step after what it waited for."""
        ticket = submission.ticket
        submitted_at = timeline.now
        key = plan_key(submission.query)
        queue_wait = 0.0
        retries_used = 0

        def finish(status: str, **fields) -> None:
            self._finish(ticket, QueryOutcome(
                ticket_id=ticket.id, tenant=ticket.tenant, status=status,
                fault_retries_used=retries_used, submitted_at=submitted_at,
                finished_at=timeline.now, **fields))

        def request(error: str = "") -> None:
            admission.request(
                lambda admit: timeline.after(0.0, lambda: admitted(
                    admit, error)),
                ticket.tenant, submission.priority)

        def admitted(admit: AdmissionOutcome, error: str) -> None:
            nonlocal queue_wait
            queue_wait += admit.queued_seconds
            if admit.admitted:
                execute(admit)
            else:
                finish("rejected", reject_reason=admit.reason, error=error,
                       admitted_at=submitted_at + queue_wait,
                       queue_wait=queue_wait)

        def execute(admit: AdmissionOutcome) -> None:
            # Graceful degradation: an unrecoverable injected fault
            # releases the slot and re-admits the query up to
            # ``FAULT_RETRIES`` times (the injector's fired-once
            # crash/abort state persists, so the retry typically runs
            # clean); past that, the failure surfaces with its typed
            # FaultError.
            nonlocal retries_used
            try:
                if admit.degraded:
                    algorithm, rationale, join_result, \
                        approx_report = self._execute_approx(
                            submission.query)
                else:
                    algorithm, rationale, join_result = \
                        self._execute_data_plane(
                            submission.query, submission.algorithm)
                    approx_report = None
            except FaultError as exc:
                admission.release(admit.grant)
                self.metrics.counter("service.fault_aborts").inc()
                injector = self.warehouse.jen.injector
                if injector is not None:
                    injector.bump_epoch()
                error = f"{type(exc).__name__}: {exc}"
                if retries_used >= FAULT_RETRIES:
                    finish("failed", error=error,
                           admitted_at=submitted_at + queue_wait,
                           queue_wait=queue_wait)
                else:
                    retries_used += 1
                    self.metrics.counter("service.fault_retries").inc()
                    request(error)
                return

            def done() -> None:
                admission.release(admit.grant)
                # A degraded run's answer is an estimate: it must not
                # poison the result cache (a later exact query would get
                # a sampled answer) nor the advisor's feedback loop (its
                # observed volumes reflect the sample, not the query).
                degraded = approx_report is not None
                if self.config.enable_feedback and not degraded:
                    self.feedback.record(
                        key, plan_key(submission.query, literals=False),
                        self.session.sample_estimate(submission.query),
                        join_result,
                    )
                if self.config.enable_result_cache and not degraded:
                    self.result_cache.put(key, join_result.result)
                finish("ok", algorithm=algorithm,
                       advisor_rationale=rationale,
                       admitted_at=submitted_at + queue_wait,
                       queue_wait=queue_wait, result=join_result.result,
                       join_result=join_result, degraded=degraded,
                       approx_report=approx_report)

            cluster.schedule(timeline, join_result.trace,
                             lambda _timings: timeline.after(0.0, done))

        cached = (self.result_cache.get(key)
                  if self.config.enable_result_cache else None)
        if cached is None:
            request()
        else:
            timeline.after(CACHE_HIT_SECONDS, lambda: finish(
                "ok", algorithm="cache", cache_hit=True,
                admitted_at=submitted_at, result=cached))

    def _execute_data_plane(self, query: HybridQuery, algorithm: str):
        """Run the real data plane; returns (algorithm, rationale, run)."""
        rationale = ""
        if algorithm == "auto" and self.config.enable_adaptive:
            return self._execute_adaptive(query)
        if algorithm == "auto":
            decision = self.session.advise(query)
            algorithm, rationale = decision.best, decision.rationale
        join_result = algorithm_by_name(algorithm).run(
            self.warehouse, query, self._context(query, algorithm))
        self._record_bytes_shipped(join_result)
        return algorithm, rationale, join_result

    def _execute_approx(self, query: HybridQuery):
        """The degraded tier: run the query approximately.

        Falls back to the exact tier (counting ``approx.unsupported``)
        when the query or environment is outside the approximate
        contract: min/max aggregates have no closed-form interval, and
        an armed fault plan has no recovery semantics in the
        block-at-a-time sampled scan.  Returns ``(algorithm, rationale,
        join_result, approx_report)`` with ``approx_report=None`` on
        fallback.
        """
        from repro.approx import ApproxJoin

        policy = self.config.approx_policy or ApproxPolicy()
        has_extremes = any(
            spec.function in ("min", "max") for spec in query.aggregates
        )
        if self.warehouse.jen.injector is not None or has_extremes:
            self.metrics.counter("approx.unsupported").inc()
            algorithm, rationale, join_result = self._execute_data_plane(
                query, "auto")
            return algorithm, rationale, join_result, None

        algo = ApproxJoin.from_policy(
            policy, progressive=policy.max_error is not None)
        join_result = algo.run(self.warehouse, query,
                               self._context(query, "approx"))
        self._record_bytes_shipped(join_result)
        self.metrics.counter("approx.runs").inc()
        report = join_result.trace.metadata.get("approx", {})
        self.metrics.histogram("approx.fraction_scanned").observe(
            report.get("fraction_scanned", 1.0))
        rationale = (
            f"shed to degraded tier: sample_rate={policy.sample_rate:g}, "
            f"confidence={policy.confidence:g}"
            + (f", max_error={policy.max_error:g}"
               if policy.max_error is not None else "")
        )
        return join_result.algorithm, rationale, join_result, report

    def _execute_adaptive(self, query: HybridQuery):
        """Auto mode with mid-query re-optimization.

        The adaptive wrapper starts from the *refined* estimate, so the
        feedback loop's observed statistics (themselves fed by earlier
        adaptive runs) progressively remove the need to switch on
        repeated templates.
        """
        from repro.adaptive import AdaptiveJoin

        context = self._context(query, "adaptive")
        estimate = self.session.estimate(query)
        join_result = AdaptiveJoin(estimate=estimate).run(
            self.warehouse, query, context)
        self._record_bytes_shipped(join_result)
        self.metrics.counter("adaptive.runs").inc()
        report = join_result.trace.metadata.get("adaptive", {})
        rationale = ""
        if report.get("switched"):
            self.metrics.counter("adaptive.switches").inc()
            rationale = report["switches"][-1]["reason"]
        return join_result.algorithm, rationale, join_result

    def _context(self, query: HybridQuery,
                 algorithm: str) -> ExecutionContext:
        """One query's context: the service's Bloom and join-index
        caches, the index scoped to the query's build side."""
        return ExecutionContext(
            bloom_builder=self.bloom_builder,
            index_for=self.join_index_provider.for_query(build_side_key(
                query, self.warehouse.jen.num_workers, algorithm)),
        )

    def _record_bytes_shipped(self, join_result: JoinResult) -> None:
        """Accumulate the trace's per-phase transfer volumes.

        Every join trace classifies its transfer phases into export /
        shuffle / relay / stitch buckets (``bytes_shipped`` metadata);
        the service sums them across queries so an operator can see
        where the cluster's network budget went — and in particular how
        much late materialization's stitch phase spent versus what thin
        shipping saved.
        """
        shipped = join_result.trace.metadata.get("bytes_shipped")
        if not shipped:
            return
        for category in ("export", "shuffle", "relay", "stitch"):
            amount = shipped.get(category, 0.0)
            if amount > 0:
                self.metrics.counter(f"net.bytes.{category}").inc(amount)
        cross = shipped.get("cross_cluster", 0.0)
        if cross > 0:
            self.metrics.counter("net.bytes.cross_cluster").inc(cross)

    def _refine_estimate(self, query: HybridQuery, estimate):
        """The session's estimate hook: apply accumulated feedback."""
        return self.feedback.refine(
            plan_key(query), plan_key(query, literals=False), estimate)

    def _finish(self, ticket: QueryTicket, outcome: QueryOutcome) -> None:
        ticket.outcome = outcome
        if outcome.ok:
            self.metrics.counter("service.completed").inc()
            label = "cache" if outcome.cache_hit else outcome.algorithm
            self.metrics.histogram("service.latency_seconds").observe(
                outcome.latency)
            self.metrics.histogram(
                f"service.latency_seconds.{label}").observe(outcome.latency)
            self.metrics.histogram(
                f"service.latency_seconds.tenant.{ticket.tenant}"
            ).observe(outcome.latency)
        elif outcome.status == "failed":
            self.metrics.counter("service.query_failed").inc()
        else:
            self.metrics.counter("service.query_rejected").inc()
