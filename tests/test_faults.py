"""Unit tests for the fault-injection layer (plans, injector, retries)."""

import pytest

from repro.errors import (
    FaultSpecError,
    QueryAbortError,
    SimulationError,
    TransferFaultError,
)
from repro.faults import FaultInjector, FaultPlan, ScanFaultHook, CrashSignal
from repro.faults.injector import DETECT_FRACTION
from repro.faults.plan import (
    AbortEvent,
    CrashEvent,
    MessageEvent,
    SlowEvent,
    SpillEvent,
)
from repro.net.transfer import (
    MAX_ATTEMPTS,
    TIMEOUT_SECONDS,
    backoff_seconds,
    deliver_with_retry,
    retry_overhead_seconds,
)
from repro.sim.trace import Trace


class TestFaultPlanParsing:
    def test_full_spec_round_trips(self):
        spec = ("crash:w7@scan,crash:w2@shuffle,slow:w3x5,"
                "drop:shuffle:0.01,trunc:shuffle:0.02,dup:transfer:0.05,"
                "spill:x0.5,abort:scan:2")
        plan = FaultPlan.from_spec(spec)
        assert plan.spec() == spec
        assert FaultPlan.from_spec(plan.spec()).events == plan.events

    def test_typed_views(self):
        plan = FaultPlan.from_spec(
            "crash:w7@scan,slow:w3x5,drop:shuffle:0.01,spill:x0.5,"
            "abort:join:3"
        )
        assert plan.crash_events() == (CrashEvent(7, "scan"),)
        assert plan.slow_events() == (SlowEvent(3, 5.0),)
        assert plan.message_events("shuffle") == (
            MessageEvent("drop", "shuffle", 0.01),
        )
        assert plan.message_events("transfer") == ()
        assert plan.spill_factor() == 0.5
        assert plan.abort_counts() == {"join": 3}

    def test_whitespace_and_case_tolerated(self):
        plan = FaultPlan.from_spec("  CRASH:w1@scan , slow:w2x2 ")
        assert plan.spec() == "crash:w1@scan,slow:w2x2"

    def test_abort_count_defaults_to_one(self):
        plan = FaultPlan.from_spec("abort:scan")
        assert plan.events == (AbortEvent("scan", 1),)

    def test_spill_event(self):
        plan = FaultPlan.from_spec("spill:x2")
        assert plan.events == (SpillEvent(2.0),)

    @pytest.mark.parametrize("bad", [
        "",
        "   ,  ,",
        "crash:w7@join",           # not a crash phase
        "crash:7@scan",            # missing the w
        "crash:w7",                # missing detail
        "slow:w3x0.5",             # factor < 1
        "slow:w3",                 # missing factor
        "drop:shuffle:0",          # prob must be > 0
        "drop:shuffle:1.5",        # prob must be <= 1
        "drop:disk:0.1",           # unknown channel
        "drop:shuffle:lots",       # non-numeric prob
        "spill:x0",                # factor must be > 0
        "spill:half",              # malformed
        "abort:fetch:1",           # unknown phase
        "abort:scan:0",            # count must be >= 1
        "abort:scan:many",         # non-numeric count
        "frobnicate:w1@scan",      # unknown kind
        "crash:w7@scan,crash:w7@shuffle",  # a worker dies only once
    ])
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(FaultSpecError):
            FaultPlan.from_spec(bad)


class TestRetryPolicy:
    def test_backoff_grows_geometrically(self):
        assert backoff_seconds(1) == 0.5
        assert backoff_seconds(2) == 1.0
        assert backoff_seconds(3) == 2.0
        with pytest.raises(SimulationError, match="1-based"):
            backoff_seconds(0)

    def test_retry_overhead_sums_timeouts_and_backoffs(self):
        assert TIMEOUT_SECONDS == 2.0
        # Two lost attempts: 2*(timeout) + (0.5 + 1.0) backoff.
        assert retry_overhead_seconds(2) == pytest.approx(5.5)
        assert retry_overhead_seconds(0) == 0.0

    def test_deliver_with_retry_exhausts_budget(self):
        sent = []

        def send(attempt):
            sent.append(attempt)
            return "drop"

        with pytest.raises(TransferFaultError) as excinfo:
            deliver_with_retry(
                send, channel="shuffle", sender=1, destination=2,
            )
        assert excinfo.value.attempts == MAX_ATTEMPTS == 4
        assert sent == [1, 2, 3, 4]

    def test_deliver_with_retry_counts_attempts(self):
        # Three losses leave one attempt of the budget: it succeeds.
        outcomes = iter(["drop", "trunc", "drop", "ok"])
        outcome, attempts = deliver_with_retry(
            lambda attempt: next(outcomes),
            channel="transfer", sender=0, destination=1,
        )
        assert outcome == "ok"
        assert attempts == MAX_ATTEMPTS


class TestInjectorDeterminism:
    def test_transfer_outcome_is_call_order_independent(self):
        plan = FaultPlan.from_spec("drop:shuffle:0.3", seed=7)
        first = FaultInjector(plan)
        second = FaultInjector(plan)
        messages = [(s, d) for s in range(6) for d in range(6)]
        forward = [first.transfer_outcome("shuffle", s, d, 1)
                   for s, d in messages]
        backward = [second.transfer_outcome("shuffle", s, d, 1)
                    for s, d in reversed(messages)]
        assert forward == list(reversed(backward))

    def test_seed_changes_outcomes(self):
        messages = [(s, d) for s in range(10) for d in range(10)]

        def roll(seed):
            injector = FaultInjector(
                FaultPlan.from_spec("drop:shuffle:0.3", seed=seed)
            )
            return [injector.transfer_outcome("shuffle", s, d, 1)
                    for s, d in messages]

        assert roll(1) != roll(2)
        assert roll(1) == roll(1)

    def test_epoch_changes_outcomes(self):
        injector = FaultInjector(FaultPlan.from_spec("drop:shuffle:0.3"))
        before = [injector.transfer_outcome("shuffle", s, 0, 1)
                  for s in range(20)]
        injector.bump_epoch()
        after = [injector.transfer_outcome("shuffle", s, 0, 1)
                 for s in range(20)]
        assert before != after

    def test_unaffected_channel_is_clean(self):
        injector = FaultInjector(FaultPlan.from_spec("drop:shuffle:1"))
        assert injector.transfer_outcome("transfer", 0, 1, 1) == "ok"


class TestInjectorEvents:
    def test_scan_crash_fires_once_at_midpoint(self):
        injector = FaultInjector(FaultPlan.from_spec("crash:w7@scan"))
        assert injector.scan_crash_block(3, 10) is None
        assert injector.scan_crash_block(7, 10) == 5
        # A worker dies only once, even across retries.
        assert injector.scan_crash_block(7, 10) is None

    def test_shuffle_crash_respects_live_set(self):
        injector = FaultInjector(
            FaultPlan.from_spec("crash:w2@shuffle,crash:w5@shuffle")
        )
        assert injector.shuffle_crashes([0, 1, 2, 3]) == [2]
        # 5 is not live; 2 already died.
        assert injector.shuffle_crashes([0, 1, 2, 3]) == []
        assert injector.shuffle_crashes([5]) == [5]

    def test_scan_hook_raises_crash_signal(self):
        hook = ScanFaultHook(crash_at=2)
        hook.before_block(9, 0, None)
        hook.before_block(9, 1, None)
        with pytest.raises(CrashSignal) as excinfo:
            hook.before_block(9, 2, "partial-stats")
        assert excinfo.value.worker_id == 9
        assert excinfo.value.stats == "partial-stats"

    def test_abort_fires_count_times_then_stops(self):
        injector = FaultInjector(FaultPlan.from_spec("abort:scan:2"))
        for _ in range(2):
            with pytest.raises(QueryAbortError):
                injector.check_abort("scan")
            injector.bump_epoch()
        injector.check_abort("scan")  # budget exhausted: no raise
        injector.check_abort("shuffle")  # other phases never abort
        assert injector.aborts == 2

    def test_slow_factor_and_speculation_threshold(self):
        injector = FaultInjector(FaultPlan.from_spec("slow:w3x5"))
        assert injector.slow_factor(3) == 5.0
        assert injector.slow_factor(4) == 1.0
        injector.record_straggler(3, 5.0, backup=1)
        assert injector.speculations == 1
        assert injector.stragglers == 0
        # Mild slowdown below the detection threshold: no speculation.
        mild = FaultInjector(FaultPlan.from_spec("slow:w3x1.1"))
        mild.record_straggler(3, 1.1, backup=1)
        assert mild.speculations == 0
        assert mild.stragglers == 1
        # At the threshold itself the straggler still finishes first;
        # past it a backup runs.  Either way the charge is capped at the
        # detection fraction of the phase.
        edge = FaultInjector(FaultPlan.from_spec("slow:w3x2"))
        edge.record_straggler(3, 1.0 + DETECT_FRACTION, backup=1)
        edge.record_straggler(4, 1.0 + 2 * DETECT_FRACTION, backup=1)
        assert (edge.stragglers, edge.speculations) == (1, 1)
        assert [action.fraction for action in edge.actions] == \
            [DETECT_FRACTION, DETECT_FRACTION]

    def test_spill_budget(self):
        injector = FaultInjector(FaultPlan.from_spec("spill:x0.5"))
        assert injector.spill_budget_rows(1000) == 500.0
        assert injector.spill_budget_rows(0) == 0.0
        clean = FaultInjector(FaultPlan.from_spec("slow:w1x2"))
        assert clean.spill_budget_rows(1000) == 0.0


class TestChargeTrace:
    @staticmethod
    def _scan_trace():
        trace = Trace("test")
        trace.add("scan", "hdfs_scan", 10.0)
        trace.add("shuffle", "shuffle", 4.0, streams_from=("scan",))
        trace.add("join", "jen_join", 6.0, after=("shuffle",))
        return trace

    def test_splice_after_rewires_dependents(self):
        trace = self._scan_trace()
        trace.splice_after("scan", "recovery_0", "recovery", 3.0)
        spliced = trace.phase("recovery_0")
        assert spliced.after == ("scan",)
        assert "recovery_0" in trace.phase("shuffle").streams_from
        assert trace.phase("join").after == ("shuffle",)
        # Insertion order: recovery sits right after its anchor.
        assert trace.names() == ["scan", "recovery_0", "shuffle", "join"]

    def test_splice_after_rejects_duplicates(self):
        trace = self._scan_trace()
        trace.splice_after("scan", "recovery_0", "recovery", 3.0)
        with pytest.raises(SimulationError, match="duplicate"):
            trace.splice_after("scan", "recovery_0", "recovery", 1.0)

    def test_charge_trace_prices_fraction_of_anchor(self):
        injector = FaultInjector(FaultPlan.from_spec("crash:w1@scan"))
        injector.record_scan_crash(1, rows_lost=100, blocks=4, survivors=2)
        trace = self._scan_trace()
        assert injector.charge_trace(trace) == 1
        phase = trace.phase("recovery_0_rescan")
        expected = TIMEOUT_SECONDS + 10.0 / 2
        assert phase.seconds == pytest.approx(expected)
        assert phase.kind == "recovery"
        # The action list drains: charging twice adds nothing.
        assert injector.charge_trace(trace) == 0

    def test_retry_waits_charge_max_per_destination(self):
        plan = FaultPlan.from_spec("drop:shuffle:0.5", seed=3)
        injector = FaultInjector(plan)
        # Manufacture two destinations with different accumulated waits.
        injector._retry_waits = {"shuffle": {1: 4.0, 2: 9.0}}
        injector._retry_messages = {"shuffle": 5}
        trace = self._scan_trace()
        assert injector.charge_trace(trace) == 1
        phase = trace.phase("recovery_0_retry")
        assert phase.seconds == pytest.approx(9.0)  # max, not 13.0
        assert "5 lost shuffle messages" in phase.description

    def test_counters_and_report(self):
        injector = FaultInjector(FaultPlan.from_spec("crash:w1@scan"))
        injector.scan_crash_block(1, 8)
        injector.record_scan_crash(1, rows_lost=7, blocks=8, survivors=3)
        counters = injector.counters()
        assert counters["crashes"] == 1
        assert counters["rows_discarded"] == 7
        assert counters["blocks_reassigned"] == 8
        report = injector.report()
        assert "crash: worker 1 died during scan" in report
        assert "crashes=1" in report
