"""Unit tests for the reference discrete-event kernel
(``tests/engine_reference.py``)."""

import pytest

from repro.errors import SimulationError
from tests.engine_reference import AllOf, SimEngine, Timeout


class TestTimeouts:
    def test_sequential_timeouts(self):
        engine = SimEngine()
        log = []

        def process():
            yield Timeout(5.0)
            log.append(engine.now)
            yield Timeout(2.5)
            log.append(engine.now)

        engine.process(process())
        assert engine.run() == 7.5
        assert log == [5.0, 7.5]

    def test_negative_timeout_rejected(self):
        with pytest.raises(SimulationError):
            Timeout(-1.0)

    def test_parallel_processes_interleave(self):
        engine = SimEngine()
        log = []

        def worker(name, delay):
            yield Timeout(delay)
            log.append((engine.now, name))

        engine.process(worker("slow", 10))
        engine.process(worker("fast", 1))
        engine.run()
        assert log == [(1.0, "fast"), (10.0, "slow")]

    def test_run_until(self):
        engine = SimEngine()

        def process():
            yield Timeout(100)

        engine.process(process())
        assert engine.run(until=10) == 10
        assert engine.run() == 100


class TestEvents:
    def test_event_wakes_waiter(self):
        engine = SimEngine()
        gate = engine.event("gate")
        log = []

        def waiter():
            value = yield gate
            log.append((engine.now, value))

        def trigger():
            yield Timeout(3)
            gate.succeed("payload")

        engine.process(waiter())
        engine.process(trigger())
        engine.run()
        assert log == [(3.0, "payload")]

    def test_double_trigger_rejected(self):
        engine = SimEngine()
        event = engine.event()
        event.succeed()
        with pytest.raises(SimulationError, match="twice"):
            event.succeed()

    def test_wait_on_already_triggered(self):
        engine = SimEngine()
        event = engine.event()
        event.succeed(7)
        log = []

        def waiter():
            value = yield event
            log.append(value)

        engine.process(waiter())
        engine.run()
        assert log == [7]

    def test_all_of_barrier(self):
        engine = SimEngine()
        events = [engine.event() for _ in range(3)]
        log = []

        def waiter():
            yield AllOf(events)
            log.append(engine.now)

        def trigger(event, delay):
            yield Timeout(delay)
            event.succeed()

        engine.process(waiter())
        for event, delay in zip(events, (1, 9, 4)):
            engine.process(trigger(event, delay))
        engine.run()
        assert log == [9.0]

    def test_deadlock_detection(self):
        engine = SimEngine()

        def stuck():
            yield engine.event("never")

        engine.process(stuck())
        with pytest.raises(SimulationError, match="deadlock"):
            engine.run()

    def test_process_waits_on_process(self):
        engine = SimEngine()
        log = []

        def child():
            yield Timeout(4)
            return "done"

        def parent():
            value = yield engine.process(child())
            log.append((engine.now, value))

        engine.process(parent())
        engine.run()
        assert log == [(4.0, "done")]


class TestResources:
    def test_fifo_capacity(self):
        engine = SimEngine()
        resource = engine.resource(1, name="disk")
        log = []

        def user(name):
            request = resource.request()
            yield request
            log.append((engine.now, name, "start"))
            yield Timeout(5)
            resource.release(request)
            log.append((engine.now, name, "end"))

        engine.process(user("a"))
        engine.process(user("b"))
        engine.run()
        assert log == [
            (0.0, "a", "start"), (5.0, "a", "end"),
            (5.0, "b", "start"), (10.0, "b", "end"),
        ]

    def test_fractional_capacity_sharing(self):
        engine = SimEngine()
        resource = engine.resource(2.0)
        starts = []

        def user():
            request = resource.request(1.0)
            yield request
            starts.append(engine.now)
            yield Timeout(1)
            resource.release(request)

        for _ in range(4):
            engine.process(user())
        engine.run()
        assert starts == [0.0, 0.0, 1.0, 1.0]

    def test_oversized_request_rejected(self):
        engine = SimEngine()
        resource = engine.resource(1.0)
        with pytest.raises(SimulationError, match="exceeds capacity"):
            resource.request(2.0)

    def test_invalid_capacity(self):
        engine = SimEngine()
        with pytest.raises(SimulationError):
            engine.resource(0)

    def test_unsupported_yield(self):
        engine = SimEngine()

        def bad():
            yield 42

        engine.process(bad())
        with pytest.raises(SimulationError, match="unsupported"):
            engine.run()
