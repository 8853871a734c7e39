"""Deterministic fault injection and recovery (chaos layer).

Hand a run a plan's injector on its context and run any algorithm;
the engine recovers from the injected crashes, stragglers and lost
messages, the results stay bit-identical to the fault-free run, and the
trace gains ``recovery`` phases pricing the detection timeouts,
re-scans, backoffs and speculative backups.  A crash takes its worker
out of that run alone::

    injector = FaultInjector(
        FaultPlan.from_spec("crash:w2@scan,drop:shuffle:0.05"))
    result = algorithm_by_name("zigzag").run(
        warehouse, query, ExecutionContext(faults=injector))
    print(injector.report())
"""

from repro.faults.injector import (
    CrashSignal,
    FaultInjector,
    RecoveryAction,
    ScanFaultHook,
)
from repro.faults.plan import (
    AbortEvent,
    CrashEvent,
    FaultPlan,
    MessageEvent,
    SlowEvent,
    SpillEvent,
)

__all__ = [
    "AbortEvent",
    "CrashEvent",
    "CrashSignal",
    "FaultInjector",
    "FaultPlan",
    "MessageEvent",
    "RecoveryAction",
    "ScanFaultHook",
    "SlowEvent",
    "SpillEvent",
]
