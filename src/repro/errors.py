"""Exception hierarchy for the hybrid-warehouse reproduction.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
applications can catch the whole family with a single ``except`` clause
while tests can assert on the precise subtype.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class SchemaError(ReproError):
    """A schema is malformed or an operation referenced an unknown column."""


class TableError(ReproError):
    """Columnar table construction or manipulation failed."""


class ExpressionError(ReproError):
    """A predicate or scalar expression is invalid for the given schema."""


class PartitioningError(ReproError):
    """Hash partitioning was asked to do something impossible."""


class CatalogError(ReproError):
    """A database or HDFS catalog lookup failed (unknown table, duplicate)."""


class StorageError(ReproError):
    """HDFS block storage or format encoding/decoding failed."""


class BloomFilterError(ReproError):
    """Bloom filter construction or merging was given incompatible inputs."""


class WorkloadError(ReproError):
    """A synthetic workload specification is infeasible or inconsistent."""


class SimulationError(ReproError):
    """The discrete-event simulator detected an invalid trace or deadlock."""


class JoinError(ReproError):
    """A join algorithm was invoked with an unsupported configuration."""


class UdfError(ReproError):
    """A user-defined function was misused (unknown name, bad arity)."""


class FaultError(ReproError):
    """Base of the injected-fault taxonomy (:mod:`repro.faults`).

    Raised when a deterministically injected fault could *not* be
    recovered from inside the data plane (retries exhausted, no
    survivors to re-assign work to) or when the fault machinery itself
    is misused.  Recoverable faults never surface as exceptions — they
    turn into recovery actions and extra trace phases instead.
    """


class FaultSpecError(FaultError):
    """A fault-plan spec string (``crash:w7@scan,...``) is malformed."""


class WorkerCrashError(FaultError):
    """A JEN worker died mid-query and its work could not be recovered.

    Carries the crashed ``worker_id``, the ``phase`` it died in and the
    number of already-produced rows lost with it.
    """

    def __init__(self, message: str, worker_id: int = -1,
                 phase: str = "", rows_lost: int = 0):
        super().__init__(message)
        self.worker_id = worker_id
        self.phase = phase
        self.rows_lost = rows_lost


class TransferFaultError(FaultError):
    """A transfer kept failing past its retry budget.

    Carries the logical ``channel`` (``"shuffle"`` or ``"transfer"``),
    the endpoints and the number of attempts made.
    """

    def __init__(self, message: str, channel: str = "",
                 sender: int = -1, destination: int = -1,
                 attempts: int = 0):
        super().__init__(message)
        self.channel = channel
        self.sender = sender
        self.destination = destination
        self.attempts = attempts


class QueryAbortError(FaultError):
    """An injected coordinator-level abort killed the whole query.

    The service plane catches this (and every other
    :class:`FaultError`) and re-admits the query once before surfacing
    the failure to the client.
    """

    def __init__(self, message: str, phase: str = ""):
        super().__init__(message)
        self.phase = phase


class InvariantViolation(ReproError):
    """An engine-internal invariant check failed (:mod:`repro.testkit`).

    Only raised while :func:`repro.testkit.checking` is active: the
    testkit's assertion hooks inside the shuffle, the partitioners, the
    Bloom filters and the spill path verify exactly-once delivery,
    partition completeness/disjointness, no-false-negative membership
    and spill round-trip fidelity.  Production runs never see this.
    """


class ServiceError(ReproError):
    """The query-service plane was misconfigured or misused."""
