"""The service plane: concurrent query streams over the shared cluster.

See :mod:`repro.service.server` for the top-level
:class:`QueryService`; the other modules are its organs — admission
control (:mod:`~repro.service.admission`), multi-query scheduling on
the shared timeline (:mod:`~repro.service.scheduler`), semantic caching
(:mod:`~repro.service.cache`), the execution feedback loop
(:mod:`~repro.service.feedback`), metrics
(:mod:`~repro.service.metrics`) and synthetic query streams
(:mod:`~repro.service.stream`).
"""

from repro.service.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionOutcome,
)
from repro.service.cache import (
    BloomCache,
    CachingBloomBuilder,
    ResultCache,
    plan_key,
    predicate_key,
)
from repro.service.feedback import FeedbackLoop, Observation, observe
from repro.service.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.service.scheduler import FairSharePolicy, SharedCluster, Timeline
from repro.service.server import (
    QueryOutcome,
    QueryService,
    QueryTicket,
    ServiceConfig,
    ServiceReport,
)
from repro.service.stream import (
    StreamSpec,
    StreamedQuery,
    build_template_query,
    generate_query_stream,
)

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionOutcome",
    "BloomCache",
    "CachingBloomBuilder",
    "Counter",
    "FairSharePolicy",
    "FeedbackLoop",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observation",
    "QueryOutcome",
    "QueryService",
    "QueryTicket",
    "ResultCache",
    "ServiceConfig",
    "ServiceReport",
    "SharedCluster",
    "StreamSpec",
    "StreamedQuery",
    "Timeline",
    "build_template_query",
    "generate_query_stream",
    "observe",
    "plan_key",
    "predicate_key",
]
