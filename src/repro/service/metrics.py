"""A small counters/gauges/histograms registry for the service plane.

The service plane runs entirely in simulated time, but the *process*
hosting it does not: service embedders are free to drive one
:class:`MetricsRegistry` from several threads at once.  Every
instrument therefore guards its mutable state with a
:class:`threading.Lock` — increments are atomic read-modify-write
operations, never lost updates.

Histograms keep every observation (query streams here are thousands of
points at most), so quantiles are exact rather than sketch
approximations.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from repro.errors import ServiceError


class Counter:
    """A monotonically increasing count (admissions, rejections, hits).

    ``inc`` is atomic under the instrument's lock, so concurrent
    increments from service threads never lose updates.
    """

    def __init__(self, name: str, help_text: str = ""):
        self.name = name
        self.help_text = help_text
        self._lock = threading.Lock()
        self._value = 0.0

    @property
    def value(self) -> float:
        """Current count."""
        with self._lock:
            return self._value

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ServiceError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        with self._lock:
            self._value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value:g})"


class Gauge:
    """An instantaneous level (queue depth, in-flight queries).

    Tracks the high watermark alongside the current value — the peak
    concurrency a service run sustained is a gauge's ``high`` reading.
    ``set`` updates level and watermark under one lock, so the
    watermark never misses a concurrent spike.
    """

    def __init__(self, name: str, help_text: str = ""):
        self.name = name
        self.help_text = help_text
        self._lock = threading.Lock()
        self._value = 0.0
        self._high = 0.0

    @property
    def value(self) -> float:
        """Current level."""
        with self._lock:
            return self._value

    @property
    def high(self) -> float:
        """High watermark."""
        with self._lock:
            return self._high

    def set(self, value: float) -> None:
        """Set the current level."""
        with self._lock:
            self._value = float(value)
            self._high = max(self._high, self._value)

    def __repr__(self) -> str:
        with self._lock:
            return (f"Gauge({self.name}={self._value:g}, "
                    f"high={self._high:g})")


class Histogram:
    """Exact-quantile histogram over every observed value."""

    def __init__(self, name: str, help_text: str = ""):
        self.name = name
        self.help_text = help_text
        self._lock = threading.Lock()
        self._values: List[float] = []
        self._sorted = True

    def observe(self, value: float) -> None:
        """Record one observation."""
        with self._lock:
            if self._values and value < self._values[-1]:
                self._sorted = False
            self._values.append(float(value))

    @property
    def count(self) -> int:
        """Number of observations."""
        with self._lock:
            return len(self._values)

    @property
    def mean(self) -> float:
        """Arithmetic mean (0 when empty)."""
        with self._lock:
            if not self._values:
                return 0.0
            return sum(self._values) / len(self._values)

    def percentile(self, q: float) -> float:
        """Exact ``q``-th percentile (nearest-rank, ``0 <= q <= 100``)."""
        if not 0.0 <= q <= 100.0:
            raise ServiceError(f"percentile {q} outside [0, 100]")
        with self._lock:
            if not self._values:
                return 0.0
            if not self._sorted:
                self._values.sort()
                self._sorted = True
            rank = max(0, min(len(self._values) - 1,
                              round(q / 100.0 * (len(self._values) - 1))))
            return self._values[rank]

    @property
    def p50(self) -> float:
        """Median."""
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        """95th percentile."""
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        """99th percentile."""
        return self.percentile(99.0)

    def __repr__(self) -> str:
        return (f"Histogram({self.name}: n={self.count}, "
                f"p50={self.p50:g}, p95={self.p95:g})")


class MetricsRegistry:
    """Named metrics with get-or-create accessors.

    Re-requesting a name returns the existing instrument; requesting an
    existing name as a *different* instrument type is an error, so two
    components cannot silently alias each other's numbers.  Lookup and
    creation happen under a registry lock, so two threads racing to
    create the same name always converge on one instrument.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: Dict[str, object] = {}

    def _get_or_create(self, name: str, cls, help_text: str):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ServiceError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}, not {cls.__name__}"
                    )
                return existing
            metric = cls(name, help_text)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        """Get or create a counter."""
        return self._get_or_create(name, Counter, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        """Get or create a gauge."""
        return self._get_or_create(name, Gauge, help_text)

    def histogram(self, name: str, help_text: str = "") -> Histogram:
        """Get or create a histogram."""
        return self._get_or_create(name, Histogram, help_text)

    def get(self, name: str) -> Optional[object]:
        """The metric registered under ``name``, or None."""
        with self._lock:
            return self._metrics.get(name)

    def _snapshot_items(self):
        with self._lock:
            return sorted(self._metrics.items())

    def render(self) -> str:
        """Multi-line human-readable report of every metric."""
        lines = []
        for name, metric in self._snapshot_items():
            if isinstance(metric, Counter):
                lines.append(f"  {name:<42s} {metric.value:12g}")
            elif isinstance(metric, Gauge):
                lines.append(
                    f"  {name:<42s} {metric.value:12g}  "
                    f"(high {metric.high:g})"
                )
            elif isinstance(metric, Histogram):
                lines.append(
                    f"  {name:<42s} n={metric.count:<6d} "
                    f"mean={metric.mean:9.2f} p50={metric.p50:9.2f} "
                    f"p95={metric.p95:9.2f} p99={metric.p99:9.2f}"
                )
        return "\n".join(lines) if lines else "  (no metrics recorded)"

    # -- operator summary ----------------------------------------------
    _TENANT_PREFIX = "service.latency_seconds.tenant."
    _CACHE_PREFIX = "cache."
    _BYTES_PREFIX = "net.bytes."

    def summary(self) -> Dict[str, object]:
        """Structured operator summary of the registry.

        Groups the flat metric namespace into the three views an
        operator actually asks for: where did latency go (per tenant),
        did the caches earn their memory (hit rates, including the
        pushed-down Bloom-filter cache), and where did the network
        budget go (per-category bytes shipped, with the stitch bucket
        isolating late materialization's payload fetches).
        """
        tenants: Dict[str, Dict[str, float]] = {}
        caches: Dict[str, Dict[str, float]] = {}
        bytes_shipped: Dict[str, float] = {}
        for name, metric in self._snapshot_items():
            if name.startswith(self._TENANT_PREFIX) \
                    and isinstance(metric, Histogram):
                tenants[name[len(self._TENANT_PREFIX):]] = {
                    "count": metric.count,
                    "mean": metric.mean,
                    "p50": metric.p50,
                    "p95": metric.p95,
                    "p99": metric.p99,
                }
            elif name.startswith(self._BYTES_PREFIX) \
                    and isinstance(metric, Counter):
                bytes_shipped[name[len(self._BYTES_PREFIX):]] = metric.value
            elif name.startswith(self._CACHE_PREFIX) \
                    and isinstance(metric, Counter):
                cache_name, _, field = \
                    name[len(self._CACHE_PREFIX):].partition(".")
                caches.setdefault(cache_name, {})[field] = metric.value
        for cache in caches.values():
            lookups = cache.get("hits", 0.0) + cache.get("misses", 0.0)
            cache["hit_rate"] = (
                cache.get("hits", 0.0) / lookups if lookups else 0.0
            )
        return {
            "tenants": tenants,
            "caches": caches,
            "bytes_shipped": bytes_shipped,
        }
