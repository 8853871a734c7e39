"""Unit tests for the service plane's organs: metrics, semantic cache
keys, bounded LRU caches and the execution feedback loop."""

from __future__ import annotations

import pytest

from repro.core.advisor import WorkloadEstimate
from repro.core.joins.base import JoinResult, JoinStats
from repro.errors import ServiceError
from repro.relational.expressions import compare
from repro.service import (
    FeedbackLoop,
    MetricsRegistry,
    Observation,
    ResultCache,
    observe,
    plan_key,
    predicate_key,
)
from repro.sim.replay import replay_trace
from repro.sim.trace import Trace


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestCounter:
    def test_increments(self):
        counter = MetricsRegistry().counter("hits")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_decrease(self):
        counter = MetricsRegistry().counter("hits")
        with pytest.raises(ServiceError):
            counter.inc(-1)


class TestGauge:
    def test_tracks_high_watermark(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(3)
        gauge.set(5)
        gauge.set(1)
        assert gauge.value == 1
        assert gauge.high == 5


class TestHistogram:
    def test_exact_percentiles(self):
        histogram = MetricsRegistry().histogram("latency")
        for value in (5, 1, 4, 2, 3):
            histogram.observe(value)
        assert histogram.count == 5
        assert histogram.mean == pytest.approx(3.0)
        assert histogram.p50 == 3
        assert histogram.p95 == 5
        assert histogram.percentile(0) == 1

    def test_empty_histogram(self):
        histogram = MetricsRegistry().histogram("latency")
        assert histogram.p50 == 0.0 and histogram.mean == 0.0

    def test_percentile_bounds(self):
        histogram = MetricsRegistry().histogram("latency")
        with pytest.raises(ServiceError):
            histogram.percentile(101)


class TestConcurrency:
    """Instruments must survive concurrent mutation without lost
    updates — embedders' service threads share one registry."""

    THREADS = 8
    ITERATIONS = 2_000

    def _hammer(self, work):
        import threading

        barrier = threading.Barrier(self.THREADS)

        def body():
            barrier.wait()
            for _ in range(self.ITERATIONS):
                work()

        threads = [threading.Thread(target=body)
                   for _ in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def test_counter_concurrent_increments(self):
        counter = MetricsRegistry().counter("hits")
        self._hammer(lambda: counter.inc(1.0))
        assert counter.value == self.THREADS * self.ITERATIONS

    def test_histogram_concurrent_observe(self):
        histogram = MetricsRegistry().histogram("latency")
        self._hammer(lambda: histogram.observe(1.0))
        assert histogram.count == self.THREADS * self.ITERATIONS
        assert histogram.p50 == 1.0

    def test_registry_concurrent_get_or_create(self):
        import threading

        registry = MetricsRegistry()
        barrier = threading.Barrier(self.THREADS)
        seen = []

        def body():
            barrier.wait()
            seen.append(registry.counter("shared"))

        threads = [threading.Thread(target=body)
                   for _ in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(instrument is seen[0] for instrument in seen)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ServiceError, match="already registered"):
            registry.gauge("x")

    def test_snapshot_and_render(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(2)
        registry.histogram("h").observe(1.0)
        rendered = registry.render()
        assert "c" in rendered
        assert "(high 2)" in rendered
        assert "n=1" in rendered


# ----------------------------------------------------------------------
# Semantic keys
# ----------------------------------------------------------------------
class TestSemanticKeys:
    def test_conjunction_is_order_insensitive(self):
        left = compare("a", "<=", 5) & compare("b", ">", 3)
        right = compare("b", ">", 3) & compare("a", "<=", 5)
        assert predicate_key(left) == predicate_key(right)

    def test_literals_participate_by_default(self):
        assert predicate_key(compare("a", "<=", 5)) \
            != predicate_key(compare("a", "<=", 6))

    def test_template_key_strips_literals(self):
        narrow = compare("a", "<=", 5) & compare("b", ">", 3)
        wide = compare("a", "<=", 9) & compare("b", ">", 7)
        assert predicate_key(narrow, literals=False) \
            == predicate_key(wide, literals=False)

    def test_plan_key_covers_result_shape(self, paper_workload,
                                          paper_query):
        from repro.service import build_template_query

        same = build_template_query(paper_workload, 1.0, 1.0)
        narrowed = build_template_query(paper_workload, 1.0, 0.5)
        assert plan_key(same) == plan_key(paper_query)
        assert plan_key(narrowed) != plan_key(paper_query)
        # Different constants, same template.
        assert plan_key(narrowed, literals=False) \
            == plan_key(paper_query, literals=False)


# ----------------------------------------------------------------------
# Bounded LRU cache
# ----------------------------------------------------------------------
class TestLruCache:
    def test_hit_miss_and_eviction(self):
        cache = ResultCache(capacity=2)
        assert cache.get("a") is None
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes recency
        cache.put("c", 3)  # evicts "b", the least recently used
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.evictions.value == 1
        assert cache.hit_rate() == pytest.approx(3 / 5)

    def test_capacity_validated(self):
        with pytest.raises(ServiceError):
            ResultCache(capacity=0)


# ----------------------------------------------------------------------
# Feedback loop
# ----------------------------------------------------------------------
def _fake_run(sigma_t=0.1, sigma_l=0.2):
    """A minimal JoinResult carrying the observed selectivities."""
    trace = Trace("fake")
    trace.add("db_filter", "db_scan", 5.0, tuples=1000.0 * sigma_t)
    stats = JoinStats(
        db_rows_scanned=1000.0,
        hdfs_rows_scanned=5000.0,
        hdfs_rows_after_predicates=5000.0 * sigma_l,
        join_output_tuples=42.0,
    )
    return JoinResult(algorithm="zigzag", result=None, stats=stats,
                      trace=trace, timing=replay_trace(trace),
                      scale_up=1.0)


def _estimate(sigma_t, sigma_l):
    return WorkloadEstimate(t_rows=1e6, l_rows=1e7,
                            sigma_t=sigma_t, sigma_l=sigma_l,
                            s_t=0.2, s_l=0.1)


class TestFeedbackLoop:
    def test_observe_extracts_selectivities(self):
        observation = observe(_fake_run(sigma_t=0.1, sigma_l=0.2))
        assert isinstance(observation, Observation)
        assert observation.sigma_t == pytest.approx(0.1)
        assert observation.sigma_l == pytest.approx(0.2)
        assert observation.join_output_tuples == 42.0

    def test_exact_plan_overrides_estimate(self):
        loop = FeedbackLoop(alpha=1.0)
        loop.record("plan", "template", _estimate(0.05, 0.1), _fake_run())
        refined = loop.refine("plan", "template", _estimate(0.05, 0.1))
        assert refined.sigma_t == pytest.approx(0.1)
        assert refined.sigma_l == pytest.approx(0.2)
        assert loop.observations == 1 and loop.known_plans() == 1

    def test_template_ratio_corrects_new_constants(self):
        loop = FeedbackLoop(alpha=1.0)
        # Observed is 2x the estimate on both sides.
        loop.record("plan", "template", _estimate(0.05, 0.1), _fake_run())
        refined = loop.refine("other-plan", "template",
                              _estimate(0.3, 0.2))
        assert refined.sigma_t == pytest.approx(0.6)
        assert refined.sigma_l == pytest.approx(0.4)

    def test_refinement_clamped_to_legal_range(self):
        loop = FeedbackLoop(alpha=1.0)
        loop.record("plan", "template", _estimate(0.01, 0.01), _fake_run())
        refined = loop.refine("other-plan", "template",
                              _estimate(0.9, 0.9))
        assert refined.sigma_t <= 1.0 and refined.sigma_l <= 1.0

    def test_unknown_plan_untouched(self):
        loop = FeedbackLoop()
        estimate = _estimate(0.3, 0.3)
        assert loop.refine("nope", "nope", estimate) is estimate

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            FeedbackLoop(alpha=0.0)
