"""Timing-shape tests: the qualitative claims of the paper's figures,
asserted against the simulated execution times.

Absolute seconds are simulator output; these tests pin down *orderings*
and *trends* — who wins where — which is what the reproduction claims.
"""

import pytest

from repro import algorithm_by_name
from repro.bench.harness import WarehouseCache


@pytest.fixture(scope="module")
def cache():
    return WarehouseCache(scale=1.0 / 50_000.0)


def seconds(cache, name, sigma_t, sigma_l, s_t=None, s_l=None,
            format_name="parquet"):
    setup = cache.setup(sigma_t, sigma_l, s_t=s_t, s_l=s_l,
                        format_name=format_name)
    return algorithm_by_name(name).run(
        setup.warehouse, setup.query
    ).total_seconds


class TestFig8Shape:
    def test_zigzag_is_fastest_repartition_slowest(self, cache):
        zigzag = seconds(cache, "zigzag", 0.1, 0.4, s_t=0.2, s_l=0.1)
        bloomed = seconds(cache, "repartition(BF)", 0.1, 0.4,
                          s_t=0.2, s_l=0.1)
        plain = seconds(cache, "repartition", 0.1, 0.4, s_t=0.2, s_l=0.1)
        assert zigzag < bloomed <= plain

    def test_zigzag_speedup_in_paper_band(self, cache):
        """Paper: zigzag up to 2.1x vs repartition, 1.8x vs
        repartition(BF)."""
        zigzag = seconds(cache, "zigzag", 0.1, 0.4, s_t=0.2, s_l=0.1)
        bloomed = seconds(cache, "repartition(BF)", 0.1, 0.4,
                          s_t=0.2, s_l=0.1)
        plain = seconds(cache, "repartition", 0.1, 0.4, s_t=0.2, s_l=0.1)
        assert 1.5 <= plain / zigzag <= 3.0
        assert 1.3 <= bloomed / zigzag <= 2.5


class TestFig10Shape:
    def test_broadcast_wins_only_for_tiny_t_prime(self, cache):
        at_0001 = (
            seconds(cache, "broadcast", 0.001, 0.2, s_l=0.1),
            seconds(cache, "repartition", 0.001, 0.2, s_l=0.1),
        )
        at_001 = (
            seconds(cache, "broadcast", 0.01, 0.2, s_l=0.1),
            seconds(cache, "repartition", 0.01, 0.2, s_l=0.1),
        )
        assert at_0001[0] < at_0001[1]          # wins at sigma_T=0.001
        assert at_001[0] > 2.0 * at_001[1]      # loses hard at 0.01


class TestFig11Shape:
    def test_bloom_benefit_grows_with_sigma_l(self, cache):
        gain_small = (seconds(cache, "db", 0.1, 0.01, s_l=0.1)
                      / seconds(cache, "db(BF)", 0.1, 0.01, s_l=0.1))
        gain_large = (seconds(cache, "db", 0.1, 0.2, s_l=0.1)
                      / seconds(cache, "db(BF)", 0.1, 0.2, s_l=0.1))
        assert gain_large > gain_small
        assert gain_large > 2.0

    def test_bloom_overhead_visible_at_tiny_sigma_l(self, cache):
        plain = seconds(cache, "db", 0.1, 0.001, s_l=0.1)
        bloomed = seconds(cache, "db(BF)", 0.1, 0.001, s_l=0.1)
        assert bloomed >= plain - 1.0


class TestFig12Fig13Crossover:
    def test_db_side_wins_at_selective_sigma_l(self, cache):
        assert seconds(cache, "db", 0.1, 0.001, s_l=0.1) < \
            seconds(cache, "repartition", 0.1, 0.001, s_l=0.1)
        assert seconds(cache, "db(BF)", 0.1, 0.001, s_l=0.1) < \
            seconds(cache, "zigzag", 0.1, 0.001, s_l=0.1)

    def test_db_side_deteriorates_steeply(self, cache):
        db_small = seconds(cache, "db", 0.1, 0.001, s_l=0.1)
        db_large = seconds(cache, "db", 0.1, 0.2, s_l=0.1)
        zigzag_small = seconds(cache, "zigzag", 0.1, 0.001, s_l=0.1)
        zigzag_large = seconds(cache, "zigzag", 0.1, 0.2, s_l=0.1)
        assert db_large / db_small > 5.0            # steep
        assert zigzag_large / zigzag_small < 1.6    # nearly flat

    def test_hdfs_side_wins_at_common_sigma_l(self, cache):
        assert seconds(cache, "zigzag", 0.1, 0.2, s_l=0.1) < \
            seconds(cache, "db(BF)", 0.1, 0.2, s_l=0.1)


class TestFig14Fig15Formats:
    def test_parquet_much_faster_than_text(self, cache):
        text = seconds(cache, "zigzag", 0.1, 0.1, s_l=0.1,
                       format_name="text")
        parquet = seconds(cache, "zigzag", 0.1, 0.1, s_l=0.1)
        assert text > 2.0 * parquet

    def test_bloom_gain_smaller_on_text(self, cache):
        gain_parquet = (
            seconds(cache, "repartition", 0.1, 0.4, s_t=0.2, s_l=0.1)
            / seconds(cache, "repartition(BF)", 0.1, 0.4, s_t=0.2, s_l=0.1)
        )
        gain_text = (
            seconds(cache, "repartition", 0.1, 0.4, s_t=0.2, s_l=0.1,
                    format_name="text")
            / seconds(cache, "repartition(BF)", 0.1, 0.4, s_t=0.2, s_l=0.1,
                      format_name="text")
        )
        assert gain_text <= gain_parquet + 0.05

    def test_zigzag_still_best_on_text(self, cache):
        zigzag = seconds(cache, "zigzag", 0.2, 0.4, s_t=0.2, s_l=0.2,
                         format_name="text")
        bloomed = seconds(cache, "repartition(BF)", 0.2, 0.4,
                          s_t=0.2, s_l=0.2, format_name="text")
        assert zigzag <= bloomed + 2.0


class TestTraceStructure:
    def test_zigzag_bf_barrier_respected(self, cache):
        """The second DB access cannot start before BF_H was merged and
        sent — the defining barrier of the zigzag join."""
        setup = cache.setup(0.1, 0.4, s_t=0.2, s_l=0.1)
        result = algorithm_by_name("zigzag").run(
            setup.warehouse, setup.query
        )
        timing = result.timing
        assert timing.phase("bf_h_merge").start >= \
            timing.phase("hdfs_scan").end - 1e-6
        assert timing.phase("db_second_access").start >= \
            timing.phase("bf_h_send").end - 1e-6

    def test_shuffle_overlaps_scan(self, cache):
        """JEN interleaves the shuffle with the scan (Section 4.4)."""
        setup = cache.setup(0.1, 0.4, s_t=0.2, s_l=0.1)
        result = algorithm_by_name("repartition").run(
            setup.warehouse, setup.query
        )
        timing = result.timing
        scan = timing.phase("hdfs_scan")
        shuffle = timing.phase("jen_shuffle")
        assert shuffle.start < scan.end  # genuinely overlapped

    def test_makespan_less_than_total_work(self, cache):
        """Pipelining must buy real time on every HDFS-side algorithm."""
        setup = cache.setup(0.1, 0.4, s_t=0.2, s_l=0.1)
        for name in ("repartition", "repartition(BF)", "zigzag"):
            result = algorithm_by_name(name).run(
                setup.warehouse, setup.query
            )
            assert result.total_seconds < \
                sum(phase.seconds for phase in result.trace)

    def test_simulated_time_independent_of_data_scale(self):
        """The same paper-scale experiment simulated from two different
        data-plane scales gives nearly identical times."""
        coarse = WarehouseCache(scale=1.0 / 50_000.0)
        fine = WarehouseCache(scale=1.0 / 20_000.0)
        a = seconds(coarse, "zigzag", 0.1, 0.4, s_t=0.2, s_l=0.1)
        b = seconds(fine, "zigzag", 0.1, 0.4, s_t=0.2, s_l=0.1)
        assert a == pytest.approx(b, rel=0.08)
