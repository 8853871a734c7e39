"""Movement-statistics tests: the quantities behind the paper's Table 1
and the Bloom-filter guarantees inside the algorithms."""

import pytest

from repro import algorithm_by_name
from repro.core.joins.base import JoinStats


@pytest.fixture(scope="module")
def results(loaded_warehouse, paper_query):
    names = ["repartition", "repartition(BF)", "zigzag", "db", "db(BF)",
             "broadcast", "semijoin", "perf"]
    return {
        name: algorithm_by_name(name).run(loaded_warehouse, paper_query)
        for name in names
    }


class TestTable1Shape:
    """Paper Table 1 (sigma_T=0.1, sigma_L=0.4, S_L'=0.1, S_T'=0.2):
    5854/591/591 M tuples shuffled; 165/165/30 M DB tuples sent."""

    def test_bloom_cuts_shuffle_about_10x(self, results):
        plain = results["repartition"].paper_stats().hdfs_tuples_shuffled
        bloomed = results["repartition(BF)"].paper_stats() \
            .hdfs_tuples_shuffled
        assert 7.0 <= plain / bloomed <= 13.0

    def test_zigzag_shuffles_like_repartition_bf(self, results):
        bloomed = results["repartition(BF)"].paper_stats() \
            .hdfs_tuples_shuffled
        zigzag = results["zigzag"].paper_stats().hdfs_tuples_shuffled
        assert zigzag == pytest.approx(bloomed, rel=0.02)

    def test_zigzag_cuts_db_tuples_about_5x(self, results):
        plain = results["repartition"].paper_stats().db_tuples_sent
        zigzag = results["zigzag"].paper_stats().db_tuples_sent
        assert 3.5 <= plain / zigzag <= 7.0

    def test_absolute_paper_scale_magnitudes(self, results):
        """At 1/50,000 scale the scaled-up counts should land near the
        paper's absolute numbers."""
        paper = results["repartition"].paper_stats()
        assert paper.hdfs_tuples_shuffled == pytest.approx(5.85e9, rel=0.15)
        assert paper.db_tuples_sent == pytest.approx(1.65e8, rel=0.15)
        zigzag = results["zigzag"].paper_stats()
        assert zigzag.hdfs_tuples_shuffled == pytest.approx(5.9e8, rel=0.25)
        assert zigzag.db_tuples_sent == pytest.approx(3.0e7, rel=0.35)


class TestBloomGuarantees:
    def test_bloom_only_prunes(self, results):
        """BF pruning keeps a subset of the predicate survivors."""
        for name in ("repartition(BF)", "zigzag", "db(BF)"):
            stats = results[name].stats
            assert stats.hdfs_rows_after_bloom <= \
                stats.hdfs_rows_after_predicates

    def test_bloom_fp_rate_bounded(self, results):
        """Tuples surviving BF_DB are at most S_L' + a few % of L'."""
        stats = results["zigzag"].stats
        survival = (stats.hdfs_rows_after_bloom
                    / stats.hdfs_rows_after_predicates)
        assert survival <= 0.1 + 0.08

    def test_exact_semijoin_never_more_than_bloom(self, results):
        """The exact filter is a lower bound on the Bloom-filtered one."""
        exact = results["semijoin"].stats.hdfs_tuples_shuffled
        bloomed = results["repartition(BF)"].stats.hdfs_tuples_shuffled
        assert exact <= bloomed

    def test_perf_sends_fewer_db_tuples_than_semijoin(self, results):
        assert results["perf"].stats.db_tuples_sent <= \
            results["semijoin"].stats.db_tuples_sent

    def test_zigzag_sent_at_most_bloom_fp_above_exact(self, results):
        exact = results["perf"].stats.db_tuples_sent
        zigzag = results["zigzag"].stats.db_tuples_sent
        assert exact <= zigzag <= exact * 1.15 + 5


class TestAccountingConsistency:
    def test_scan_volumes_equal_across_hdfs_side_joins(self, results):
        base = results["repartition"].stats.hdfs_rows_scanned
        for name in ("repartition(BF)", "zigzag", "broadcast"):
            assert results[name].stats.hdfs_rows_scanned == base

    def test_db_side_join_moves_hdfs_rows_to_db(self, results):
        stats = results["db"].stats
        assert results["db"].trace.phase("hdfs_to_db").tuples \
            == stats.hdfs_rows_after_bloom
        assert stats.hdfs_tuples_shuffled == 0
        assert stats.db_tuples_sent == 0

    def test_broadcast_copies_recorded(self, results):
        stats = results["broadcast"].stats
        copies = results["broadcast"].trace.phase("db_broadcast").tuples
        assert copies / stats.db_tuples_sent == 30
        assert stats.hdfs_tuples_shuffled == 0

    def test_bloom_bytes_at_paper_scale(self, results):
        """BF_DB multicast to 30 workers: 30 x 16 MB = 480 MB; zigzag
        adds the BF_H merge and broadcast."""
        bf_bytes = results["repartition(BF)"].paper_stats().bloom_bytes_moved
        assert bf_bytes == pytest.approx(30 * 16 * 1024 * 1024, rel=0.01)
        zz_bytes = results["zigzag"].paper_stats().bloom_bytes_moved
        assert zz_bytes == pytest.approx(
            (30 + 29 + 30) * 16 * 1024 * 1024, rel=0.01
        )

    def test_join_output_identical_across_algorithms(self, results):
        outputs = {
            name: result.stats.join_output_tuples
            for name, result in results.items()
        }
        assert len(set(outputs.values())) == 1, outputs

    def test_result_rows_match_result_table(self, results):
        for result in results.values():
            assert result.stats.result_rows == result.result.num_rows


class TestJoinStatsScaling:
    def test_scaled_multiplies_counts_not_bloom_bytes(self):
        stats = JoinStats(
            hdfs_tuples_shuffled=100.0,
            db_tuples_sent=10.0,
            bloom_bytes_moved=16.0,
            hot_keys_detected=30.0,
        )
        scaled = stats.scaled(1000.0)
        assert scaled.hdfs_tuples_shuffled == 100_000.0
        assert scaled.db_tuples_sent == 10_000.0
        assert scaled.bloom_bytes_moved == 16.0
        assert scaled.hot_keys_detected == 30.0

    def test_summary_mentions_algorithm(self, results):
        assert "zigzag" in results["zigzag"].summary()
