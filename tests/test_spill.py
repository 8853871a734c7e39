"""Tests for Grace-hash spilling (the paper's Section 4.4 future work)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import algorithm_by_name, default_config
from repro.errors import JoinError
from repro.jen.spill import (
    fragment_hash_partition,
    plan_spill,
)
from repro.testkit import oracle
from tests.conftest import TEST_SCALE, build_test_warehouse


class TestSpillPlan:
    def test_unlimited_budget_never_spills(self):
        plan = plan_spill(10**9, 10**9, 0)
        assert not plan.spilled
        assert plan.spilled_tuples() == 0

    def test_fits_in_memory(self):
        plan = plan_spill(100, 200, 1000)
        assert plan.num_fragments == 1

    def test_fragment_count(self):
        plan = plan_spill(1000, 50, 300)
        assert plan.num_fragments == 4
        assert plan.spilled
        assert plan.spilled_tuples() == 1050


class TestFragmenting:
    def test_invalid_fragment_count(self):
        with pytest.raises(JoinError):
            fragment_hash_partition(np.array([1]), 0)

    def test_independent_of_agreed_hash(self):
        """Fragmenting must not correlate with the shuffle hash, or all
        rows of one worker would land in one fragment."""
        from repro.edw.partitioner import agreed_hash_partition

        keys = np.arange(20_000)
        shuffle = agreed_hash_partition(keys, 30)
        worker0_keys = keys[shuffle == 0]
        fragments = fragment_hash_partition(worker0_keys, 8)
        counts = np.bincount(fragments, minlength=8)
        assert counts.min() > 0.5 * counts.mean()

    @given(parts=st.integers(1, 10),
           keys=st.lists(st.integers(0, 100), min_size=1, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_co_alignment(self, parts, keys):
        """Equal keys on the two sides always share a fragment."""
        build = np.array(keys, dtype=np.int64)
        probe = np.array(keys[::-1], dtype=np.int64)
        build_frag = fragment_hash_partition(build, parts)
        probe_frag = fragment_hash_partition(probe, parts)
        by_key_build = dict(zip(build.tolist(), build_frag.tolist()))
        by_key_probe = dict(zip(probe.tolist(), probe_frag.tolist()))
        for key in set(keys):
            assert by_key_build[key] == by_key_probe[key]


class TestSpillingJoins:
    @pytest.mark.parametrize("name", ["repartition", "zigzag", "broadcast"])
    def test_spilled_join_matches_reference(self, name, paper_workload,
                                            paper_query, paper_oracle):
        # A budget of 40k paper-scale rows per worker forces fragmenting
        # at every tested sigma.
        config = default_config(scale=TEST_SCALE)
        from dataclasses import replace
        config = replace(config, jen_memory_budget_rows=4.0e5)
        warehouse = build_test_warehouse(paper_workload)
        warehouse.config = config
        result = algorithm_by_name(name).run(warehouse, paper_query)
        oracle.assert_equivalent(result.result, paper_oracle, label=name)
        assert result.stats.spilled_tuples > 0
        assert "spill_io" in result.trace.names()

    def test_no_budget_means_no_spill(self, loaded_warehouse, paper_query):
        result = algorithm_by_name("repartition").run(
            loaded_warehouse, paper_query
        )
        assert result.stats.spilled_tuples == 0
        assert "spill_io" not in result.trace.names()

    def test_spilling_costs_simulated_time(self, paper_workload,
                                           paper_query):
        from dataclasses import replace
        baseline_wh = build_test_warehouse(paper_workload)
        baseline = algorithm_by_name("repartition").run(
            baseline_wh, paper_query
        ).total_seconds

        constrained_wh = build_test_warehouse(paper_workload)
        constrained_wh.config = replace(
            default_config(scale=TEST_SCALE), jen_memory_budget_rows=2.0e5
        )
        constrained = algorithm_by_name("repartition").run(
            constrained_wh, paper_query
        ).total_seconds
        assert constrained > baseline

    def test_tighter_budget_more_fragments(self, paper_workload,
                                           paper_query):
        from dataclasses import replace
        results = []
        for budget in (2.0e6, 2.0e5):
            warehouse = build_test_warehouse(paper_workload)
            warehouse.config = replace(
                default_config(scale=TEST_SCALE),
                jen_memory_budget_rows=budget,
            )
            result = algorithm_by_name("zigzag").run(
                warehouse, paper_query
            )
            results.append(result.stats.spilled_tuples)
        assert results[1] >= results[0]
