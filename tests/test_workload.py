"""Tests for the workload generator: schemas, layouts, selectivities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.query.stats import measure_selectivities
from repro.workload.generator import (
    WorkloadSpec,
    generate_workload,
    solve_key_layout,
)
from repro.workload.scenario import build_paper_query, log_schema, \
    transaction_schema


class TestSpecValidation:
    def test_sigma_bounds(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec(sigma_t=0.0, sigma_l=0.5, s_l=0.1)
        with pytest.raises(WorkloadError):
            WorkloadSpec(sigma_t=0.5, sigma_l=1.5, s_l=0.1)

    def test_s_bounds(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec(sigma_t=0.5, sigma_l=0.5, s_l=2.0)

    def test_at_least_one_s(self):
        with pytest.raises(WorkloadError, match="at least one"):
            WorkloadSpec(sigma_t=0.5, sigma_l=0.5)

    def test_positive_counts(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec(sigma_t=0.5, sigma_l=0.5, s_l=0.1, t_rows=0)


class TestLayoutSolver:
    def test_table1_parameters(self):
        spec = WorkloadSpec(sigma_t=0.1, sigma_l=0.4, s_t=0.2, s_l=0.1,
                            n_keys=1600)
        layout = solve_key_layout(spec)
        assert layout.overlap / layout.kt == pytest.approx(0.2, rel=0.05)
        assert layout.overlap / layout.kl == pytest.approx(0.1, rel=0.05)
        assert not layout.clamped

    def test_only_s_l_given(self):
        spec = WorkloadSpec(sigma_t=0.05, sigma_l=0.2, s_l=0.1, n_keys=1000)
        layout = solve_key_layout(spec)
        assert layout.overlap / layout.kl == pytest.approx(0.1, rel=0.1)

    def test_only_s_t_given(self):
        spec = WorkloadSpec(sigma_t=0.2, sigma_l=0.05, s_t=0.1, n_keys=1000)
        layout = solve_key_layout(spec)
        assert layout.overlap / layout.kt == pytest.approx(0.1, rel=0.1)

    def test_tiny_sigma_t_grows_kt(self):
        # sigma_t*n would give 1 key; the overlap forces more.
        spec = WorkloadSpec(sigma_t=0.001, sigma_l=0.2, s_l=0.1, n_keys=1000)
        layout = solve_key_layout(spec)
        assert layout.overlap <= layout.kt

    def test_paper_fig9b_point_is_clamped(self):
        spec = WorkloadSpec(sigma_t=0.1, sigma_l=0.4, s_t=0.2, s_l=0.4,
                            n_keys=1600)
        layout = solve_key_layout(spec)
        assert layout.clamped
        assert layout.kt + layout.kl - layout.overlap <= 1600

    def test_grossly_infeasible_rejected(self):
        spec = WorkloadSpec(sigma_t=0.9, sigma_l=0.9, s_t=0.05, s_l=0.05,
                            n_keys=1000)
        with pytest.raises(WorkloadError, match="infeasible"):
            solve_key_layout(spec)

    @given(
        sigma_t=st.sampled_from([0.01, 0.05, 0.1, 0.2]),
        sigma_l=st.sampled_from([0.01, 0.1, 0.2, 0.4]),
        s_l=st.sampled_from([0.05, 0.1, 0.2, 0.4]),
    )
    @settings(max_examples=40, deadline=None)
    def test_layout_always_fits_universe(self, sigma_t, sigma_l, s_l):
        spec = WorkloadSpec(sigma_t=sigma_t, sigma_l=sigma_l, s_l=s_l,
                            n_keys=2000)
        try:
            layout = solve_key_layout(spec)
        except WorkloadError:
            return  # explicitly rejected is fine
        assert layout.kt + layout.kl - layout.overlap <= 2000
        assert 0 < layout.overlap <= min(layout.kt, layout.kl)


class TestGeneratedTables:
    def test_schemas_match_paper(self, paper_workload):
        assert list(paper_workload.t_table.schema) == list(transaction_schema())
        assert list(paper_workload.l_table.schema) == list(log_schema())
        assert paper_workload.t_table.num_rows == paper_workload.spec.t_rows
        assert paper_workload.l_table.num_rows == paper_workload.spec.l_rows

    def test_deterministic_given_seed(self):
        spec = WorkloadSpec(sigma_t=0.1, sigma_l=0.2, s_l=0.1,
                            t_rows=2000, l_rows=5000, n_keys=200, seed=5)
        a = generate_workload(spec)
        b = generate_workload(spec)
        assert (a.t_table.column("joinKey")
                == b.t_table.column("joinKey")).all()
        assert (a.l_table.column("corPred")
                == b.l_table.column("corPred")).all()

    def test_different_seeds_differ(self):
        base = dict(sigma_t=0.1, sigma_l=0.2, s_l=0.1,
                    t_rows=2000, l_rows=5000, n_keys=200)
        a = generate_workload(WorkloadSpec(seed=1, **base))
        b = generate_workload(WorkloadSpec(seed=2, **base))
        assert (a.t_table.column("joinKey")
                != b.t_table.column("joinKey")).any()

    def test_join_keys_in_universe(self, paper_workload):
        keys = paper_workload.l_table.column("joinKey")
        assert keys.min() >= 0
        assert keys.max() < paper_workload.spec.n_keys

    @pytest.mark.parametrize("sigma_t,sigma_l,s_t,s_l", [
        (0.1, 0.4, 0.2, 0.1),    # Table 1
        (0.2, 0.2, 0.1, 0.2),    # Fig 8b middle
        (0.05, 0.1, None, 0.05),  # Fig 11a
        (0.01, 0.2, None, 0.1),  # Fig 10b
    ])
    def test_measured_selectivities_match_spec(self, sigma_t, sigma_l,
                                               s_t, s_l):
        spec = WorkloadSpec(
            sigma_t=sigma_t, sigma_l=sigma_l, s_t=s_t, s_l=s_l,
            t_rows=40_000, l_rows=200_000, n_keys=400, seed=11,
        )
        workload = generate_workload(spec)
        query = build_paper_query(workload)
        report = measure_selectivities(
            workload.t_table, workload.l_table, query
        )
        assert report.sigma_t == pytest.approx(sigma_t, rel=0.12)
        assert report.sigma_l == pytest.approx(sigma_l, rel=0.12)
        if s_t is not None:
            assert report.s_t == pytest.approx(s_t, rel=0.15)
        if s_l is not None:
            assert report.s_l == pytest.approx(s_l, rel=0.15)

    def test_corpred_correlated_indpred_not(self, paper_workload):
        """corPred orders with the key's rank; indPred is independent."""
        table = paper_workload.t_table
        keys = table.column("joinKey").astype(np.float64)
        cor = table.column("corPred").astype(np.float64)
        ind = table.column("indPred").astype(np.float64)
        cor_corr = np.corrcoef(keys, cor)[0, 1]
        ind_corr = np.corrcoef(keys, ind)[0, 1]
        assert cor_corr > 0.9
        assert abs(ind_corr) < 0.05


class TestKeySkew:
    def test_negative_skew_rejected(self):
        with pytest.raises(Exception):
            WorkloadSpec(sigma_t=0.1, sigma_l=0.2, s_l=0.1, key_skew=-1)

    def test_skewed_keys_concentrate(self):
        spec = WorkloadSpec(sigma_t=0.1, sigma_l=0.2, s_l=0.1,
                            t_rows=5_000, l_rows=50_000, n_keys=200,
                            key_skew=1.0, seed=4)
        workload = generate_workload(spec)
        counts = np.bincount(workload.l_table.column("joinKey"),
                             minlength=200)
        assert counts.max() > 10 * counts.mean()

    def test_skewed_selectivities_still_hit_spec(self):
        spec = WorkloadSpec(sigma_t=0.1, sigma_l=0.2, s_l=0.1,
                            t_rows=40_000, l_rows=200_000, n_keys=400,
                            key_skew=1.0, seed=4)
        workload = generate_workload(spec)
        query = build_paper_query(workload)
        report = measure_selectivities(
            workload.t_table, workload.l_table, query
        )
        assert report.sigma_t == pytest.approx(0.1, rel=0.15)
        assert report.sigma_l == pytest.approx(0.2, rel=0.15)
        assert report.s_l == pytest.approx(0.1, rel=0.2)

    def test_head_region_mass_at_least_uniform(self):
        """Both tables' correlated regions sit at the head of the Zipf
        ranking, so their probability mass only grows with skew — the
        sigma targets stay achievable (the generator's starvation guard
        is a safety net for alternative layouts, not this one)."""
        spec = WorkloadSpec(sigma_t=0.05, sigma_l=0.9, s_l=0.9,
                            t_rows=2_000, l_rows=10_000, n_keys=1_000,
                            key_skew=2.0, seed=2)
        workload = generate_workload(spec)  # must not raise
        query = build_paper_query(workload)
        report = measure_selectivities(
            workload.t_table, workload.l_table, query
        )
        assert report.sigma_l == pytest.approx(0.9, rel=0.1)

    def test_zipf_skew_factor_properties(self):
        from repro.workload import zipf_skew_factor
        assert zipf_skew_factor(0.0, 16_000_000, 30) == 1.0
        assert zipf_skew_factor(1.0, 16_000_000, 1) == 1.0
        mild = zipf_skew_factor(0.5, 16_000_000, 30)
        strong = zipf_skew_factor(1.2, 16_000_000, 30)
        assert 1.0 <= mild < strong

    def test_skewed_join_still_correct(self):
        from repro import algorithm_by_name
        from repro.testkit import oracle
        from tests.conftest import build_test_warehouse

        spec = WorkloadSpec(sigma_t=0.2, sigma_l=0.2, s_l=0.3,
                            t_rows=4_000, l_rows=20_000, n_keys=100,
                            key_skew=0.8, seed=6)
        workload = generate_workload(spec)
        query = build_paper_query(workload)
        warehouse = build_test_warehouse(workload)
        expected = oracle.oracle_execute(
            workload.t_table, workload.l_table, query
        )
        for name in ("zigzag", "repartition(BF)", "db(BF)"):
            result = algorithm_by_name(name).run(warehouse, query)
            oracle.assert_equivalent(result.result, expected, label=name)
