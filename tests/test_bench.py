"""Tests for the benchmark harness, experiment registry and reporting."""

import pytest

from repro.bench.experiments import (
    EXPERIMENTS,
    ExperimentResult,
    ShapeCheck,
    experiment_by_id,
)
from repro.bench.harness import WarehouseCache, make_spec, run_algorithms
from repro.bench.reporting import format_rows, format_series
from repro.errors import ReproError


class TestHarness:
    def test_make_spec_scales_paper_sizes(self):
        spec = make_spec(0.1, 0.4, s_l=0.1, scale=1 / 100_000)
        assert spec.t_rows == 16_000
        assert spec.l_rows == 150_000
        assert spec.n_keys == 160

    def test_cache_reuses_setups(self):
        cache = WarehouseCache(scale=1 / 100_000)
        first = cache.setup(0.1, 0.2, s_l=0.1)
        second = cache.setup(0.1, 0.2, s_l=0.1)
        assert first is second
        assert cache.setup(0.2, 0.2, s_l=0.1) is not first

    def test_setup_has_paper_indexes(self):
        cache = WarehouseCache(scale=1 / 100_000)
        setup = cache.setup(0.1, 0.2, s_l=0.1)
        worker = setup.warehouse.database.workers[0]
        assert worker.find_covering_index(
            "T", ["corPred", "indPred", "joinKey"]
        ) is not None

    def test_run_algorithms(self):
        cache = WarehouseCache(scale=1 / 100_000)
        setup = cache.setup(0.1, 0.2, s_l=0.1)
        results = run_algorithms(setup, ["zigzag", "repartition"])
        assert set(results) == {"zigzag", "repartition"}
        assert results["zigzag"].result.to_rows() == \
            results["repartition"].result.to_rows()


class TestExperimentRegistry:
    def test_all_paper_artifacts_registered(self):
        expected = {"table1", "fig8", "fig9", "fig10", "fig11", "fig12",
                    "fig13", "fig14", "fig15"}
        assert expected <= set(EXPERIMENTS)

    def test_lookup(self):
        assert experiment_by_id("table1").experiment_id == "table1"
        with pytest.raises(ReproError, match="unknown experiment"):
            experiment_by_id("fig99")

    def test_table1_runs_and_passes(self):
        cache = WarehouseCache(scale=1 / 100_000)
        result = EXPERIMENTS["table1"].run(cache)
        assert isinstance(result, ExperimentResult)
        assert result.rows
        assert result.all_passed(), result.to_report()

    def test_report_includes_checks(self):
        result = ExperimentResult(
            experiment_id="x", title="t", headers=["a"],
            rows=[{"a": 1.0}],
            checks=[ShapeCheck("claim", True), ShapeCheck("bad", False)],
        )
        report = result.to_report()
        assert "[PASS] claim" in report
        assert "[FAIL] bad" in report
        assert not result.all_passed()


class TestReporting:
    def test_format_rows_alignment(self):
        text = format_rows(
            ["name", "seconds"],
            [{"name": "zigzag", "seconds": 93.9},
             {"name": "repartition", "seconds": 1234.5}],
            title="demo",
        )
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "zigzag" in text and "1,23" in text

    def test_format_rows_small_floats(self):
        text = format_rows(["sigma_L"], [{"sigma_L": 0.001}])
        assert "0.001" in text

    def test_format_series_pivots(self):
        rows = [
            {"sigma_L": 0.1, "algorithm": "db", "seconds": 10.0},
            {"sigma_L": 0.2, "algorithm": "db", "seconds": 20.0},
            {"sigma_L": 0.1, "algorithm": "zigzag", "seconds": 5.0},
            {"sigma_L": 0.2, "algorithm": "zigzag", "seconds": 6.0},
        ]
        text = format_series(rows, "sigma_L", "seconds", "algorithm",
                             title="panel")
        lines = text.splitlines()
        assert lines[0] == "panel"
        assert any(line.startswith("db") for line in lines)
        assert any(line.startswith("zigzag") for line in lines)

    def test_format_series_missing_point(self):
        rows = [
            {"x": 1, "algorithm": "a", "seconds": 1.0},
            {"x": 2, "algorithm": "b", "seconds": 2.0},
        ]
        text = format_series(rows, "x", "seconds", "algorithm")
        assert "-" in text


class TestRegistryCompleteness:
    def test_every_experiment_in_generator_order(self):
        """scripts/generate_experiments_md.py must cover the registry."""
        import importlib.util
        import pathlib

        script = pathlib.Path(__file__).parent.parent / "scripts" / \
            "generate_experiments_md.py"
        spec = importlib.util.spec_from_file_location("gen_md", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert set(module.ORDER) == set(EXPERIMENTS)
        assert len(module.ORDER) == len(EXPERIMENTS)
        # The fault and service planes report through the generator too,
        # each with the prose that reads its table.
        for experiment_id in ("ext_chaos", "ext_service"):
            assert experiment_id in module.ORDER
            assert experiment_id in module.PAPER_NOTES
