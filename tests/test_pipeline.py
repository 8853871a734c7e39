"""Tests for the worker-pipeline micro-model (paper Fig. 7)."""

import pytest

from repro.config import default_config
from repro.errors import SimulationError
from repro.jen.pipeline import PipelineInputs, simulate_worker_pipeline


def make_inputs(**overrides):
    base = dict(
        rows_scanned=500e6,
        stored_bytes=12.5e9,
        rows_out=50e6,
        wire_row_bytes=32.0,
        rows_in=50e6,
        format_name="parquet",
    )
    base.update(overrides)
    return PipelineInputs(**base)


class TestPipelineModel:
    def test_negative_volumes_rejected(self):
        with pytest.raises(SimulationError):
            simulate_worker_pipeline(
                make_inputs(rows_scanned=-1), default_config()
            )

    def test_all_stages_reported(self):
        report = simulate_worker_pipeline(make_inputs(), default_config())
        assert set(report.stage_seconds) == {
            "read", "process", "send", "receive", "build"
        }
        assert report.makespan > 0

    def test_makespan_at_least_longest_stage(self):
        report = simulate_worker_pipeline(make_inputs(), default_config())
        assert report.makespan >= max(report.stage_seconds.values()) - 1e-6

    def test_makespan_benefits_from_overlap(self):
        """The pipelined makespan is well below the serial sum."""
        report = simulate_worker_pipeline(make_inputs(), default_config())
        serial = sum(report.stage_seconds.values())
        assert report.makespan < 0.8 * serial

    def test_paper_claim_process_thread_not_bottleneck(self):
        """Section 4.4: the single process thread is never the
        bottleneck, for either storage format at realistic volumes."""
        for format_name in ("parquet", "text", "orc"):
            report = simulate_worker_pipeline(
                make_inputs(format_name=format_name), default_config()
            )
            assert report.bottleneck() != "process", format_name

    def test_text_is_read_bound(self):
        config = default_config()
        # Full text rows: ~74 bytes per row.
        report = simulate_worker_pipeline(
            make_inputs(format_name="text", stored_bytes=500e6 * 74),
            config,
        )
        assert report.bottleneck() == "read"

    def test_heavy_shuffle_is_network_bound(self):
        report = simulate_worker_pipeline(
            make_inputs(rows_out=400e6, rows_in=400e6), default_config()
        )
        assert report.bottleneck() in ("send", "receive")

    def test_describe_output(self):
        report = simulate_worker_pipeline(make_inputs(), default_config())
        text = report.describe()
        assert "bottleneck=" in text and "process" in text
