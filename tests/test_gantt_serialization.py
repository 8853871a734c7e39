"""Tests for the Gantt renderer of simulated phase schedules."""

import pytest

from repro.errors import SimulationError
from repro.sim.gantt import render_gantt
from repro.sim.replay import replay_trace
from repro.sim.trace import Trace


def sample_timing():
    trace = Trace("demo")
    trace.add("scan", "hdfs_scan", 40.0)
    trace.add("shuffle", "shuffle", 20.0, streams_from=["scan"])
    trace.add("probe", "cpu", 10.0, after=["shuffle"])
    return replay_trace(trace)


class TestGantt:
    def test_bars_positioned_by_time(self):
        chart = render_gantt(sample_timing(), width=50)
        lines = chart.splitlines()
        scan_line = next(l for l in lines if l.startswith("scan"))
        probe_line = next(l for l in lines if l.startswith("probe"))
        # Scan starts at column 0; probe starts far right.
        assert scan_line.split("|")[1].startswith("#")
        assert probe_line.split("|")[1].startswith(".")

    def test_pipelining_visible(self):
        """The shuffle bar overlaps the scan bar in time."""
        chart = render_gantt(sample_timing(), width=50)
        lines = chart.splitlines()
        scan_bar = next(l for l in lines
                        if l.startswith("scan")).split("|")[1]
        shuffle_bar = next(l for l in lines
                           if l.startswith("shuffle")).split("|")[1]
        overlap = sum(
            1 for a, b in zip(scan_bar, shuffle_bar)
            if a == "#" and b == "#"
        )
        assert overlap > 10

    def test_header_and_axis(self):
        chart = render_gantt(sample_timing())
        assert chart.splitlines()[0].startswith("demo")
        assert "50.6" in chart or "50." in chart

    def test_invalid_width(self):
        with pytest.raises(SimulationError):
            render_gantt(sample_timing(), width=0)

    def test_real_algorithm_schedule(self, loaded_warehouse, paper_query):
        from repro import algorithm_by_name

        result = algorithm_by_name("zigzag").run(
            loaded_warehouse, paper_query
        )
        chart = render_gantt(result.timing)
        assert "db_export" in chart and "hdfs_scan" in chart

