"""Tests for the generic sweep API and its CLI subcommand."""

import pytest

from repro.bench.harness import WarehouseCache
from repro.bench.sweep import SweepPoint, grid, run_sweep
from repro.errors import ReproError


@pytest.fixture(scope="module")
def cache():
    return WarehouseCache(scale=1 / 100_000)


class TestSweep:
    def test_grid_cartesian(self):
        points = grid([0.05, 0.1], [0.01, 0.1, 0.2])
        assert len(points) == 6
        assert points[0].sigma_t == 0.05 and points[0].sigma_l == 0.01

    def test_rows_and_winners(self, cache):
        result = run_sweep(
            grid([0.1], [0.01, 0.2]),
            ["db(BF)", "zigzag"],
            cache=cache,
        )
        assert len(result.rows) == 4
        winners = result.winners()
        assert len(winners) == 2
        assert set(winners.values()) <= {"db(BF)", "zigzag"}
        # The paper's crossover: db wins small sigma_L, zigzag large.
        labels = sorted(winners)
        small = [l for l in labels if "sL=0.01" in l][0]
        large = [l for l in labels if "sL=0.2" in l][0]
        assert winners[small] == "db(BF)"
        assert winners[large] == "zigzag"

    def test_seconds_lookup(self, cache):
        result = run_sweep(
            [SweepPoint(0.1, 0.1, s_l=0.1)], ["zigzag"], cache=cache
        )
        label = result.rows[0]["point"]
        seconds = {row["algorithm"]: row["seconds"] for row in result.rows
                   if row["point"] == label}
        assert seconds.keys() == {"zigzag"}
        assert seconds["zigzag"] > 0

    def test_infeasible_points_skipped(self, cache):
        result = run_sweep(
            [SweepPoint(0.9, 0.9, s_t=0.05, s_l=0.05)],
            ["zigzag"],
            cache=cache,
        )
        assert not result.rows
        assert len(result.skipped) == 1

    def test_empty_inputs_rejected(self, cache):
        with pytest.raises(ReproError):
            run_sweep([], ["zigzag"], cache=cache)
        with pytest.raises(ReproError):
            run_sweep([SweepPoint(0.1, 0.1)], [], cache=cache)

    def test_point_label(self):
        point = SweepPoint(0.1, 0.2, s_t=0.3, s_l=0.1,
                           format_name="text")
        label = point.label()
        assert "sT=0.1" in label and "text" in label


class TestSweepCli:
    def test_cli_runs(self, capsys):
        from repro.__main__ import main

        code = main([
            "sweep", "--sigma-t", "0.1", "--sigma-l", "0.01", "0.2",
            "--algorithms", "zigzag", "db(BF)",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "winners by point" in out
        assert "zigzag" in out
