"""Tests for the ASCII figure renderer and both CLI entry points."""

import pytest

from repro.bench.experiments import ExperimentResult, ShapeCheck
from repro.bench.figures import render_experiment, render_grouped_bars
from repro.errors import ReproError


def sample_rows():
    return [
        {"panel": "a", "sigma_L": 0.1, "algorithm": "db", "seconds": 47.0},
        {"panel": "a", "sigma_L": 0.1, "algorithm": "zigzag",
         "seconds": 60.0},
        {"panel": "a", "sigma_L": 0.2, "algorithm": "db", "seconds": 300.0},
        {"panel": "a", "sigma_L": 0.2, "algorithm": "zigzag",
         "seconds": 75.0},
    ]


class TestRenderer:
    def test_bars_scale_with_values(self):
        text = render_grouped_bars(
            sample_rows(), "sigma_L", "algorithm", "seconds",
            title="demo", panel_key="panel",
        )
        lines = [line for line in text.splitlines() if "|" in line]
        bar_lengths = [line.count("#") for line in lines]
        # 300s must be the longest bar; 47s the shortest.
        assert max(bar_lengths) == bar_lengths[2]
        assert min(bar_lengths) == bar_lengths[0]

    def test_title_and_panels_present(self):
        text = render_grouped_bars(
            sample_rows(), "sigma_L", "algorithm", "seconds",
            title="demo", panel_key="panel",
        )
        assert text.startswith("demo")
        assert "panel a:" in text

    def test_empty_rows_rejected(self):
        with pytest.raises(ReproError):
            render_grouped_bars([], "x", "s", "v")

    def test_render_experiment_bar_shape(self):
        result = ExperimentResult(
            experiment_id="x", title="t",
            headers=["panel", "sigma_L", "algorithm", "seconds"],
            rows=sample_rows(),
            checks=[ShapeCheck("c", True)],
        )
        assert "|" in render_experiment(result)

    def test_render_experiment_falls_back_to_table(self):
        result = ExperimentResult(
            experiment_id="x", title="t",
            headers=["algorithm", "tuples"],
            rows=[{"algorithm": "zigzag", "tuples": 10.0}],
        )
        rendered = render_experiment(result)
        assert "zigzag" in rendered and "|" not in rendered


class TestBenchCli:
    def test_list(self, capsys):
        from repro.bench.__main__ import main

        assert main(["--list"]) == 0
        captured = capsys.readouterr().out
        assert "table1" in captured and "fig15" in captured

    def test_single_experiment(self, capsys, tmp_path):
        from repro.bench.__main__ import main

        code = main(["table1", "--scale", "100000",
                     "--output", str(tmp_path)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "PASS" in captured
        assert (tmp_path / "table1.txt").exists()

    def test_unknown_experiment(self):
        from repro.bench.__main__ import main

        with pytest.raises(Exception):
            main(["fig99"])


class TestTopLevelCli:
    def test_advise(self, capsys):
        from repro.__main__ import main

        assert main(["advise", "--sigma-t", "0.1",
                     "--sigma-l", "0.2"]) == 0
        captured = capsys.readouterr().out
        assert "recommended:" in captured
        assert "zigzag" in captured

    def test_sql_requires_query(self, capsys):
        from repro.__main__ import main

        assert main(["sql"]) == 2

    @pytest.mark.parametrize("argv", [
        ["serve", "--backend", "process"],
        ["bench", "--only-parallel"],
        ["bench", "--skip-parallel"],
        ["bench"],
        ["bench", "--quick"],
    ], ids=" ".join)
    def test_removed_backend_flags_are_argparse_errors(self, capsys, argv):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        error = capsys.readouterr().err
        if argv[0] == "bench":
            # The whole subcommand is gone, not just its flags.
            assert "invalid choice: 'bench'" in error
        else:
            assert "unrecognized arguments" in error

    def test_sql_inline(self, capsys):
        from repro.__main__ import main

        code = main([
            "sql",
            "SELECT L.joinKey, COUNT(*) FROM T, L "
            "WHERE T.joinKey = L.joinKey GROUP BY L.joinKey",
            "--algorithm", "repartition", "--limit", "2",
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "algorithm: repartition" in captured
        assert "more rows" in captured


class TestChaosCli:
    """``repro chaos`` checks every faulted run against the oracle."""

    ARGV = ["chaos", "--faults", "crash:w7@scan", "--algorithms", "zigzag"]

    @pytest.fixture(autouse=True)
    def small_warehouse(self, monkeypatch):
        from repro import __main__ as cli

        demo = cli._demo_warehouse
        monkeypatch.setattr(cli, "_demo_warehouse",
                            lambda: demo(scale=1 / 200_000))

    def test_healthy_run_is_identical(self, capsys):
        from repro.__main__ import main

        assert main(self.ARGV) == 0
        out = capsys.readouterr().out
        assert "result=identical" in out
        assert "crash: worker 7 died during scan" in out

    def test_a_kernel_bug_is_a_mismatch(self, capsys):
        """Double every COUNT inside the engines' group-by: the faulted
        run must diverge from the oracle, which shares no kernel."""
        from unittest import mock

        from repro.__main__ import main
        from repro.relational import aggregates

        compute = aggregates._compute_aggregate

        def doubled_count(table, spec, group_ids, num_groups):
            values = compute(table, spec, group_ids, num_groups)
            return values * 2 if spec.function == "count" else values

        with mock.patch.object(aggregates, "_compute_aggregate",
                               doubled_count):
            assert main(self.ARGV) == 1
        captured = capsys.readouterr()
        assert "result=MISMATCH" in captured.out
        assert "zigzag: row multisets diverge" in captured.out
        assert "first divergence at sorted row 0" in captured.out
        assert "diverged from the oracle" in captured.err
