"""Self-tests of the benchmark harness (not of the engine).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q``.
"""

from __future__ import annotations

import json
import re
import statistics

import pytest

from benchmarks.e2e import REPO_ROOT, cli, harness, layers, repeat, tracing
from benchmarks.e2e.metrics import END_TO_END, PER_LAYER
from benchmarks.e2e.workloads import STREAM, WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def _span(name, parent, start, end, counts=None):
    return [name, parent, 0, start, end, counts]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("root", -1, 0, 100),
        _span("a", 0, 10, 40),
        _span("a.inner", 1, 20, 30),
        _span("b", 0, 50, 70),
    ]
    assert tracing.self_times(spans) == [50, 20, 10, 20]
    assert sum(tracing.self_times(spans)) == 100
    assert tracing.inclusive_totals(spans) == {
        "root": 100, "a": 30, "a.inner": 10, "b": 20}


def test_recursive_span_is_parent_and_child_of_one_name():
    spans = [
        _span("walk", -1, 0, 90, {"rows": 3}),
        _span("walk", 0, 10, 60, {"rows": 2}),
        _span("walk", 1, 20, 30, {"rows": 1}),
    ]
    assert tracing.self_times(spans) == [40, 40, 10]
    totals = tracing.span_totals(spans)["walk"]
    assert totals["self_ns"] == 90
    assert tracing.inclusive_totals(spans) == {"walk": 90}
    # Only the outermost call's counts: the inner ones re-count its rows.
    assert totals["calls"] == 1 and totals["rows"] == 3


def test_live_wrappers_nest_and_account_for_the_whole_root():
    tracer = tracing.Tracer()

    def factorial(n):
        return 1 if n <= 1 else n * traced(n - 1)

    traced = tracer.wrap("factorial", factorial,
                         lambda args, _kwargs, result: {"n": args[0]})
    tracer.op = 7
    with tracer.span("root"):
        assert traced(4) == 24
    assert [span[tracing.PARENT] for span in tracer.spans] == [-1, 0, 1, 2, 3]
    assert {span[tracing.OP] for span in tracer.spans} == {7}
    root = tracer.spans[0]
    assert sum(tracing.self_times(tracer.spans)) == (
        root[tracing.END] - root[tracing.START])
    assert tracing.span_totals(tracer.spans)["factorial"]["n"] == 4


def test_span_closes_when_the_wrapped_call_raises():
    tracer = tracing.Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    assert tracer.spans[0][tracing.END] >= tracer.spans[0][tracing.START]
    with tracer.span("after") as span:
        pass
    assert span[tracing.PARENT] == -1


# ----------------------------------------------------------------------
# Patching and restoring
# ----------------------------------------------------------------------
def test_install_patches_callers_and_restore_is_exact():
    import repro
    from repro import latemat
    from repro.core import bloom
    from repro.core.joins import base, db_side
    from repro.edw import database
    from repro.edw.database import ParallelDatabase
    from repro.edw.worker import DbWorker
    from repro.jen import worker as jen_worker
    from repro.jen.engine import Jen
    from repro.kernels import partition
    from repro.relational.table import Table
    from repro.sim import replay

    class_attrs = [
        (Jen, "scan_with_request"), (Jen, "shuffle_by_key"),
        (Jen, "join_and_aggregate"),
        (ParallelDatabase, "filter_project"),
        (ParallelDatabase, "build_global_bloom"),
        (DbWorker, "apply_bloom"),
        (Table, "filter"), (Table, "take"), (Table, "concat"),
        (bloom.BloomFilter, "add"), (bloom.BloomFilter, "contains"),
        (repro.ZigzagJoin, "run"),
    ]
    module_attrs = [
        (bloom, "probe_and_insert"), (jen_worker, "probe_and_insert"),
        (partition, "partition_table"), (jen_worker, "partition_table"),
        (database, "partition_table"),
        (replay, "replay_trace"), (base, "replay_trace"),
        (latemat, "stitch_parts"), (db_side, "stitch_parts"),
    ]
    before = ([vars(owner)[attr] for owner, attr in class_attrs]
              + [vars(owner)[attr] for owner, attr in module_attrs])

    tracer = tracing.Tracer()
    layers.install(tracer)
    try:
        during = ([vars(owner)[attr] for owner, attr in class_attrs]
                  + [vars(owner)[attr] for owner, attr in module_attrs])
        assert all(new is not old for new, old in zip(during, before))
        assert isinstance(vars(DbWorker)["apply_bloom"], staticmethod)
        assert isinstance(vars(Table)["concat"], classmethod)
        # Every importer of one function shares one wrapper.
        assert jen_worker.probe_and_insert is bloom.probe_and_insert
    finally:
        tracer.restore()
    after = ([vars(owner)[attr] for owner, attr in class_attrs]
             + [vars(owner)[attr] for owner, attr in module_attrs])
    assert all(new is old for new, old in zip(after, before))


# ----------------------------------------------------------------------
# Statistics helpers
# ----------------------------------------------------------------------
def test_floor_is_confirmed_by_three_separate_rounds():
    assert not harness.floor_confirmed([100, 130, 140])
    assert not harness.floor_confirmed([100, 104, 140, 150])
    assert harness.floor_confirmed([100, 104, 140, 105])
    # A new, faster floor has to be confirmed afresh.
    assert not harness.floor_confirmed([100, 104, 105, 90])


def test_relative_spread_is_iqr_over_median():
    values = [float(v) for v in range(1, 11)]
    first, _, third = statistics.quantiles(values, n=4)
    assert harness.relative_spread(values) == pytest.approx(
        (third - first) / 5.5)
    assert harness.relative_spread([2.0, 2.0, 2.0]) == 0.0


# ----------------------------------------------------------------------
# The catalogue and BENCHMARK.json
# ----------------------------------------------------------------------
def test_names_and_units_are_well_formed_and_unique():
    names = ([w.name for w in WORKLOADS]
             + [m.name for m in END_TO_END + PER_LAYER])
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(m.unit) for m in END_TO_END + PER_LAYER)
    assert all(m.better in ("lower", "higher")
               for m in END_TO_END + PER_LAYER)
    assert all(0 < m.bound <= 0.25 for m in END_TO_END)
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in WORKLOADS)
    assert len(PER_LAYER) <= 128


def test_benchmark_json_is_the_catalogue():
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["workloads"] == [
        {"name": w.name, "why": w.why} for w in WORKLOADS]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in END_TO_END]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in PER_LAYER]
    setup = next(m for m in END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in END_TO_END)


def test_stream_shares_work_the_same_way_for_every_seed():
    templates = [submission.template for submission in STREAM]
    assert len(STREAM) == 12
    assert sorted(set(templates)) == [0, 1, 2, 3]
    assert all(templates.count(t) == 3 for t in range(4))
    # One repeat right behind its first arrival (still in flight) ...
    assert templates[:2] == [0, 0]
    # ... every other one at least three arrivals after it.
    for index, template in enumerate(templates[2:], start=2):
        earlier = [i for i in range(index) if templates[i] == template]
        assert not earlier or index - earlier[0] >= 3
    assert sum(submission.priority for submission in STREAM) == 3
    assert {submission.tenant for submission in STREAM} == {
        "tenant-0", "tenant-1"}
    assert [s.at for s in STREAM] == [60.0 * i for i in range(12)]


# ----------------------------------------------------------------------
# The command itself, on smoke sizes
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def quick_runs():
    """scan_zigzag --quick: seed 3 twice, seed 4 once."""
    return [cli.run_child("scan_zigzag", seed, 0.0, "both", quick=True)
            for seed in (3, 3, 4)]


def _exact(payload):
    """The metrics that must repeat exactly for one seed."""
    exact = {name: payload["end_to_end"][name]
             for name in ("sim_seconds_mean", "cross_cluster_bytes_mean")}
    countable = {"count", "rows", "keys", "bytes", "sim_s", "ratio"}
    for metric in PER_LAYER:
        if metric.unit in countable and not metric.name.startswith(
                "harness."):
            exact[metric.name] = payload["per_layer"][metric.name]
    return exact


def test_command_prints_exactly_the_catalogue(quick_runs):
    payload = quick_runs[0]
    assert payload["quick"] is True and payload["failed"] == 0
    for trace, metrics in ((0, END_TO_END), (1, PER_LAYER)):
        line = json.loads(cli.contract_line(payload, trace))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["attempted"] >= 1
        assert list(line["metrics"]) == [m.name for m in metrics]
        assert all(line["metrics"][m.name]["unit"] == m.unit
                   for m in metrics)
    assert all(value > 0 for value in payload["end_to_end"].values())
    rendered = cli.render(payload)
    assert all(m.name in rendered for m in END_TO_END + PER_LAYER)
    assert "failed_ops_share" in rendered


def test_one_seed_repeats_exactly_and_another_differs(quick_runs):
    first, again, other = (_exact(payload) for payload in quick_runs)
    assert first == again
    assert other["sim_seconds_mean"] != first["sim_seconds_mean"]
    assert other["jen.scan.rows_out"] != first["jen.scan.rows_out"]


def test_layer_accounting_on_the_traced_pass(quick_runs):
    shares = quick_runs[0]["layer_shares"]
    named = sum(v for name, v in shares["self"].items()
                if name != layers.OP_SPAN)
    assert named >= 0.9
    assert shares["inclusive"][layers.OP_SPAN] == pytest.approx(1.0)
    assert shares["inclusive"]["jen.scan"] > shares["self"]["jen.scan"]
    assert quick_runs[0]["per_layer"]["core.bloom.calls"] > 0
    assert (REPO_ROOT / "benchmarks/e2e/out/trace_scan_zigzag.json").exists()


def test_repeat_refuses_quick_payloads(quick_runs):
    runs = {"scan_zigzag": [quick_runs[0], quick_runs[1]]}
    with pytest.raises(ValueError, match="quick"):
        repeat.compare_sets(runs, runs)


def test_repeat_flags_a_gap_beyond_the_bound(quick_runs):
    def runs(scale):
        payload = dict(quick_runs[0], quick=False)
        payload["end_to_end"] = dict(payload["end_to_end"])
        payload["end_to_end"]["op_wall_ms_min"] *= scale
        return {"scan_zigzag": [payload, payload]}

    rows = {row["metric"]: row
            for row in repeat.compare_sets(runs(1.0), runs(1.5))}
    assert not rows["op_wall_ms_min"]["within"]
    assert rows["sim_seconds_mean"]["within"]
    assert rows["op_wall_ms_min"]["gap"] == pytest.approx(0.5)
    faster = repeat.compare_sets(runs(1.0), runs(0.5))
    assert all(row["within"] for row in faster)
