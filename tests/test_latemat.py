"""Tests for late materialization (:mod:`repro.latemat`).

Covers the toggle, the thin/prune/stitch primitives, the
dictionary-aware wire accounting, the fetch-amplification model, the
advisor's accept/decline decision, the service plane's bytes-shipped
counters, the bytes and seconds thin wires buy on a constrained link
(pinned), and — the load-bearing part — oracle identity of every
algorithm with the toggle on, including the skew and fault
interactions.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.config import HybridConfig
from repro.core.advisor import JoinAdvisor, WorkloadEstimate
from repro.latemat import (
    PAGE_ROWS,
    ROWID_BYTES,
    ROWID_COLUMN,
    PayloadStore,
    StitchStats,
    fetch_amplification,
    is_thin,
    late_materialization_enabled,
    set_late_materialization_enabled,
    stitch_parts,
    thin_for_transfer,
    thin_table,
)
from repro.query.plan import needed_wire_columns
from repro.relational.schema import Column, DataType, Schema
from repro.relational.table import Table
from repro.testkit import generator, oracle
from repro.testkit.generator import ALL_ALGORITHMS, ConfigCell, run_cell


@pytest.fixture(autouse=True)
def _latemat_off_between_tests():
    """No test may leak the global toggle."""
    yield
    set_late_materialization_enabled(False)


def _wide_table(rows: int = 200) -> Table:
    """joinKey (int32) + three payload columns, one dict-encoded."""
    schema = Schema([
        Column("joinKey", DataType.INT32),
        Column("val", DataType.INT64),
        Column("price", DataType.FLOAT64),
        Column("tag", DataType.DICT_STRING, width_bytes=24),
    ])
    rng = np.random.default_rng(11)
    return Table(
        schema,
        {
            "joinKey": rng.integers(0, 40, rows).astype(np.int32),
            "val": rng.integers(0, 1 << 40, rows).astype(np.int64),
            "price": rng.random(rows),
            "tag": rng.integers(0, 3, rows).astype(np.int32),
        },
        {"tag": np.asarray(["aa", "bb", "cc"], dtype=object)},
    )


# ----------------------------------------------------------------------
# Toggle
# ----------------------------------------------------------------------
class TestToggle:
    def test_default_off(self):
        assert late_materialization_enabled() is False

    def test_set_returns_previous(self):
        assert set_late_materialization_enabled(True) is False
        assert late_materialization_enabled() is True
        assert set_late_materialization_enabled(False) is True

    def test_off_declines_thinning(self):
        assert thin_for_transfer([_wide_table()], "joinKey") is None


# ----------------------------------------------------------------------
# Thin / prune / stitch primitives
# ----------------------------------------------------------------------
class TestThin:
    def test_thin_table_schema_and_rowids(self):
        table = _wide_table()
        rowids = np.arange(table.num_rows, dtype=np.int64)
        thin = thin_table(table, "joinKey", rowids)
        assert is_thin(thin)
        assert list(thin.schema.names) == ["joinKey", ROWID_COLUMN]
        np.testing.assert_array_equal(
            thin.column("joinKey"), table.column("joinKey"))
        np.testing.assert_array_equal(thin.column(ROWID_COLUMN), rowids)

    def test_store_rowids_are_global_offsets(self):
        set_late_materialization_enabled(True)
        table = _wide_table()
        parts = [table.take(np.arange(0, 80)),
                 table.take(np.arange(80, 200))]
        store = thin_for_transfer(parts, "joinKey")
        assert store is not None
        thin = store.thin_tables()
        np.testing.assert_array_equal(
            thin[1].column(ROWID_COLUMN)[:3], [80, 81, 82])
        fetched = store.fetch(np.asarray([0, 80, 199]))
        assert fetched.column("val")[1] == table.column("val")[80]

    def test_narrow_payload_declines(self):
        set_late_materialization_enabled(True)
        # key + one int32: 8 bytes/row, under the 12-byte thin row.
        schema = Schema([Column("joinKey", DataType.INT32),
                         Column("x", DataType.INT32)])
        table = Table(schema, {
            "joinKey": np.arange(10, dtype=np.int32),
            "x": np.arange(10, dtype=np.int32),
        })
        assert thin_for_transfer([table], "joinKey") is None

    def test_already_thin_declines(self):
        set_late_materialization_enabled(True)
        thin = thin_table(_wide_table(), "joinKey",
                          np.arange(200, dtype=np.int64))
        assert thin_for_transfer([thin], "joinKey") is None

    def test_needed_columns_dropped_from_store(self):
        set_late_materialization_enabled(True)
        store = thin_for_transfer([_wide_table()], "joinKey",
                                  needed=("joinKey", "val", "price"))
        assert store is not None
        assert store.payload_names() == ["val", "price"]

    def test_narrow_needed_projection_declines(self):
        set_late_materialization_enabled(True)
        # Projected to key + one int64 the row is exactly the 12-byte
        # thin width — nothing to defer, so thinning stands down.
        assert thin_for_transfer([_wide_table()], "joinKey",
                                 needed=("joinKey", "val")) is None

    def test_stitch_parts_prunes_and_refetches(self):
        set_late_materialization_enabled(True)
        table = _wide_table()
        store = thin_for_transfer([table], "joinKey")
        stats = StitchStats()
        other_keys = np.asarray([3, 7, 11], dtype=np.int32)
        stitched = stitch_parts(store, store.thin_tables(), "joinKey",
                                other_keys, stats, side="l")
        assert len(stitched) == 1
        survivors = stitched[0]
        assert not is_thin(survivors)
        assert set(np.unique(survivors.column("joinKey"))) <= {3, 7, 11}
        mask = np.isin(table.column("joinKey"), other_keys)
        assert survivors.num_rows == int(mask.sum())
        # Full payload came back for every survivor, in rowid order.
        expected = table.take(np.flatnonzero(mask))
        assert sorted(survivors.to_rows()) == sorted(expected.to_rows())
        assert stats.l_thin_tuples == table.num_rows
        assert stats.l_fetched_tuples == survivors.num_rows

    def test_stitch_parts_passes_full_rows_through(self):
        stats = StitchStats()
        table = _wide_table()
        out = stitch_parts(None, [table], "joinKey",
                           np.asarray([1]), stats)
        assert out[0] is table


# ----------------------------------------------------------------------
# Fetch amplification
# ----------------------------------------------------------------------
class TestAmplification:
    def test_empty_batch(self):
        assert fetch_amplification(np.asarray([], dtype=np.int64)) == 1.0

    def test_dense_page_costs_one(self):
        assert fetch_amplification(np.arange(PAGE_ROWS)) == 1.0

    def test_one_rowid_per_page_costs_page_rows(self):
        scattered = np.arange(0, 10 * PAGE_ROWS, PAGE_ROWS)
        assert fetch_amplification(scattered) == float(PAGE_ROWS)

    def test_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            ids = rng.choice(4096, size=rng.integers(1, 300),
                             replace=False)
            amp = fetch_amplification(ids)
            assert 1.0 <= amp <= float(PAGE_ROWS)


# ----------------------------------------------------------------------
# Dictionary-aware wire accounting
# ----------------------------------------------------------------------
class TestWireAccounting:
    def test_dict_column_cheaper_on_wire_than_logical(self):
        table = _wide_table()
        # Logical: declared varchar width; wire: 4-byte ids + the
        # dictionary amortised over the rows.
        assert table.row_bytes(["tag"]) == 24
        assert table.wire_row_bytes(["tag"]) < 24
        assert table.wire_row_bytes() < table.row_bytes()

    def test_fixed_width_columns_price_identically(self):
        table = _wide_table()
        names = ["joinKey", "val", "price"]
        assert table.wire_row_bytes(names) == table.row_bytes(names)

    def test_empty_table_does_not_divide_by_zero(self):
        empty = _wide_table().take(np.asarray([], dtype=np.int64))
        assert empty.num_rows == 0
        assert empty.wire_row_bytes() >= 0.0


# ----------------------------------------------------------------------
# Needed wire columns
# ----------------------------------------------------------------------
class TestNeededWireColumns:
    def test_only_referenced_payload_survives(self, paper_query):
        from repro.relational.aggregates import AggregateSpec

        # The paper query projects (joinKey, predAfterJoin) from T;
        # with no post-join predicate and a count, predAfterJoin is
        # provably dead wire weight.
        dead = dataclasses.replace(
            paper_query,
            post_join_predicate=None,
            aggregates=(AggregateSpec("count"),),
        )
        assert needed_wire_columns(dead, "db") == (dead.db_join_key,)
        live = dataclasses.replace(
            dead,
            aggregates=(AggregateSpec("max", "t_predAfterJoin"),),
        )
        assert "predAfterJoin" in needed_wire_columns(live, "db")

    def test_join_key_always_needed(self, paper_query):
        for side in ("db", "hdfs"):
            assert needed_wire_columns(paper_query, side)[0] in (
                paper_query.db_join_key, paper_query.hdfs_join_key)

    def test_bad_side_rejected(self, paper_query):
        with pytest.raises(ValueError):
            needed_wire_columns(paper_query, "edw")


# ----------------------------------------------------------------------
# Advisor decision
# ----------------------------------------------------------------------
class TestAdvisorDecision:
    @staticmethod
    def _advisor() -> JoinAdvisor:
        """Advisor on a volume-bound (constrained-switch) link."""
        config = HybridConfig()
        cluster = dataclasses.replace(
            config.cluster, switch_bytes_per_s=25.0 * 1024 * 1024)
        return JoinAdvisor(dataclasses.replace(config, cluster=cluster))

    @staticmethod
    def _estimate(**overrides) -> WorkloadEstimate:
        base = dict(
            t_rows=200e6, l_rows=600e6, sigma_t=0.3, sigma_l=0.1,
            s_t=0.3, s_l=0.2, t_wire_bytes=50.0, l_wire_bytes=32.0,
            t_key_clustered=True, l_key_clustered=True,
        )
        base.update(overrides)
        return WorkloadEstimate(**base)

    def test_accepts_selective_wide_clustered(self):
        set_late_materialization_enabled(True)
        decision = self._advisor().late_materialization_decision(
            self._estimate())
        assert decision.use
        assert decision.latemat_seconds < decision.classic_seconds

    def test_declines_low_selectivity(self):
        set_late_materialization_enabled(True)
        decision = self._advisor().late_materialization_decision(
            self._estimate(s_t=0.9, s_l=0.9, t_key_clustered=False,
                           l_key_clustered=False))
        assert not decision.use
        assert "keeps most rows" in decision.rationale

    def test_declines_when_toggle_off(self):
        decision = self._advisor().late_materialization_decision(
            self._estimate())
        assert not decision.enabled
        assert not decision.use
        assert "disabled" in decision.rationale

    def test_declines_narrow_payload(self):
        set_late_materialization_enabled(True)
        decision = self._advisor().late_materialization_decision(
            self._estimate(t_wire_bytes=10.0, l_wire_bytes=12.0))
        assert not decision.use
        assert "thin row" in decision.rationale

    def test_observed_selectivity_overrides_estimate(self):
        set_late_materialization_enabled(True)
        advisor = self._advisor()
        optimistic = self._estimate(s_t=0.05, s_l=0.05)
        assert advisor.late_materialization_decision(optimistic).use
        refined = advisor.late_materialization_decision(
            optimistic, observed_s_t=1.0, observed_s_l=1.0)
        assert refined.latemat_seconds > refined.classic_seconds

    def test_clustering_lowers_latemat_cost(self):
        set_late_materialization_enabled(True)
        advisor = self._advisor()
        clustered = advisor.late_materialization_decision(
            self._estimate())
        scattered = advisor.late_materialization_decision(
            self._estimate(t_key_clustered=False,
                           l_key_clustered=False))
        assert clustered.latemat_seconds < scattered.latemat_seconds


# ----------------------------------------------------------------------
# Oracle identity with the toggle on
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def latemat_case():
    return generator.generate_data_case(5)


class TestOracleIdentity:
    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_every_algorithm(self, latemat_case, algorithm):
        cell = ConfigCell(algorithm=algorithm, workers=4,
                          late_materialization=True)
        result = run_cell(latemat_case, cell)
        diff = oracle.compare_tables(
            result, latemat_case.oracle_rows(), label=cell.label())
        assert diff is None, diff

    @pytest.mark.parametrize("cell", [
        ConfigCell(algorithm="repartition(BF)", workers=4,
                   skew_handling=True, late_materialization=True),
        ConfigCell(algorithm="zigzag", workers=30,
                   fault_spec="crash:w2@scan", late_materialization=True),
        ConfigCell(algorithm="repartition", workers=30,
                   fault_spec="spill:x0.5", late_materialization=True),
        ConfigCell(algorithm="db", workers=4, format_name="text",
                   late_materialization=True),
    ], ids=lambda cell: cell.label())
    def test_hard_interactions(self, latemat_case, cell):
        result = run_cell(latemat_case, cell)
        diff = oracle.compare_tables(
            result, latemat_case.oracle_rows(), label=cell.label())
        assert diff is None, diff

    def test_toggle_restored_after_run(self, latemat_case):
        run_cell(latemat_case, ConfigCell(
            algorithm="db", workers=4, late_materialization=True))
        assert late_materialization_enabled() is False

    def test_cell_label_names_the_axis(self):
        cell = ConfigCell(algorithm="db", workers=4,
                          late_materialization=True)
        assert "latemat" in cell.label()


# ----------------------------------------------------------------------
# Trace accounting + stats with the toggle on
# ----------------------------------------------------------------------
class TestTraceAccounting:
    @pytest.fixture(scope="class")
    def latemat_run(self, loaded_warehouse, paper_query):
        from repro import algorithm_by_name

        previous = set_late_materialization_enabled(True)
        try:
            return algorithm_by_name("db").run(
                loaded_warehouse, paper_query)
        finally:
            set_late_materialization_enabled(previous)

    def test_bytes_shipped_metadata(self, latemat_run):
        shipped = latemat_run.trace.metadata["bytes_shipped"]
        for key in ("export", "shuffle", "relay", "stitch",
                    "cross_cluster", "total"):
            assert key in shipped
        assert shipped["total"] > 0
        assert shipped["cross_cluster"] > 0


# ----------------------------------------------------------------------
# Service counters and the report surface
# ----------------------------------------------------------------------
class TestServiceCounters:
    @pytest.fixture(scope="class")
    def drained_service(self, loaded_warehouse, paper_query):
        from repro.service import (
            AdmissionConfig,
            QueryService,
            ServiceConfig,
        )

        config = ServiceConfig(
            admission=AdmissionConfig(slots=4, max_queue=16,
                                      queue_timeout=1e9,
                                      shed_fraction=None),
            enable_result_cache=False,
            enable_feedback=False,
        )
        service = QueryService(loaded_warehouse, config)
        for index, algorithm in enumerate(("db", "repartition")):
            service.submit(paper_query, tenant=f"t{index}", at=0.0,
                           algorithm=algorithm)
        service.drain()
        return service

    def test_net_bytes_counters(self, drained_service):
        summary = drained_service.metrics.summary()
        shipped = summary["bytes_shipped"]
        assert shipped.get("shuffle", 0) > 0
        assert shipped.get("cross_cluster", 0) > 0

    def test_per_tenant_latency(self, drained_service):
        tenants = drained_service.metrics.summary()["tenants"]
        assert set(tenants) == {"t0", "t1"}
        for stats in tenants.values():
            assert stats["count"] == 1
            assert stats["p50"] <= stats["p95"] <= stats["p99"]


# ----------------------------------------------------------------------
# What thin wires buy: pinned bytes and seconds on a constrained link
# ----------------------------------------------------------------------
#: (cell, algorithm) -> pinned (cross-cluster bytes, stitch bytes, both
#: rounded to whole bytes; simulated seconds) with late materialization
#: off, then on.
THIN_WIRE_PINS = {
    ("wide-selective", "db"): ((38_752, 0, 76.174),
                               (24_264, 9_732, 52.970)),
    ("wide-selective", "db(BF)"): ((7_808, 0, 24.274),
                                   (14_559, 11_631, 31.724)),
    ("wide-selective", "zigzag-db"): ((7_808, 0, 30.941),
                                      (14_559, 11_631, 38.392)),
    ("wide-selective", "broadcast"): ((486_800, 0, 1086.827),
                                      (221_686, 104_854, 1286.454)),
    ("low-selectivity", "db"): ((39_328, 0, 77.344),
                                (42_874, 28_126, 56.773)),
    ("low-selectivity", "repartition"): ((60_850, 0, 246.942),
                                         (438_189, 594_506, 820.884)),
}


def _wire_case(name, s_t, s_l, clustered):
    """Wide payloads every shipped column provably needs.

    The group-by needs ``t_dummy1`` and ``l_urlPrefix``; the aggregates
    need ``t_uniqKey``, ``t_dummy3`` and both date columns — so classic
    mode ships all of them for every row, while late materialization
    ships thin rows and fetches payloads only for survivors.
    """
    from repro.relational.aggregates import AggregateSpec
    from repro.workload import (
        WorkloadSpec,
        build_paper_query,
        generate_workload,
    )

    workload = generate_workload(WorkloadSpec(
        sigma_t=0.3, sigma_l=0.1, s_t=s_t, s_l=s_l, t_rows=4_000,
        l_rows=12_000, n_keys=400, n_urls=40, seed=77,
    ))
    tables = [workload.t_table, workload.l_table]
    if clustered:
        tables = [table.take(np.argsort(table.column("joinKey"),
                                        kind="stable"))
                  for table in tables]
    query = dataclasses.replace(
        build_paper_query(workload),
        db_projection=("joinKey", "predAfterJoin", "uniqKey", "dummy1",
                       "dummy3"),
        group_by=("l_urlPrefix", "t_dummy1"),
        aggregates=(
            AggregateSpec("count"),
            AggregateSpec("max", "t_uniqKey"),
            AggregateSpec("sum", "t_dummy3"),
            AggregateSpec("min", "t_predAfterJoin"),
        ),
    )
    return generator.DataCase(name=name, t_table=tables[0],
                              l_table=tables[1], query=query,
                              provenance=f"test_latemat/{name}")


@pytest.fixture(scope="module")
def wire_cells():
    """cell -> (case, 8-worker warehouse on a 25 MB/s switch, oracle)."""
    from repro.net.topology import default_topology

    cells = {}
    for case in (_wire_case("wide-selective", 0.3, 0.2, clustered=True),
                 _wire_case("low-selectivity", 0.9, 0.9, clustered=False)):
        warehouse = generator.build_cell_warehouse(case, 8, "parquet")
        cluster = dataclasses.replace(
            warehouse.config.cluster, switch_bytes_per_s=25.0 * 1024 * 1024)
        warehouse.config = dataclasses.replace(warehouse.config,
                                               cluster=cluster)
        warehouse.topology = default_topology(cluster)
        cells[case.name] = (case, warehouse, case.oracle_rows())
    return cells


class TestThinWirePayoff:
    """Wide-selective (clustered, S_T=0.3, S_L=0.2) is where thin rows
    pay; low-selectivity (unclustered, ~90% survive) and the already
    Bloom-pruned ``db(BF)`` / ``zigzag-db`` are the honest counter-cases.
    The advisor's USE / DECLINE on these shapes is TestAdvisorDecision.
    """

    @pytest.mark.parametrize("cell, algorithm", list(THIN_WIRE_PINS))
    def test_pinned_bytes_and_seconds(self, wire_cells, cell, algorithm):
        from repro import algorithm_by_name

        case, warehouse, reference = wire_cells[cell]
        observed = []
        for enabled in (False, True):
            set_late_materialization_enabled(enabled)
            run = algorithm_by_name(algorithm).run(warehouse, case.query)
            diff = oracle.compare_tables(
                run.result, reference, label=f"{algorithm}/{cell}/{enabled}")
            assert diff is None, diff
            shipped = run.trace.metadata["bytes_shipped"]
            observed.append((round(shipped["cross_cluster"]),
                             round(shipped["stitch"]),
                             run.timing.total_seconds))
        assert observed == [
            pytest.approx(pinned, abs=5e-4)
            for pinned in THIN_WIRE_PINS[cell, algorithm]
        ]
        if (cell, algorithm) == ("wide-selective", "db"):
            (off_bytes, _, off_seconds), (on_bytes, _, on_seconds) = observed
            assert off_bytes >= 1.5 * on_bytes
            assert on_seconds < off_seconds
