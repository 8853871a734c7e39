"""Unit tests for the network topology and the Fig. 6 transfer
patterns as the engine runs and prices them: grouped DB-side ingest
(``db_side._group_ingest``), broadcast direct or through a relay
(``BroadcastJoin``), and the cross-cluster link (``JoinCosting``)."""

import dataclasses

import numpy as np
import pytest

from repro.config import ClusterConfig, MB, default_config
from repro.core.joins.broadcast import BroadcastJoin
from repro.core.joins.costing import JoinCosting
from repro.core.joins.db_side import _group_ingest
from repro.errors import SimulationError
from repro.net.topology import Cluster, default_topology
from repro.net.transfer import TransferPattern, shuffle_seconds
from repro.relational.schema import Column, DataType, Schema
from repro.relational.table import Table
from repro.testkit.generator import edge_case
from repro.workload import load_paper_tables
from repro.warehouse import HybridWarehouse


@pytest.fixture
def topology():
    return default_topology(ClusterConfig())


class TestTopology:
    def test_default_matches_paper(self, topology):
        assert topology.hdfs.nodes == 30
        assert topology.database.nodes == 5  # servers share 10 Gbit NICs
        assert topology.switch_bytes_per_s == 2500 * MB

    def test_invalid_cluster(self):
        with pytest.raises(SimulationError):
            Cluster("x", 0, 1.0)
        with pytest.raises(SimulationError):
            Cluster("x", 1, 0.0)

    def test_inter_cluster_bottleneck_is_min(self, topology):
        # 30 HDFS senders at 125 MB/s = 3750 MB/s, capped by the 20 Gbit
        # switch at 2500 MB/s.
        bandwidth = topology.inter_cluster_bandwidth(30, 5, "hdfs")
        assert bandwidth == pytest.approx(2500 * MB)

    def test_few_senders_become_bottleneck(self, topology):
        bandwidth = topology.inter_cluster_bandwidth(2, 5, "hdfs")
        assert bandwidth == pytest.approx(2 * 125 * MB)

    def test_db_side_sender(self, topology):
        bandwidth = topology.inter_cluster_bandwidth(5, 30, "db")
        assert bandwidth == pytest.approx(2500 * MB)

    def test_bad_sender_side(self, topology):
        with pytest.raises(SimulationError):
            topology.inter_cluster_bandwidth(1, 1, "mainframe")


def grouped(num_jen_workers, num_db_workers):
    """The JEN workers whose output each DB worker ingests."""
    schema = Schema([Column("jen", DataType.INT64)])
    wires = [Table(schema, {"jen": np.array([worker], dtype=np.int64)})
             for worker in range(num_jen_workers)]
    return [part.column("jen").tolist()
            for part in _group_ingest(wires, num_db_workers)]


class TestGroupedAssignment:
    def test_even_groups(self):
        assert grouped(30, 30) == [[worker] for worker in range(30)]

    def test_more_jen_than_db(self):
        groups = grouped(30, 10)
        assert len(groups) == 10
        assert sorted(len(g) for g in groups) == [3] * 10
        flattened = [w for g in groups for w in g]
        assert sorted(flattened) == list(range(30))

    def test_more_db_than_jen(self):
        groups = grouped(4, 10)
        assert groups == [[0], [1], [2], [3]] + [[]] * 6


@pytest.fixture(scope="module")
def broadcasts():
    """Cross-cluster and relayed bytes of the direct and the relayed
    broadcast join on one small case, and the worker count."""
    case = edge_case("zipf-skew")
    warehouse = load_paper_tables(
        HybridWarehouse(default_config(scale=1 / 50_000)),
        case.t_table, case.l_table)
    shipped = {
        pattern: BroadcastJoin(pattern).run(
            warehouse, case.query).trace.metadata["bytes_shipped"]
        for pattern in (TransferPattern.BROADCAST_DIRECT,
                        TransferPattern.BROADCAST_RELAY)
    }
    return shipped, warehouse.jen.num_workers


class TestBroadcastVolume:
    def test_direct_multiplies(self, broadcasts):
        shipped, workers = broadcasts
        direct = shipped[TransferPattern.BROADCAST_DIRECT]
        relay = shipped[TransferPattern.BROADCAST_RELAY]
        assert direct["cross_cluster"] == \
            workers * relay["cross_cluster"] > 0

    def test_relay_crosses_once(self, broadcasts):
        shipped, workers = broadcasts
        relay = shipped[TransferPattern.BROADCAST_RELAY]
        assert relay["relay"] == (workers - 1) * relay["cross_cluster"]


class TestTransferSeconds:
    """A cross-cluster transfer takes the slower of the endpoints'
    serve time and the inter-cluster link."""

    @staticmethod
    def ingest_costing(tuples_per_s):
        config = default_config(scale=1.0)
        return JoinCosting(dataclasses.replace(
            config, cost=dataclasses.replace(
                config.cost, db_ingest_tuples_per_s=tuples_per_s)))

    def test_zero_volume(self):
        costing = JoinCosting(default_config(scale=1.0))
        assert costing.db_ingest_seconds(0, 16.0) == 0.0
        assert costing.db_export_seconds(0, 16.0) == 0.0

    def test_endpoint_cap_applies(self):
        # 2500 MB from 30 HDFS senders: the 20 Gbit switch takes 1 s.
        tuples, row_bytes = 25e6, 100 * MB / 1e6
        fast = self.ingest_costing(1e12).db_ingest_seconds(
            tuples, row_bytes)
        slow = self.ingest_costing(1e3).db_ingest_seconds(
            tuples, row_bytes)
        assert fast == pytest.approx(1.0)
        assert slow == pytest.approx(tuples / (30 * 1e3))


class TestShuffle:
    def test_zero_and_negative(self, topology):
        assert shuffle_seconds(0, topology, 30, 1 * MB) == 0.0
        with pytest.raises(SimulationError):
            shuffle_seconds(-1, topology, 30, 1 * MB)

    def test_local_fraction_excluded(self, topology):
        # With one worker everything is local: no network time at all.
        assert shuffle_seconds(10 * MB, topology, 1, 1 * MB) == 0.0

    def test_scales_inversely_with_workers(self, topology):
        few = shuffle_seconds(2900 * MB, topology, 10, 10 * MB)
        many = shuffle_seconds(2900 * MB, topology, 29, 10 * MB)
        assert few > many

    def test_goodput_capped_by_nic(self, topology):
        capped = shuffle_seconds(1000 * MB, topology, 30, 10_000 * MB)
        at_nic = shuffle_seconds(1000 * MB, topology, 30, 125 * MB)
        assert capped == pytest.approx(at_nic)
