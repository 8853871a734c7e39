"""Clusters, links and the inter-cluster switch.

The topology object answers one kind of question for the cost layer:
"what is the aggregate bandwidth available to this transfer pattern?".
The per-phase *durations* are then computed in
:mod:`repro.core.joins.costing` and scheduled (with pipelining) by the
time plane.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import ClusterConfig
from repro.errors import SimulationError


@dataclass(frozen=True)
class Cluster:
    """A homogeneous group of nodes with identical NICs."""

    name: str
    nodes: int
    nic_bytes_per_s: float

    def __post_init__(self):
        if self.nodes <= 0:
            raise SimulationError(f"cluster {self.name!r} needs nodes > 0")
        if self.nic_bytes_per_s <= 0:
            raise SimulationError(f"cluster {self.name!r} needs NIC bw > 0")


@dataclass(frozen=True)
class HybridTopology:
    """The two clusters plus the switch between them (paper Section 5)."""

    hdfs: Cluster
    database: Cluster
    switch_bytes_per_s: float

    def __post_init__(self):
        if self.switch_bytes_per_s <= 0:
            raise SimulationError("switch bandwidth must be positive")

    def inter_cluster_bandwidth(
        self, senders: int, receivers: int, sender_side: str
    ) -> float:
        """Aggregate bandwidth for a transfer between the clusters.

        The bottleneck is the minimum of the senders' NICs, the receivers'
        NICs, and the switch.  ``sender_side`` is ``"hdfs"`` or ``"db"``.
        """
        if sender_side == "hdfs":
            source, target = self.hdfs, self.database
        elif sender_side == "db":
            source, target = self.database, self.hdfs
        else:
            raise SimulationError(
                f"sender_side must be 'hdfs' or 'db', got {sender_side!r}"
            )
        senders = min(senders, source.nodes)
        receivers = min(receivers, target.nodes)
        if senders <= 0 or receivers <= 0:
            raise SimulationError("transfer needs at least one node per side")
        return min(
            senders * source.nic_bytes_per_s,
            receivers * target.nic_bytes_per_s,
            self.switch_bytes_per_s,
        )

def default_topology(cluster: ClusterConfig) -> HybridTopology:
    """Build the paper's topology from a :class:`ClusterConfig`.

    DB2 workers share the NIC of the server they run on, so the database
    "cluster" is modelled at server granularity with per-server 10 Gbit
    NICs; the HDFS side has one 1 Gbit NIC per DataNode.
    """
    hdfs = Cluster(
        name="hdfs",
        nodes=cluster.hdfs_nodes,
        nic_bytes_per_s=cluster.hdfs_nic_bytes_per_s,
    )
    database = Cluster(
        name="db",
        nodes=cluster.db_servers,
        nic_bytes_per_s=cluster.db_nic_bytes_per_s,
    )
    return HybridTopology(
        hdfs=hdfs,
        database=database,
        switch_bytes_per_s=cluster.switch_bytes_per_s,
    )
