"""Network model of the hybrid warehouse.

Encodes the paper's physical layout (Section 5): an HDFS cluster on
1 Gbit Ethernet, a database cluster on 10 Gbit Ethernet, and a 20 Gbit
switch connecting the two, the names of the data-transfer patterns of
Figure 6 (grouped DB-side ingest, broadcast, and agreed-hash direct
sends) and the in-HDFS shuffle time.
"""

from repro.net.topology import Cluster, HybridTopology, default_topology
from repro.net.transfer import TransferPattern, shuffle_seconds

__all__ = [
    "Cluster",
    "HybridTopology",
    "TransferPattern",
    "default_topology",
    "shuffle_seconds",
]
