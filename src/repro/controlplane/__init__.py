"""Sharded, replicated Central Manager control plane.

The paper runs one Central Manager; at metro scale that is both the
discovery-throughput bottleneck and a single point of failure. This
package partitions the node registry by geohash prefix ranges
(:mod:`~repro.controlplane.sharding`), routes heartbeats to owning
shards and fans discovery out with a deterministic cross-shard TopN
merge (:mod:`~repro.controlplane.router`), and keeps each shard alive
through primary/standby replication with promotion on primary loss
(:mod:`~repro.controlplane.replication`). In the simulator there is
one manager, :class:`repro.core.manager.CentralManager`, which steps
``shards x replicas`` machines inside the kernel at every shape, 1x1
(the default) included; :mod:`~repro.controlplane.live_driver`
generalizes the loopback ``ManagerServer`` into a shard fleet behind a
routing proxy.

The determinism contract: for any shard count the merged discovery
answer is bit-identical to a single machine holding the union registry
(a parity property test holds this), and at 1x1 the run is the seed's
byte for byte (the LO golden trace and the parity suites hold this).
"""

from repro.controlplane.errors import ControlPlaneUnavailable
from repro.controlplane.router import PartialSelection, RoutedSelection, ShardRouter
from repro.controlplane.sharding import DEFAULT_SHARD_PRECISION, ShardMap

__all__ = [
    "ControlPlaneUnavailable",
    "DEFAULT_SHARD_PRECISION",
    "PartialSelection",
    "RoutedSelection",
    "ShardMap",
    "ShardRouter",
]
