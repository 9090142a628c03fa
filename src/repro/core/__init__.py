"""The paper's primary contribution: client-centric distributed edge selection.

The pieces map one-to-one onto Fig. 2 of the paper:

- :class:`~repro.core.manager.CentralManager` — collects node status and
  answers edge-discovery queries with a TopN *candidate edge list*
  (step 1: global edge selection).
- :class:`~repro.core.edge_server.EdgeServer` — an edge node running the
  application server; exposes the probing APIs of Table I
  (``RTT_probe``, ``Process_probe``, ``Join``, ``Unexpected_join``,
  ``Leave``), maintains the "what-if" cache, the ``seqNum`` join
  synchronization (Algorithm 1) and the performance monitor.
- :class:`~repro.core.client.EdgeClient` — the user side: the
  performance-probing procedure of Algorithm 2, local edge selection
  (LO / GO policies in :mod:`repro.policy`), the offloading loop,
  and the failure monitor with proactive backup connections.
- :class:`~repro.core.system.EdgeSystem` — wiring: the simulator, the
  network topology, and the live registry of nodes and clients; also the
  hook point for churn injection.

``EdgeClient`` and ``EdgeServer`` are the simulation backends of the
protocol drivers (:mod:`repro.protocol.driver`), which interpret the
machines' effects for this package and ``repro.runtime`` alike; they add
only the kernel clock, RTT sampling, fault verdicts, the frame queue and
the per-frame path. The messages (:mod:`repro.messages`), the policies
(:mod:`repro.policy`) and the protocol machines and drivers
(:mod:`repro.protocol`) all sit below this package and import nothing
from it.
"""

from repro.core.client import ClientStats, EdgeClient
from repro.core.config import SystemConfig
from repro.core.edge_server import EdgeServer, NodeState
from repro.core.manager import CentralManager
from repro.core.system import EdgeSystem

__all__ = [
    "SystemConfig",
    "EdgeSystem",
    "CentralManager",
    "EdgeServer",
    "NodeState",
    "EdgeClient",
    "ClientStats",
]
