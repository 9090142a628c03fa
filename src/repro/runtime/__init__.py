"""Live runtime: the same protocol over real TCP sockets.

The simulation backend answers the paper's *performance* questions; this
package demonstrates that the protocol itself — discovery, probing with
``seqNum`` synchronization, join/leave, what-if caching, heartbeats,
failover — runs unchanged over a real transport. It is a faithful port,
not a second implementation: messages are the dataclasses of
:mod:`repro.messages` serialized with ``to_wire``/``from_wire`` as
newline-delimited JSON.

- :mod:`~repro.runtime.protocol` — framing + request/response helpers.
- :class:`~repro.runtime.manager_server.ManagerServer` — Central
  Manager: registry, heartbeat ingestion, discovery queries.
- :class:`~repro.runtime.edge_server.LiveEdgeServer` — an edge node:
  Table I APIs plus a ``frame`` endpoint whose processing time is a
  scaled-down sleep derived from the node's hardware profile.
- :class:`~repro.runtime.client_runtime.LiveClient` — probing loop,
  local selection and frame offloading against real servers.
- :class:`~repro.runtime.launcher.LocalCluster` — spin up a manager +
  edge fleet + clients on localhost ports for demos and tests.

Everything binds to 127.0.0.1 and is intended for local experimentation.
"""

from repro.runtime.client_runtime import LiveClient
from repro.runtime.edge_server import LiveEdgeServer
from repro.runtime.launcher import LocalCluster
from repro.runtime.manager_server import ManagerServer

__all__ = ["ManagerServer", "LiveEdgeServer", "LiveClient", "LocalCluster"]
