"""Differential parity: the same scripted scenario through the simulated
and the live (loopback TCP) backends must yield the same protocol-level
decisions.

Both backends are thin drivers over the sans-IO machines in
``repro.protocol``; what differs is the I/O fabric (virtual-time method
calls vs real asyncio sockets) and therefore the *measurements* (RTTs,
what-if noise). The scripted scenario — three well-separated Table II
volunteers, one client joining, the serving node hard-killed, one
covered failover — is built so measurement noise cannot flip any
ranking, which makes every decision comparable exactly:

- the manager's candidate ranking (``DiscoveryReturned``),
- the chosen edge (``JoinAccept``),
- the adopted backup list,
- the failover target (``CoveredFailover``).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import List, Tuple

from repro.geo.point import GeoPoint
from repro.nodes.hardware import profile_by_name
from repro.obs.events import CoveredFailover, DiscoveryReturned, JoinAccept
from repro.obs.tracer import Tracer

# Well-separated capacities (V1: 83 fps, V2: 62 fps, V5: 20 fps) and
# what-if delays (24/32/49 ms) so both the manager's availability
# ranking and the client's GO ranking are unambiguous on both backends.
NODES: List[Tuple[str, GeoPoint]] = [
    ("V1", GeoPoint(44.980, -93.260)),
    ("V2", GeoPoint(44.950, -93.200)),
    ("V5", GeoPoint(44.900, -93.100)),
]
CLIENT_POINT = GeoPoint(44.970, -93.250)


@dataclass
class DecisionTrace:
    """The protocol-level decisions extracted from one backend's run."""

    candidates: Tuple[str, ...]
    chosen: str
    backups: List[str]
    failover_target: str


def _extract(events, backups: List[str]) -> DecisionTrace:
    discovery = next(e for e in events if isinstance(e, DiscoveryReturned))
    join = next(e for e in events if isinstance(e, JoinAccept))
    failover = next(e for e in events if isinstance(e, CoveredFailover))
    return DecisionTrace(
        candidates=tuple(discovery.candidates),
        chosen=join.node_id,
        backups=backups,
        failover_target=failover.node_id,
    )


# ----------------------------------------------------------------------
# The scenario on the simulated backend
# ----------------------------------------------------------------------
def run_sim() -> DecisionTrace:
    from repro.api import ScenarioBuilder
    from repro.core.config import SystemConfig

    builder = (
        ScenarioBuilder(SystemConfig(top_n=3, seed=11))
        .observe(trace=True)
    )
    for node_id, point in NODES:
        builder = builder.node(node_id, profile_by_name(node_id), point=point)
    scenario = builder.client("u1", point=CLIENT_POINT).build_scenario()
    system, tracer = scenario.system, scenario.tracer
    assert tracer is not None

    # Run until the client has joined somewhere.
    for _ in range(100):
        system.run_for(100.0)
        if system.clients["u1"].current_edge is not None:
            break
    client = system.clients["u1"]
    assert client.current_edge is not None
    backups = list(client.failure_monitor.backups)

    # Hard-kill the serving node: the next frame send fails, the client
    # walks its backups (covered failover).
    system.fail_node(client.current_edge)
    for _ in range(100):
        system.run_for(100.0)
        if any(isinstance(e, CoveredFailover) for e in tracer.events()):
            break
    tracer.close()
    return _extract(tracer.events(), backups)


# ----------------------------------------------------------------------
# The same scenario on the live loopback backend
# ----------------------------------------------------------------------
async def run_live() -> DecisionTrace:
    from repro.runtime.client_runtime import LiveClient
    from repro.runtime.edge_server import LiveEdgeServer
    from repro.runtime.manager_server import ManagerServer

    tracer = Tracer(enabled=True)
    manager = ManagerServer(tracer=tracer)
    await manager.start()
    edges = []
    client = None
    try:
        for node_id, point in NODES:
            edge = LiveEdgeServer(
                node_id,
                profile_by_name(node_id),
                point,
                manager_host=manager.host,
                manager_port=manager.port,
                heartbeat_period_s=0.05,
                # Mild compression only: sleeping a 24 ms frame for 12 ms
                # keeps scheduler jitter (<~2 ms wall -> <~4 ms app) far
                # below the 8+ ms what-if gaps between the profiles.
                time_scale=0.5,
                tracer=tracer,
            )
            await edge.start()
            edges.append(edge)
        # every edge's start() returned registered
        assert sorted(manager._registry) == sorted(node_id for node_id, _ in NODES)

        client = LiveClient(
            "u1",
            CLIENT_POINT,
            manager.host,
            manager.port,
            top_n=3,
            tracer=tracer,
        )
        await client.select_and_join()
        assert client.current_edge is not None
        backups = list(client.backups)

        serving = next(e for e in edges if e.node_id == client.current_edge)
        await serving.stop()
        await client.offload_frame()  # lost frame -> covered failover
    finally:
        if client is not None:
            await client.close()
        for edge in edges:
            await edge.stop()
        await manager.stop()
    tracer.close()
    return _extract(tracer.events(), backups)


# ----------------------------------------------------------------------
def test_sim_and_live_decision_traces_match():
    sim = run_sim()
    live = asyncio.run(run_live())

    assert sim.candidates == live.candidates
    assert sim.chosen == live.chosen
    assert sim.backups == live.backups
    assert sim.failover_target == live.failover_target

    # And the decisions themselves are the expected ones, so a matching
    # regression on both backends cannot slip through as "parity".
    assert sim.chosen == "V1"
    assert sim.backups == ["V2", "V5"]
    assert sim.failover_target == "V2"
