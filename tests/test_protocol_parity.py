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

import pytest

from repro.api import ScenarioBuilder
from repro.core.config import SystemConfig
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


def scenario() -> ScenarioBuilder:
    """The scripted deployment; its :meth:`~ScenarioBuilder.world` is
    what both backends run."""
    builder = ScenarioBuilder(SystemConfig(top_n=3, seed=11)).observe(trace=True)
    for node_id, point in NODES:
        builder = builder.node(node_id, profile_by_name(node_id), point=point)
    return builder.client("u1", point=CLIENT_POINT)


# ----------------------------------------------------------------------
# The scenario on the simulated backend
# ----------------------------------------------------------------------
def run_sim() -> DecisionTrace:
    built = scenario().build_scenario()
    system, tracer = built.system, built.tracer
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
# The same world on the live loopback backend
# ----------------------------------------------------------------------
async def run_live() -> DecisionTrace:
    from repro.runtime.launcher import LocalCluster

    tracer = Tracer(enabled=True)
    cluster = LocalCluster(
        scenario().world(),
        heartbeat_period_s=0.05,
        # Mild compression only: sleeping a 24 ms frame for 12 ms keeps
        # scheduler jitter (<~2 ms wall -> <~4 ms app) far below the 8+ ms
        # what-if gaps between the profiles.
        time_scale=0.5,
        top_n=3,
        tracer=tracer,
    )
    await cluster.start()
    try:
        # every edge's start() returned registered
        assert sorted(cluster.manager._registry) == sorted(n for n, _ in NODES)
        client = cluster.clients[0]
        await client.select_and_join()
        assert client.current_edge is not None
        backups = list(client.backups)

        await cluster.kill_edge(client.current_edge)
        await client.offload_frame()  # lost frame -> covered failover
    finally:
        await cluster.stop()
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


# ----------------------------------------------------------------------
# Test-workload coalescing, the same on both backends
# ----------------------------------------------------------------------
def coalesced_invocations_sim() -> tuple:
    """Three ``Unexpected_join``\\ s at one instant on a sim node."""
    node_id, point = NODES[0]
    built = (
        ScenarioBuilder(SystemConfig(seed=11))
        .observe(trace=True)
        .node(node_id, profile_by_name(node_id), point=point)
        .build_scenario()
    )
    system, tracer = built.system, built.tracer
    node = system.nodes[node_id]
    service_ms = node.profile.base_frame_ms
    system.run_for(2 * service_ms)  # the priming run has finished
    before = node.test_workload_invocations
    for user_id in ("a", "b", "c"):
        assert node.unexpected_join(user_id, fps=20.0).accepted
    started = node.test_workload_invocations
    invoked = len(tracer.events("test_workload_invoked"))
    system.run_for(2 * service_ms)  # and the triggered one
    return before, started, invoked, node.test_workload_invocations


async def coalesced_invocations_live() -> tuple:
    """Three concurrent ``unexpected_join`` requests to a live node, on
    links opened beforehand so the requests land together."""
    from repro.runtime import LiveEdgeServer, protocol

    tracer = Tracer(enabled=True)
    # time_scale 2: the synthetic frame is in service for 48 ms
    edge = LiveEdgeServer(
        "V1", profile_by_name("V1"), NODES[0][1], time_scale=2.0, tracer=tracer
    )
    await edge.start()  # returns with the priming run finished
    links = [protocol.PersistentConnection(edge.host, edge.port) for _ in range(3)]
    try:
        for link in links:
            await link.request("rtt_probe")
        before = edge.test_workload_invocations
        replies = await asyncio.gather(*(
            link.request("unexpected_join", {"user_id": user_id})
            for link, user_id in zip(links, ("a", "b", "c"))
        ))
        assert all(reply["accepted"] for reply in replies)
        started = edge.test_workload_invocations
        invoked = len(tracer.events("test_workload_invoked"))
        deadline = asyncio.get_running_loop().time() + 2.0
        while edge._queue_depth:  # the synthetic frame still in service
            assert asyncio.get_running_loop().time() < deadline
            await asyncio.sleep(0.001)
        return before, started, invoked, edge.test_workload_invocations
    finally:
        for link in links:
            await link.close()
        await edge.stop()


@pytest.mark.parametrize("backend", ["sim", "live"])
def test_concurrent_triggers_start_one_test_workload(backend):
    """A trigger that arrives while a test-workload run is in flight is
    satisfied by that run: three unrejectable joins at once start one
    synthetic frame, counted and traced when it is admitted."""
    if backend == "sim":
        before, started, invoked, after = coalesced_invocations_sim()
    else:
        before, started, invoked, after = asyncio.run(coalesced_invocations_live())
    assert before == 1  # the priming run
    assert started == after == before + 1
    assert invoked == started


# ----------------------------------------------------------------------
# The join-triggered test-workload delay, the same on both backends
# ----------------------------------------------------------------------
@pytest.mark.parametrize("time_scale", [0.01, 0.1, 2.0])
def test_join_triggered_test_workload_waits_the_same_model_time(time_scale):
    """Algorithm 1's "two times the common user RTT propagation": the
    live edge scales the sim edge's delay like its frame service, and
    nothing else."""
    from repro.runtime import LiveEdgeServer

    node_id, point = NODES[0]
    system = (
        ScenarioBuilder(SystemConfig(seed=11))
        .node(node_id, profile_by_name(node_id), point=point)
        .build()
    )
    live = LiveEdgeServer(
        node_id, profile_by_name(node_id), point, time_scale=time_scale
    )
    sim_delay_ms = system.nodes[node_id]._test_delay_ms
    assert sim_delay_ms == 40.0
    assert live._test_delay_ms / time_scale == pytest.approx(sim_delay_ms)
