"""Canonical traced scenarios, shared by the ``repro trace`` CLI and the
golden-schema tests.

Both runners stage the same story — a small volunteer fleet, attached
users offloading AR frames, one node failure mid-run, a covered
failover — once on the discrete-event simulator and once on the live
asyncio TCP runtime. Because every component reports through the same
:class:`~repro.obs.tracer.Tracer` event schema, the two traces are
directly comparable: same event types, same ordering rules, same
phase-breakdown arithmetic.
"""

from __future__ import annotations

import asyncio
from pathlib import Path
from typing import List, Union

from repro.geo.point import GeoPoint
from repro.net.topology import EndpointSpec
from repro.nodes.hardware import profile_by_name
from repro.obs.events import TraceEvent
from repro.obs.tracer import Tracer
from repro.world import World, WorldNode, WorldUser

#: The story's deployment, run by both backends: three Table II
#: volunteers (V1, V2, V5) and two AR users at fixed points.
TRACE_WORLD = World(
    nodes=tuple(
        WorldNode(name, profile_by_name(name), EndpointSpec(point))
        for name, point in (
            ("V1", GeoPoint(44.980, -93.260)),
            ("V2", GeoPoint(44.950, -93.200)),
            ("V5", GeoPoint(44.900, -93.100)),
        )
    ),
    users=(
        WorldUser("u1", EndpointSpec(GeoPoint(44.970, -93.250))),
        WorldUser("u2", EndpointSpec(GeoPoint(44.930, -93.180))),
    ),
)


def run_sim_trace_scenario(
    seed: int = 7,
    sink_path: Union[None, str, Path] = None,
    duration_ms: float = 20_000.0,
) -> List[TraceEvent]:
    """:data:`TRACE_WORLD` on the simulator, traced, with a mid-run
    node failure.

    Both users run an AR client; halfway through, the node serving
    ``u1`` is killed so the trace contains a failover. Returns the
    captured events (also streamed to ``sink_path`` as JSONL when given).
    """
    from repro.core.client import EdgeClient
    from repro.core.config import SystemConfig
    from repro.core.system import EdgeSystem

    tracer = Tracer(enabled=True, sink=sink_path)
    config = SystemConfig(top_n=2, seed=seed)
    system = EdgeSystem(config, world=TRACE_WORLD, trace=tracer)
    for user_id in TRACE_WORLD.user_ids:
        system.add_client(EdgeClient(system, user_id))
    system.run_for(duration_ms / 2)
    victim = system.clients["u1"].current_edge
    if victim is not None:
        system.fail_node(victim)
    system.run_for(duration_ms / 2)
    tracer.close()
    return tracer.events()


async def run_live_trace_scenario(
    sink_path: Union[None, str, Path] = None,
    frames: int = 6,
) -> List[TraceEvent]:
    """The same story over the same world on the live runtime: a
    loopback cluster, ``u1`` offloading real frames, the serving edge
    hard-killed mid-stream to force a covered failover."""
    from repro.runtime.launcher import LocalCluster

    tracer = Tracer(enabled=True, sink=sink_path)
    cluster = LocalCluster(
        TRACE_WORLD,
        time_scale=0.01,
        heartbeat_period_s=0.05,
        tracer=tracer,
    )
    await cluster.start()
    try:
        client = cluster.clients[0]
        chosen = await client.select_and_join()
        for _ in range(max(1, frames // 2)):
            await client.offload_frame()
        await cluster.kill_edge(chosen)
        await client.offload_frame()  # lost frame -> covered failover
        for _ in range(max(1, frames - frames // 2)):
            await client.offload_frame()
    finally:
        await cluster.stop()
    tracer.close()
    return tracer.events()


def run_live_trace_scenario_sync(
    sink_path: Union[None, str, Path] = None,
    frames: int = 6,
) -> List[TraceEvent]:
    """Blocking wrapper for non-async callers (the CLI)."""
    return asyncio.run(run_live_trace_scenario(sink_path, frames))
