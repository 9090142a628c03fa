"""A status or a query the manager cannot use changes nothing and is refused.

A heartbeat whose geohash the spatial index cannot key (too short to be
a position, or not a geohash at all) used to be written to the registry
*before* the index raised: the entry had no stamp, so it never expired,
and no cell, so no discovery ever found it. Over the wire the exception
escaped the connection handler — ``Unhandled exception in
client_connected_cb`` on the ``asyncio`` logger, a hang-up for the peer
— and ``status`` listed the node for good. A ``discover`` with
coordinates off the globe died the same way. These tests hold the
machine to "all or nothing" and both servers to an ``ok: false`` reply
on a connection that stays up.
"""

from __future__ import annotations

import asyncio
import logging
import math
from dataclasses import replace

import pytest

from repro.controlplane.live_driver import ControlPlaneCluster
from repro.geo.geohash import encode
from repro.messages import DiscoveryQuery, NodeStatus, from_wire, to_wire
from repro.policy.global_policy import GeoProximityFilter, GlobalSelectionPolicy
from repro.protocol.events import DiscoveryRequested, HeartbeatReceived, PruneTick
from repro.protocol.global_select import GlobalSelectionMachine
from repro.runtime import ManagerServer, protocol

LAT, LON = 44.97, -93.25

#: Too short for a position, empty, a letter outside the alphabet, not
#: a geohash character at all, upper case.
BAD_GEOHASHES = ["9zv", "", "9zvxai000", "9zvx!g", "9ZVXGKQ2M"]


def status(node_id: str = "edge-0", **changes) -> NodeStatus:
    base = NodeStatus(
        node_id=node_id,
        lat=LAT,
        lon=LON,
        geohash=encode(LAT, LON, precision=9),
        cores=4,
        capacity_fps=30.0,
        attached_users=0,
        utilization=0.2,
    )
    return replace(base, **changes)


def machine() -> GlobalSelectionMachine:
    policy = GlobalSelectionPolicy(
        geo_filter=GeoProximityFilter(radius_km=5.0, wide_radius_km=50.0)
    )
    return GlobalSelectionMachine(policy, heartbeat_timeout=3.0)


def query(lat: float = LAT, lon: float = LON) -> DiscoveryQuery:
    return DiscoveryQuery(user_id="u", lat=lat, lon=lon, top_n=3)


# ----------------------------------------------------------------------
# The machine: a refused heartbeat is no heartbeat
# ----------------------------------------------------------------------
@pytest.mark.parametrize("geohash", BAD_GEOHASHES)
def test_refused_heartbeat_leaves_no_trace_in_the_machine(geohash):
    m = machine()
    with pytest.raises(ValueError):
        m.handle(HeartbeatReceived(stamp=0.0, status=status(geohash=geohash)))
    assert m.registry == {} and m._stamps == {} and m._expiry_heap == []
    assert len(m.spatial_index) == 0 and m.snapshot_state().statuses == ()
    # ... and nothing lingers: it cannot be listed, found or expired.
    (reply,) = m.handle(DiscoveryRequested(now=0.0, stamp=0.0, query=query()))
    assert reply.node_ids == ()
    assert m.handle(PruneTick(stamp=1e9)) == []


@pytest.mark.parametrize("geohash", BAD_GEOHASHES)
def test_refused_refresh_keeps_the_node_as_it_was(geohash):
    m = machine()
    good = status()
    m.handle(HeartbeatReceived(stamp=1.0, status=good))
    with pytest.raises(ValueError):
        m.handle(HeartbeatReceived(stamp=2.0, status=replace(good, geohash=geohash, utilization=0.9)))
    assert m.registry == {"edge-0": good} and m._stamps == {"edge-0": 1.0}
    (reply,) = m.handle(DiscoveryRequested(now=0.0, stamp=2.0, query=query()))
    assert reply.node_ids == ("edge-0",)
    # It still expires by the stamp of the heartbeat that was accepted.
    (expired,) = m.handle(PruneTick(stamp=4.5))
    assert expired.node_id == "edge-0" and m.registry == {}


def test_upper_case_geohash_is_discoverable_on_neither_path():
    """The linear reference compares prefixes with the cover's
    lower-case cells, so an upper-case hash never matched there; the
    index parses letters in either case and *would* find it. One answer
    for both: it is not a canonical geohash, and the index refuses it."""
    m = machine()
    shouting = status("loud", geohash=encode(LAT, LON, precision=9).upper())
    m.handle(HeartbeatReceived(stamp=0.0, status=status("quiet")))
    with pytest.raises(ValueError, match="lower-case"):
        m.handle(HeartbeatReceived(stamp=0.0, status=shouting))
    assert m.registry.keys() == {"quiet"}
    indexed = m.policy.select(query(), index=m.spatial_index)
    linear = m.policy.select(query(), nodes=[*m.registry.values(), shouting])
    assert indexed == linear == (["quiet"], False)


#: The float fields the wire holds finite, in declaration order.
FINITE_FIELDS = ("lat", "lon", "capacity_fps", "utilization", "reported_at_ms")
NOT_FINITE = (math.nan, math.inf, -math.inf)
#: One field or two not finite (the first in declaration order is named),
#: and the all-finite status both take.
CHANGES = [{}] + [
    {name: value} for name in FINITE_FIELDS for value in NOT_FINITE
] + [
    {a: math.nan, b: -math.inf}
    for i, a in enumerate(FINITE_FIELDS) for b in FINITE_FIELDS[i + 1 :]
]


def refusal(call, *args):
    try:
        call(*args)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("changes", CHANGES, ids=repr)
def test_the_machine_refuses_the_statuses_the_wire_refuses_alike(changes):
    """A status with a position, capacity, utilization or report time
    that is not finite ranks or expires as no status the wire lets in
    (``utilization=-inf`` is infinite availability). The machine refuses
    it with the wire's own words, and a refused refresh changes nothing."""
    m = machine()
    good = status()
    m.handle(HeartbeatReceived(stamp=1.0, status=good))
    changed = replace(good, **changes)
    on_wire = refusal(from_wire, to_wire(changed), NodeStatus)
    in_machine = refusal(m.handle, HeartbeatReceived(stamp=2.0, status=changed))
    assert in_machine == on_wire
    assert (on_wire is None) == (not changes)
    if on_wire is not None:
        assert m.registry == {"edge-0": good} and m._stamps == {"edge-0": 1.0}
        assert len(m.spatial_index) == 1 and len(m._expiry_heap) == 1
    new = refusal(machine().handle, HeartbeatReceived(stamp=0.0, status=changed))
    assert new == on_wire


# ----------------------------------------------------------------------
# The wire: ok false, the link stays up, the asyncio logger stays quiet
# ----------------------------------------------------------------------
def heartbeat_payload(node: NodeStatus) -> dict:
    return {"status": to_wire(node), "host": "127.0.0.1", "port": 9000}


def query_payload(lat: float, lon: float) -> dict:
    # Built by hand: to_wire(DiscoveryQuery(...)) is what a sane client
    # sends, and this is about the other kind.
    wire = to_wire(query())
    wire["payload"].update(lat=lat, lon=lon)
    return {"query": wire}


UNUSABLE_QUERIES = [(math.nan, LON), (LAT, math.nan), (91.0, LON), (LAT, -180.5), (math.inf, LON), ("44.97", LON)]

#: A TopN that is not a count of at least one (ranking compares it with
#: an array size; 0 and -1 would be answered with an empty list), and an
#: exclude list that is not a list of node ids.
UNUSABLE_TOP_N = ["3", 2.5, None, True, 0, -1]
UNUSABLE_EXCLUDES = [5, None, "edge-0", [["edge-0"]], [7]]


def edited(wire: dict, drop: str = "", **fields) -> dict:
    """A wire message with payload fields overwritten, added or dropped
    — the dataclass itself would not hold some of these."""
    payload = {**wire["payload"], **fields}
    payload.pop(drop, None)
    return {"type": wire["type"], "payload": payload}


#: Heartbeats that are not a status with a position and an address: a
#: field missing or unknown, a geohash or a coordinate of the wrong
#: type (the index would key None never, and "44.97" only until the
#: next query computes with it), NaN, no status, no address.
UNUSABLE_HEARTBEATS = [
    {**heartbeat_payload(status("bad")), "status": wire}
    for wire in (
        edited(to_wire(status("bad")), drop="cores"),
        edited(to_wire(status("bad")), colour="red"),
        edited(to_wire(status("bad")), geohash=None),
        edited(to_wire(status("bad")), geohash=9),
        edited(to_wire(status("bad")), lat="44.97"),
        edited(to_wire(status("bad")), lon=None),
        edited(to_wire(status("bad")), lat=math.nan),
        {"type": ["NodeStatus"], "payload": {}},
        None,
    )
] + [
    {"host": "127.0.0.1", "port": 9000},
    {"status": to_wire(status("bad")), "port": 9000},
    {"status": to_wire(status("bad")), "host": "127.0.0.1"},
]


async def exercise(host: str, port: int) -> None:
    """The same conversation against either server, over ONE connection:
    every refusal must leave the link usable for the next request."""
    link = protocol.PersistentConnection(host, port)
    try:
        for geohash in BAD_GEOHASHES:
            reply = await link.request("heartbeat", heartbeat_payload(status("bad", geohash=geohash)), 2.0)
            assert reply["ok"] is False and reply["error"]
        for payload in UNUSABLE_HEARTBEATS:
            reply = await link.request("heartbeat", payload, 2.0)
            assert reply["ok"] is False and reply["error"]
        listing = await link.request("status", {}, 2.0)
        assert listing["nodes"] == [] and listing["heartbeats_received"] == 0

        assert (await link.request("heartbeat", heartbeat_payload(status()), 2.0))["ok"] is True
        # A known node that starts talking nonsense stays where it was.
        reply = await link.request("heartbeat", heartbeat_payload(status(geohash="9zv")), 2.0)
        assert reply["ok"] is False
        assert (await link.request("status", {}, 2.0))["nodes"] == ["edge-0"]

        for lat, lon in UNUSABLE_QUERIES:
            reply = await link.request("discover", query_payload(lat, lon), 2.0)
            assert reply["ok"] is False and reply["error"]
        for payload in (
            {"query": to_wire(status())},
            {"query": {"type": "Nope", "payload": {}}},
            {"query": edited(to_wire(query()), drop="top_n")},
            {"query": edited(to_wire(query()), colour="red")},
            {},
            *({"query": edited(to_wire(query()), top_n=top_n)} for top_n in UNUSABLE_TOP_N),
            *({"query": edited(to_wire(query()), exclude=exclude)} for exclude in UNUSABLE_EXCLUDES),
        ):
            assert (await link.request("discover", payload, 2.0))["ok"] is False
        assert (await link.request("heartbeat", {"status": to_wire(query())}, 2.0))["ok"] is False

        found = await link.request("discover", query_payload(LAT, LON), 2.0)
        assert found["ok"] is True and found["candidates"]["payload"]["node_ids"] == ["edge-0"]
    finally:
        await link.close()


def test_manager_server_refuses_unusable_input_and_keeps_serving(caplog):
    async def scenario():
        server = ManagerServer()
        await server.start()
        try:
            await exercise(server.host, server.port)
            assert server._registry.keys() == {"edge-0"}
            assert server._addresses.keys() == {"edge-0"}
        finally:
            await server.stop()

    with caplog.at_level(logging.DEBUG, logger="asyncio"):
        asyncio.run(scenario())
    assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []


def test_router_server_refuses_unusable_input_and_keeps_serving(caplog):
    async def scenario():
        cluster = ControlPlaneCluster(shards=2, replicas=2)
        await cluster.start()
        try:
            await exercise(*cluster.address)
            # "9zvx" has an owner in the shard map but no cell in the
            # owner's index: the shard refuses, the router passes it on.
            reply = await protocol.request(
                *cluster.address, "heartbeat", heartbeat_payload(status("coarse", geohash="9zvx"))
            )
            assert reply["ok"] is False and "coarser" in reply["error"]
            assert cluster.router._addresses.keys() == {"edge-0"}
            for replicas in cluster.managers:
                for manager in replicas:
                    assert manager._registry.keys() <= {"edge-0"}
            assert [m.alive_replicas() for m in cluster.router.shards] == [[0, 1], [0, 1]]
        finally:
            await cluster.stop()

    with caplog.at_level(logging.DEBUG, logger="asyncio"):
        asyncio.run(scenario())
    assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []
