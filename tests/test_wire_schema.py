"""The wire schema, held from both ends by generated hostile input.

Every wire message's fields come from one table
(``repro.messages._WIRE_FIELDS``, resolved from the dataclass
annotations). From that table this file derives a hypothesis strategy
per wire type and, for any message, the list of its one-rule mutants: a
wrong type, a bool for a number, NaN or ±inf, a position off the globe,
a value below its range, a field missing or unknown, a string where a
list belongs, a payload or a message that is not an object.

- ``from_wire`` refuses every mutant with ``ValueError`` and nothing else.
- ``ManagerServer`` and a 2×2 ``ControlPlaneCluster`` answer a seeded
  batch of them ``ok: false`` on the one link they arrived on, which
  stays up, with the ``asyncio`` logger quiet; so do the ops that read
  raw fields (``discover_partial``, ``restore``, the edge's ``join`` /
  ``unexpected_join`` / ``leave`` / ``frame``).
- A ``LiveClient`` reads a refused probe reply as a failed probe on a
  kept link, and a refused or undecodable discover reply as a failed
  discovery.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import logging
import math
import random
from typing import Any, Callable, Dict, List, Optional, Tuple

import pytest
from hypothesis import given, strategies as st

from repro.controlplane.live_driver import ControlPlaneCluster
from repro.geo.geohash import encode
from repro.geo.point import GeoPoint
from repro.messages import (
    _MESSAGE_TYPES,
    _WIRE_FIELDS,
    CandidateList,
    DiscoveryQuery,
    NodeStatus,
    ProbeReply,
    WireField,
    field_reader,
    from_wire,
    read_field,
    to_wire,
)
from repro.nodes.hardware import profile_by_name
from repro.protocol.events import DiscoveryFailed
from repro.runtime import LiveClient, LiveEdgeServer, ManagerServer, protocol

LAT, LON = 44.97, -93.25
WIRE_TYPES = sorted(_MESSAGE_TYPES.values(), key=lambda cls: cls.__name__)
#: The position rule as a range a strategy can draw from (the schema
#: checks it by building a GeoPoint).
GLOBE = {"lat": 90.0, "lon": 180.0}


def bound(field: WireField):
    """The field's minimum, when its rule is one."""
    return field.rule if type(field.rule) is int else None


def json_shaped(value: Any) -> Any:
    return json.loads(json.dumps(value))


# ----------------------------------------------------------------------
# Strategies and mutants, derived from the schema table
# ----------------------------------------------------------------------
def valid_values(field: WireField) -> st.SearchStrategy:
    kind, low = field.kind, bound(field)
    if kind is str:
        values = st.text(max_size=12)
    elif kind is bool:
        values = st.booleans()
    elif kind is int:
        values = st.integers(min_value=-(2**63) if low is None else low, max_value=2**63 - 1)
    elif kind is float:
        limit = GLOBE.get(field.name)
        values = st.floats(
            min_value=-limit if limit else low, max_value=limit,
            allow_nan=False, allow_infinity=False,
        )
    else:
        assert kind == Tuple[str, ...], kind
        values = st.lists(st.text(max_size=8), max_size=4).map(tuple)
    return st.none() | values if field.optional else values


def messages(cls: type) -> st.SearchStrategy:
    schema = _WIRE_FIELDS[cls].values()
    return st.fixed_dictionaries(
        {f.name: valid_values(f) for f in schema if f.required},
        optional={f.name: valid_values(f) for f in schema if not f.required},
    ).map(lambda values: cls(**values))


def bad_values(field: WireField) -> List[Tuple[str, Any]]:
    """Values that break exactly one rule of ``field``, labelled."""
    kind, low = field.kind, bound(field)
    if kind is str:
        bad = [("wrong type", v) for v in (7, 1.5, True, ["x"], {"x": 1})]
    elif kind is bool:
        bad = [("wrong type", v) for v in (0, 1, "true", [True])]
    elif kind in (int, float):
        bad = [("wrong type", v) for v in ("3", [3], {"n": 3})]
        bad += [("bool for a number", v) for v in (True, False)]
        if kind is int:
            bad += [("wrong type", v) for v in (2.5, 3.0)] + [("out of range", 2**64)]
        else:
            bad += [("not finite", v) for v in (math.nan, math.inf, -math.inf)]
        if field.name in GLOBE:
            limit = GLOBE[field.name]
            bad += [("off the globe", v) for v in (limit + 0.5, -limit - 0.5, 1e9)]
        if low is not None:
            bad += [("out of range", low - 1)]
            if kind is float:
                bad += [("out of range", low - 1e-9)]
    else:
        bad = [("string for a list", "abc")]
        bad += [("wrong type", v) for v in (5, {"a": "b"}, [1], [["a"]], [None])]
    if not field.optional:
        bad.append(("wrong type", None))
    return bad


def mutations(wire: Dict[str, Any]) -> List[Tuple[str, Any]]:
    """Every one-rule breakage of one valid wire message, labelled."""
    type_name, payload = wire["type"], wire["payload"]
    out: List[Tuple[str, Any]] = []
    for field in _WIRE_FIELDS[_MESSAGE_TYPES[type_name]].values():
        out += [
            (f"{label}: {field.name}={value!r}",
             {"type": type_name, "payload": {**payload, field.name: value}})
            for label, value in bad_values(field)
        ]
        if field.required:
            rest = {k: v for k, v in payload.items() if k != field.name}
            out.append((f"missing {field.name}", {"type": type_name, "payload": rest}))
    out.append(("unknown field", {"type": type_name, "payload": {**payload, "colour": "red"}}))
    out += [(f"payload {p!r}", {"type": type_name, "payload": p}) for p in (None, 5, "x", [payload])]
    out += [(f"type {t!r}", {"type": t, "payload": payload}) for t in (None, 5, ["NodeStatus"], "Nope")]
    out += [(f"message {m!r}", m) for m in (None, 5, type_name, [wire])]
    return out


# ----------------------------------------------------------------------
# from_wire
# ----------------------------------------------------------------------
any_message = st.sampled_from(WIRE_TYPES).flatmap(messages)


@given(any_message)
def test_every_valid_message_round_trips_through_json(message):
    assert from_wire(json_shaped(to_wire(message))) == message
    assert from_wire(json_shaped(to_wire(message)), type(message)) == message


@given(st.data())
def test_every_mutant_is_refused_with_value_error_and_nothing_else(data):
    message = data.draw(any_message)
    label, mutant = data.draw(st.sampled_from(mutations(to_wire(message))))
    for expected in (None, type(message)):
        with pytest.raises(ValueError):
            from_wire(json_shaped(mutant), expected)


def test_a_message_of_another_type_is_refused_where_one_type_is_expected():
    wire = to_wire(CandidateList("u", ("a",)))
    assert from_wire(wire) == CandidateList("u", ("a",))
    with pytest.raises(ValueError, match="expected a ProbeReply"):
        from_wire(wire, ProbeReply)


def test_an_int_is_a_float_a_bool_is_not_and_lists_come_back_as_tuples():
    wire = to_wire(DiscoveryQuery("u", 45.0, -93.0, 3, exclude=("a", "b")))
    wire["payload"].update(lat=45, lon=-93)
    decoded = from_wire(json_shaped(wire))
    assert (decoded.lat, decoded.lon, decoded.exclude) == (45.0, -93.0, ("a", "b"))
    assert type(decoded.lat) is float and type(decoded.exclude) is tuple
    wire["payload"]["lat"] = True
    with pytest.raises(ValueError, match="lat"):
        from_wire(wire)


def test_read_field_holds_an_op_argument_to_the_same_rules():
    payload = {"user_id": "u", "fps": 20, "top_n": 0, "port": 9000}
    assert read_field(payload, "user_id", str) == "u"
    assert read_field(payload, "fps", float) == 20.0
    assert read_field(payload, "seq_num", int, 0) == 0
    for name, kind in (("user_id", int), ("fps", bool), ("top_n", int), ("seq_num", int)):
        with pytest.raises(ValueError, match=name):
            read_field(payload, name, kind)


def test_a_field_reader_answers_and_refuses_as_read_field_does():
    def outcome(read):
        try:
            return read()
        except ValueError as exc:
            return f"refused: {exc}"

    cases = [("user_id", Optional[str], None), ("user_id", str, ...), ("fps", float, 20.0)]
    payloads = [{}, {"user_id": None}, {"user_id": "u"}, {"user_id": 7}, {"user_id": ["u"]},
                {"user_id": True}, {"fps": 30}, {"fps": -1.0}, {"fps": math.nan}, {"fps": "20"}]
    for name, kind, default in cases:
        reader = field_reader(name, kind, default)
        for payload in payloads:
            assert outcome(lambda: reader(payload)) == outcome(
                lambda: read_field(payload, name, kind, default)
            )


# ----------------------------------------------------------------------
# The frame codec: the bytes on the wire are json.dumps of the envelope
# ----------------------------------------------------------------------
json_scalars = (
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 1e-300, -0.0])
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)
payloads = st.none() | st.dictionaries(st.text(), json_values, max_size=5)


@given(st.text(), payloads)
def test_encode_frame_is_json_dumps_of_the_envelope_and_decodes_back(op, payload):
    line = protocol.encode_frame(op, payload)
    assert line == (json.dumps({"op": op, "payload": payload or {}}) + "\n").encode("utf-8")
    assert protocol.decode_frame(line) == {"op": op, "payload": payload or {}}


# ----------------------------------------------------------------------
# The servers: ok false on the link the mutant came in on
# ----------------------------------------------------------------------
def status(node_id: str = "edge-0") -> NodeStatus:
    return NodeStatus(
        node_id=node_id, lat=LAT, lon=LON, geohash=encode(LAT, LON, precision=9),
        cores=4, capacity_fps=30.0, attached_users=0, utilization=0.2,
    )


def query() -> DiscoveryQuery:
    return DiscoveryQuery(user_id="u", lat=LAT, lon=LON, top_n=3)


def heartbeat(message: Any, **address: Any) -> Dict[str, Any]:
    return {"status": message, "host": "127.0.0.1", "port": 9000, **address}


def server_batch() -> List[Tuple[str, str, Dict[str, Any]]]:
    """(label, op, payload): every mutant of a heartbeat's status and of
    a discovery query, and the heartbeat's address, in a seeded order."""
    batch = [(label, "heartbeat", heartbeat(m)) for label, m in mutations(to_wire(status()))]
    batch += [(label, "discover", {"query": m}) for label, m in mutations(to_wire(query()))]
    batch += [
        (f"address {k}={v!r}", "heartbeat", heartbeat(to_wire(status()), **{k: v}))
        for k, v in (("host", 5), ("host", None), ("port", "9000"), ("port", True), ("port", 9000.0))
    ]
    batch += [("no status", "heartbeat", {}), ("no query", "discover", {})]
    random.Random(27).shuffle(batch)
    return batch


async def refuse_batch(host: str, port: int) -> None:
    """The whole batch over ONE connection: each is refused, the socket
    the batch started on is the one that answers the valid requests."""
    link = protocol.PersistentConnection(host, port)
    try:
        assert (await link.request("status", {}, 2.0))["nodes"] == []
        socket = link._writer
        for label, op, payload in server_batch():
            reply = await link.request(op, json_shaped(payload), 2.0)
            assert reply["ok"] is False and reply["error"], label
        assert (await link.request("status", {}, 2.0))["nodes"] == []
        assert (await link.request("heartbeat", heartbeat(to_wire(status())), 2.0))["ok"] is True
        found = await link.request("discover", {"query": to_wire(query())}, 2.0)
        assert found["candidates"]["payload"]["node_ids"] == ["edge-0"]
        assert link._writer is socket
    finally:
        await link.close()


def quiet(caplog, scenario: Callable[[], Any]) -> None:
    with caplog.at_level(logging.DEBUG, logger="asyncio"):
        asyncio.run(scenario())
    assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []


def test_manager_server_refuses_every_mutant_on_a_link_that_stays_up(caplog):
    async def scenario():
        server = ManagerServer()
        await server.start()
        try:
            await refuse_batch(server.host, server.port)
            assert server._registry.keys() == {"edge-0"} and server.connections_accepted == 1
        finally:
            await server.stop()

    quiet(caplog, scenario)


def test_router_refuses_every_mutant_on_a_link_that_stays_up(caplog):
    async def scenario():
        cluster = ControlPlaneCluster(shards=2, replicas=2)
        await cluster.start()
        try:
            await refuse_batch(*cluster.address)
            assert [m.alive_replicas() for m in cluster.router.shards] == [[0, 1], [0, 1]]
        finally:
            await cluster.stop()

    quiet(caplog, scenario)


def test_manager_raw_field_ops_refuse_and_change_nothing(caplog):
    """``discover_partial`` reads a radius and ``restore`` a whole
    snapshot beside the messages: a missing or mistyped one is refused
    before the registry is touched."""
    good = to_wire(status())
    broken = {**good, "payload": {**good["payload"], "cores": "4"}}
    snapshot = {"statuses": [good], "stamps": {"edge-0": 1.0}, "addresses": {}}
    refused = [
        ("discover_partial", {"query": to_wire(query())}),
        *(("discover_partial", {"query": to_wire(query()), "radius_km": r}) for r in ("8", None, -1.0, math.nan)),
        ("restore", {**snapshot, "statuses": [broken]}),
        ("restore", {**snapshot, "statuses": good}),
        ("restore", {**snapshot, "stamps": {"edge-0": None}}),
        ("restore", {**snapshot, "stamps": [1.0]}),
        ("restore", {**snapshot, "addresses": {"edge-0": ["127.0.0.1"]}}),
        ("restore", {k: v for k, v in snapshot.items() if k != "stamps"}),
    ]

    async def scenario():
        server = ManagerServer()
        await server.start()
        link = protocol.PersistentConnection(server.host, server.port)
        try:
            assert (await link.request("heartbeat", heartbeat(good), 2.0))["ok"] is True
            before = (dict(server._registry), dict(server._machine._stamps), dict(server._addresses))
            for op, payload in refused:
                reply = await link.request(op, json_shaped(payload), 2.0)
                assert reply["ok"] is False and reply["error"], (op, payload)
            assert (dict(server._registry), dict(server._machine._stamps), dict(server._addresses)) == before
            partial = await link.request("discover_partial", {"query": to_wire(query()), "radius_km": 8}, 2.0)
            assert partial["count"] == 1 and server.connections_accepted == 1
        finally:
            await link.close()
            await server.stop()

    quiet(caplog, scenario)


def test_a_refused_restore_leaves_the_manager_serving_what_it_had(caplog):
    """A snapshot whose second status the index cannot key (geohash
    ``"AB"``) passes the wire schema and is refused whole by the
    registry: ``status`` still lists the old nodes and ``discover``
    answers as it did before."""
    snapshot = {
        "statuses": [to_wire(status("n7")), to_wire(dataclasses.replace(status("n8"), geohash="AB"))],
        "stamps": {"n7": 1.0, "n8": 1.0},
        "addresses": {},
    }

    async def scenario():
        server = ManagerServer()
        await server.start()
        link = protocol.PersistentConnection(server.host, server.port)
        try:
            for i in range(3):
                assert (await link.request("heartbeat", heartbeat(to_wire(status(f"n{i}"))), 2.0))["ok"]
            found = await link.request("discover", {"query": to_wire(query())}, 2.0)
            assert found["candidates"]["payload"]["node_ids"] == ["n0", "n1", "n2"]
            reply = await link.request("restore", snapshot, 2.0)
            assert reply["ok"] is False and "'AB'" in reply["error"]
            assert (await link.request("status", {}, 2.0))["nodes"] == ["n0", "n1", "n2"]
            assert await link.request("discover", {"query": to_wire(query())}, 2.0) == found
        finally:
            await link.close()
            await server.stop()

    quiet(caplog, scenario)


def test_edge_raw_field_ops_refuse_and_change_nothing(caplog):
    """``join`` / ``unexpected_join`` / ``leave`` / ``frame`` read a user
    id, a seqNum and a rate straight off the payload."""

    async def scenario():
        edge = LiveEdgeServer("edge-0", profile_by_name("V1"), GeoPoint(LAT, LON), time_scale=0.01)
        await edge.start()
        link = protocol.PersistentConnection(edge.host, edge.port)
        try:
            seq = edge.seq_num
            assert (await link.request("join", {"user_id": "u0", "seq_num": seq, "fps": 20}, 2.0))["accepted"]
            seq = edge.seq_num
            refused = [
                ("join", {"seq_num": seq}),
                ("join", {"user_id": 7, "seq_num": seq}),
                ("join", {"user_id": None, "seq_num": seq}),
                *(("join", {"user_id": "u1", "seq_num": s}) for s in ("0", True, 2.5, None)),
                *(("join", {"user_id": "u1", "seq_num": seq, "fps": f}) for f in ("20", math.nan, -1.0, False)),
                ("unexpected_join", {}),
                ("unexpected_join", {"user_id": ["u1"]}),
                ("unexpected_join", {"user_id": "u1", "fps": math.inf}),
                ("leave", {}),
                ("leave", {"user_id": None}),
                ("leave", {"user_id": ["u0"]}),
                ("frame", {"user_id": ["u0"]}),
            ]
            before = (dict(edge.attached), edge.seq_num, dict(edge._last_seen))
            socket = link._writer
            for op, payload in refused:
                reply = await link.request(op, json_shaped(payload), 2.0)
                assert reply["ok"] is False and reply["error"], (op, payload)
            assert (dict(edge.attached), edge.seq_num, dict(edge._last_seen)) == before
            assert (await link.request("leave", {"user_id": "u0"}, 2.0))["ok"] is True
            assert edge.attached == {} and link._writer is socket
        finally:
            await link.close()
            await edge.stop()

    quiet(caplog, scenario)


@pytest.mark.parametrize("payload", [5, None, "x", [{"user_id": "u"}]])
def test_a_frame_payload_that_is_not_an_object_is_a_protocol_error(payload, caplog):
    line = (json.dumps({"op": "join", "payload": payload}) + "\n").encode()
    with pytest.raises(protocol.ProtocolError, match="payload"):
        protocol.decode_frame(line)

    async def scenario():
        # ... and on the wire it hangs up like malformed JSON does, at
        # the codec: no handler sees it, nothing is logged.
        edge = LiveEdgeServer("edge-0", profile_by_name("V1"), GeoPoint(LAT, LON), time_scale=0.01)
        await edge.start()
        try:
            reader, writer = await asyncio.open_connection(edge.host, edge.port)
            writer.write(line)
            assert await reader.read() == b""
            writer.close()
            await writer.wait_closed()
        finally:
            await edge.stop()

    quiet(caplog, scenario)


# ----------------------------------------------------------------------
# The client: a refusal is a failed probe or a failed discovery
# ----------------------------------------------------------------------
class FakePeer:
    """A loopback server that answers each op with ``answers[op]()``."""

    def __init__(self, answers: Dict[str, Callable[[], Dict[str, Any]]]) -> None:
        self.answers = answers
        self._open = protocol.OpenConnections()
        self._server: Any = None
        self.port = 0

    async def __aenter__(self) -> "FakePeer":
        async def dispatch(frame: Dict[str, Any]) -> Dict[str, Any]:
            return self.answers[frame["op"]]()

        self._server = await asyncio.start_server(
            lambda r, w: protocol.serve_connection(r, w, dispatch, self._open), "127.0.0.1", 0
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def __aexit__(self, *exc: Any) -> None:
        await protocol.stop_serving(self._server, self._open)


GOOD_PROBE = ProbeReply("edge-0", 30.0, 4, 1, 28.0, stay_ms=29.0)


def fake_edge(probe: Dict[str, Any]) -> FakePeer:
    return FakePeer({
        "rtt_probe": lambda: {"ok": True},
        "process_probe": lambda: {"ok": True, "probe": probe["reply"]},
        "join": lambda: {"ok": True, "accepted": True, "seq_num": 5},
        "leave": lambda: {"ok": True},
    })


def test_a_refused_probe_reply_is_a_failed_probe_on_a_kept_link(caplog):
    probe: Dict[str, Any] = {}
    batch = mutations(to_wire(GOOD_PROBE))
    random.Random(27).shuffle(batch)

    async def scenario():
        async with fake_edge(probe) as edge:
            client = LiveClient("u", GeoPoint(LAT, LON), "127.0.0.1", 1)
            client.addresses["edge-0"] = ("127.0.0.1", edge.port)
            try:
                probe["reply"] = to_wire(GOOD_PROBE)
                assert (await client.probe("edge-0")).d_proc_ms == 30.0
                link = client.connections["edge-0"]
                for label, mutant in batch:
                    probe["reply"] = json_shaped(mutant)
                    assert await client.probe("edge-0") is None, label
                    assert client.connections["edge-0"] is link and link.connected, label
                probe["reply"] = to_wire(GOOD_PROBE)
                outcome = await client.probe("edge-0")
                assert (outcome.d_proc_ms, outcome.seq_num, outcome.attached_users) == (30.0, 4, 1)
            finally:
                await client.close()

    quiet(caplog, scenario)


def test_a_refused_or_undecodable_discover_reply_takes_the_discovery_failed_path(caplog):
    """No cached candidates to fall back on: each round fails, and
    ``select_and_join`` gives up with its own RuntimeError. The fake edge
    would accept a join, so a reply decoded as usable shows up as one."""
    probe = {"reply": to_wire(GOOD_PROBE)}
    good = to_wire(CandidateList("u", ("edge-0",)))
    mutants = [m for _, m in random.Random(27).sample(mutations(good), 3)]
    replies = [{"ok": False, "error": "refused"}, {"ok": True}, {"candidates": good}]
    replies += [{"ok": True, "candidates": m} for m in mutants]

    async def scenario():
        async with fake_edge(probe) as edge:
            addresses = {"edge-0": ["127.0.0.1", edge.port]}
            answer: Dict[str, Any] = {}
            async with FakePeer({"discover": lambda: answer["reply"]}) as manager:
                for reply in replies:
                    answer["reply"] = json_shaped({"addresses": addresses, **reply})
                    client = LiveClient("u", GeoPoint(LAT, LON), "127.0.0.1", manager.port)
                    fed: List[Any] = []
                    handle = client._machine.handle
                    client._machine.handle = lambda event: fed.append(event) or handle(event)
                    try:
                        with pytest.raises(RuntimeError, match="no candidate accepted"):
                            await client.select_and_join()
                    finally:
                        await client.close()
                    failed = [e for e in fed if isinstance(e, DiscoveryFailed)]
                    assert len(failed) == 4 and {e.reason for e in failed} == {"refused"}, reply
                    assert client.stats.probes_sent == 0, reply

    quiet(caplog, scenario)


def test_the_fake_peers_serve_a_usable_discovery(caplog):
    """The same fakes with the unmutated reply: the client joins."""
    probe = {"reply": to_wire(GOOD_PROBE)}

    async def scenario():
        async with fake_edge(probe) as edge:
            reply = {
                "ok": True,
                "candidates": to_wire(CandidateList("u", ("edge-0",))),
                "addresses": {"edge-0": ["127.0.0.1", edge.port]},
            }
            async with FakePeer({"discover": lambda: reply}) as manager:
                client = LiveClient("u", GeoPoint(LAT, LON), "127.0.0.1", manager.port)
                try:
                    assert await client.select_and_join() == "edge-0"
                finally:
                    await client.close()

    quiet(caplog, scenario)


def test_mutants_cover_every_rule_of_every_wire_type():
    """The mutant list is derived, not hand-listed: every field of every
    wire type is broken by type, and every declared rule by value."""
    for cls in WIRE_TYPES:
        message = {
            NodeStatus: status(), DiscoveryQuery: query(),
            CandidateList: CandidateList("u", ("a",)), ProbeReply: GOOD_PROBE,
        }[cls]
        labels = [label for label, _ in mutations(to_wire(message))]
        for field in _WIRE_FIELDS[cls].values():
            assert any(label.startswith(f"wrong type: {field.name}=") for label in labels)
            if field.rule is not None:
                assert any(
                    label.split(":")[0] in ("off the globe", "out of range")
                    and f" {field.name}=" in label for label in labels
                ), field.name
