"""Unit and property tests for protocol messages and wire encoding."""

from dataclasses import asdict

import pytest
from hypothesis import given, strategies as st

from repro.messages import (
    _MESSAGE_TYPES,
    CandidateList,
    DiscoveryQuery,
    NodeStatus,
    ProbeReply,
    from_wire,
    to_wire,
)


def make_status(**overrides):
    base = dict(
        node_id="V1",
        lat=44.98,
        lon=-93.26,
        geohash="9zvxg",
        cores=8,
        capacity_fps=83.0,
        attached_users=2,
        utilization=0.4,
    )
    base.update(overrides)
    return NodeStatus(**base)


def test_availability_score_is_free_cores():
    status = make_status(cores=8, utilization=0.25)
    assert status.availability_score == pytest.approx(6.0)


def test_availability_score_never_negative():
    assert make_status(utilization=1.5).availability_score == 0.0


def test_status_point_property():
    assert make_status().point.lat == 44.98


def test_discovery_query_point():
    query = DiscoveryQuery("u1", 44.0, -93.0, top_n=3)
    assert query.point.lon == -93.0


def test_candidate_list_len():
    assert len(CandidateList("u1", ("a", "b"))) == 2


# ----------------------------------------------------------------------
# Wire round trips
# ----------------------------------------------------------------------
WIRE_CASES = [
    make_status(isp="comcast", dedicated=True),
    DiscoveryQuery("u1", 44.0, -93.0, top_n=3, exclude=("dead-1",)),
    CandidateList("u1", ("a", "b", "c"), generated_at_ms=12.0, widened=True),
    ProbeReply("V1", 35.0, 7, 3, 31.0, stay_ms=33.0),
]


def test_wire_cases_cover_every_wire_type():
    assert {type(m) for m in WIRE_CASES} == set(_MESSAGE_TYPES.values())


@pytest.mark.parametrize("message", WIRE_CASES)
def test_wire_roundtrip(message):
    assert from_wire(to_wire(message)) == message
    # the encoder reads fields directly; the result is still the
    # ``asdict`` form with tuples as JSON lists
    reference = {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in asdict(message).items()
    }
    assert to_wire(message) == {"type": type(message).__name__, "payload": reference}
    assert list(to_wire(message)["payload"]) == list(reference)  # field order too


def test_to_wire_rejects_non_message():
    with pytest.raises(TypeError):
        to_wire({"not": "a message"})


def test_from_wire_rejects_unknown_type():
    with pytest.raises(ValueError, match="unknown"):
        from_wire({"type": "Nonsense", "payload": {}})


def test_from_wire_rejects_malformed():
    with pytest.raises(ValueError):
        from_wire({"payload": {}})
    with pytest.raises(ValueError):
        from_wire("garbage")  # type: ignore[arg-type]


def test_wire_format_is_json_compatible():
    import json

    encoded = to_wire(CandidateList("u1", ("a", "b")))
    decoded = json.loads(json.dumps(encoded))
    assert from_wire(decoded) == CandidateList("u1", ("a", "b"))


@given(
    st.text(min_size=1, max_size=20),
    st.floats(min_value=-89, max_value=89),
    st.floats(min_value=-179, max_value=179),
    st.integers(min_value=1, max_value=10),
    st.lists(st.text(min_size=1, max_size=8), max_size=4),
)
def test_property_discovery_query_roundtrip(user_id, lat, lon, top_n, exclude):
    query = DiscoveryQuery(user_id, lat, lon, top_n, exclude=tuple(exclude))
    assert from_wire(to_wire(query)) == query


@given(
    st.floats(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=1_000),
    st.integers(min_value=0, max_value=50),
)
def test_property_probe_reply_roundtrip(what_if, seq, attached):
    reply = ProbeReply("n", what_if, seq, attached, what_if, stay_ms=what_if)
    assert from_wire(to_wire(reply)) == reply
