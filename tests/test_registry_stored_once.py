"""The Central Manager stores each registered node once.

A node is filed, by its slot, in one bucket only: its leaf (the
``max_precision`` cell); a coarser cell lists the non-empty leaves under
it and nothing else. ``GlobalSelectionMachine.registry`` is no second
dict but a
read-only view of the index's slot table, so it must follow every way a
node enters, moves or leaves — and keep the first-registration order
the dict it replaced kept. The statuses themselves are slotted, as is
every message in :mod:`repro.messages`; those must still pickle and
deep-copy.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import math
import pickle
import random
from typing import Dict, List

import pytest

from repro import messages
from repro.geo.geohash import encode
from repro.geo.point import GeoPoint
from repro.geo.region import MSP_CENTER
from repro.geo.spatial_index import GeohashSpatialIndex
from repro.messages import (
    CandidateList,
    DiscoveryQuery,
    JoinReply,
    NodeStatus,
    ProbeOutcome,
    ProbeReply,
)
from repro.policy.global_policy import GeoProximityFilter, GlobalSelectionPolicy
from repro.protocol.events import HeartbeatReceived, PruneTick
from repro.protocol.global_select import GlobalSelectionMachine, RegistrySnapshot


def point_near(rng: random.Random, radius_km: float = 3.0) -> GeoPoint:
    """Dense enough that leaves hold several nodes and moves stay in cell."""
    distance = radius_km * math.sqrt(rng.random())
    bearing = rng.uniform(0.0, 2.0 * math.pi)
    return MSP_CENTER.offset_km(distance * math.cos(bearing), distance * math.sin(bearing))


def status(node_id: str, at: GeoPoint, **fields) -> NodeStatus:
    values = dict(
        node_id=node_id,
        lat=at.lat,
        lon=at.lon,
        geohash=encode(at.lat, at.lon, precision=9),
        cores=4,
        capacity_fps=30.0,
        attached_users=0,
        utilization=0.5,
    )
    return NodeStatus(**{**values, **fields})


def ancestors(key: int) -> List[int]:
    out = []
    key >>= 5
    while key > 1:
        out.append(key)
        key >>= 5
    return out


def assert_stored_once(index: GeohashSpatialIndex) -> None:
    """Leaves hold every id once; coarser cells list exactly the
    non-empty leaves under them; no bucket is empty."""
    leaf_depth_tag = 1 << 5 * index.max_precision
    filed: Dict[int, int] = {}  # a node is filed by its slot
    for key, members in index._leaves.items():
        assert members, f"empty leaf {key}"
        assert key >> 5 * index.max_precision == 1, "a leaf below max_precision"
        for slot in members:
            assert slot not in filed, f"{index.status_at(slot).node_id} in two buckets"
            filed[slot] = key
    assert sorted(filed) == sorted(index._slot_of.values())
    for slot, key in filed.items():
        at = index.status_at(slot)
        assert index._bucket_key(at.geohash) == key, f"{at.node_id} filed in the wrong leaf"
    listed: Dict[int, set] = {}
    for leaf in index._leaves:
        for parent in ancestors(leaf):
            listed.setdefault(parent, set()).add(leaf)
    assert {k: set(v) for k, v in index._under.items()} == listed
    for key, leaves in index._under.items():
        assert leaves and key < leaf_depth_tag
        assert all(leaf >= leaf_depth_tag for leaf in leaves), "a coarser cell lists a non-leaf"


def test_every_node_sits_in_one_leaf_through_inserts_moves_and_removes():
    rng = random.Random(11)
    index: GeohashSpatialIndex[NodeStatus] = GeohashSpatialIndex()
    live: List[str] = []
    for step in range(600):
        roll = rng.random()
        if roll < 0.4 or not live:
            node_id = f"n{step:04d}"
            index.insert(status(node_id, point_near(rng)))
            live.append(node_id)
        elif roll < 0.55:  # same place: a refresh touches no bucket
            node_id = rng.choice(live)
            old = index.status_at(index.slot_of(node_id))
            index.insert(dataclasses.replace(old, utilization=rng.random()))
        elif roll < 0.75:  # a move, often inside the same leaf
            node_id = rng.choice(live)
            old = index.status_at(index.slot_of(node_id))
            nudge = old.point.offset_km(rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05))
            index.insert(status(node_id, nudge if rng.random() < 0.5 else point_near(rng)))
        else:
            node_id = live.pop(rng.randrange(len(live)))
            index.remove(node_id)
        assert_stored_once(index)
        if step % 50 == 0:  # build some arrays, so the drops are exercised
            index.within_cover(MSP_CENTER.lat, MSP_CENTER.lon, rng.choice((0.5, 4.0, 19.0)))
    for node_id in live:
        index.remove(node_id)
    assert not index._leaves and not index._under and len(index) == 0


def test_a_leaf_that_empties_leaves_no_bucket_behind():
    index: GeohashSpatialIndex[NodeStatus] = GeohashSpatialIndex()
    index.insert(status("a", MSP_CENTER))
    far = GeoPoint(45.5, -92.0)
    index.insert(status("a", far))  # a move to another leaf
    assert_stored_once(index)
    assert list(index._leaves) == [index._bucket_key(encode(far.lat, far.lon, 9))]
    index.remove("a")
    assert not index._leaves and not index._under


def machine() -> GlobalSelectionMachine:
    policy = GlobalSelectionPolicy(geo_filter=GeoProximityFilter(radius_km=4.0, wide_radius_km=40.0))
    return GlobalSelectionMachine(policy, heartbeat_timeout=10.0)


def test_the_registry_view_tracks_every_way_in_and_out():
    rng = random.Random(5)
    m = machine()
    want: Dict[str, NodeStatus] = {}

    def beat(s: NodeStatus, stamp: float) -> None:
        (online,) = m.handle(HeartbeatReceived(stamp=stamp, status=s))
        assert online.new == (s.node_id not in want)
        want[s.node_id] = s

    def check() -> None:
        assert m.registry == want and want == m.registry
        assert list(m.registry) == list(want)
        assert list(m.registry.values()) == list(want.values())
        assert list(m.registry.items()) == list(want.items())
        assert len(m.registry) == len(want)
        for node_id, s in want.items():
            assert node_id in m.registry and m.registry[node_id] is s
        assert "nobody" not in m.registry and m.registry.get("nobody") is None
        with pytest.raises(KeyError):
            m.registry["nobody"]

    for i in range(6):  # insert
        beat(status(f"n{i}", point_near(rng)), stamp=float(i))
    check()
    beat(status("n2", point_near(rng), cores=8), stamp=6.0)  # move: keeps its place
    check()
    beat(dataclasses.replace(want["n4"], utilization=0.1), stamp=6.0)  # refresh
    check()
    with pytest.raises(ValueError):  # refused: changes nothing
        m.handle(HeartbeatReceived(stamp=7.0, status=status("n9", MSP_CENTER, geohash="AB")))
    shouting = encode(MSP_CENTER.lat, MSP_CENTER.lon, 9).upper()
    with pytest.raises(ValueError):  # refused move of a registered node
        m.handle(HeartbeatReceived(stamp=7.0, status=status("n1", MSP_CENTER, geohash=shouting)))
    check()
    expired = m.handle(PruneTick(stamp=13.5))  # n0..n3 beat at 0..3; n2 at 6
    assert [e.node_id for e in expired] == ["n0", "n1", "n3"]
    for e in expired:
        del want[e.node_id]
    check()
    snapshot = m.snapshot_state()
    assert [s.node_id for s in snapshot.statuses] == list(want)
    beat(status("n0", point_near(rng)), stamp=14.0)  # re-registers: goes last
    check()
    assert list(m.registry)[-1] == "n0"
    m.restore_state(snapshot)
    want = {s.node_id: s for s in snapshot.statuses}
    check()
    with pytest.raises(ValueError):  # a refused restore is all or nothing
        m.restore_state(RegistrySnapshot((status("x", MSP_CENTER, geohash="AB"),), {"x": 1.0}))
    check()
    m.restore_state(RegistrySnapshot((), {}))
    want = {}
    check()


def test_registry_values_follow_first_registration_order():
    rng = random.Random(9)
    m = machine()
    order = [f"z{i}" if i % 2 else f"a{i}" for i in range(12)]  # not sorted
    for i, node_id in enumerate(order):
        m.handle(HeartbeatReceived(stamp=float(i), status=status(node_id, point_near(rng))))
    for node_id in reversed(order):  # refreshes do not reorder
        m.handle(HeartbeatReceived(stamp=20.0, status=status(node_id, point_near(rng))))
    assert [s.node_id for s in m.registry.values()] == order
    assert [s.node_id for s in list(m.registry.values())] == list(m.registry) == order


def test_the_registry_is_read_only():
    m = machine()
    m.handle(HeartbeatReceived(stamp=0.0, status=status("a", MSP_CENTER)))
    with pytest.raises(TypeError):
        m.registry["b"] = m.registry["a"]  # type: ignore[index]
    assert not hasattr(m.registry, "pop") and not hasattr(m.registry, "clear")


#: One instance of every message type, each field set off its default.
SAMPLES = [
    status("n0", MSP_CENTER, dedicated=True, isp="isp-a", reported_at_ms=12.5),
    DiscoveryQuery(user_id="u", lat=44.9, lon=-93.2, top_n=3, isp="isp-a", exclude=("n1", "n2")),
    CandidateList(user_id="u", node_ids=("n0", "n1"), generated_at_ms=3.0, widened=True),
    ProbeReply(node_id="n0", what_if_ms=31.0, seq_num=4, attached_users=2, current_proc_ms=29.0, stay_ms=30.0),
    JoinReply(node_id="n0", accepted=True, seq_num=5),
    ProbeOutcome(node_id="n0", d_prop_ms=4.0, d_proc_ms=31.0, seq_num=4, attached_users=2,
                 current_proc_ms=29.0, stay_ms=30.0, probed_at_ms=100.0),
]


def test_the_samples_cover_every_message_type():
    declared = {
        cls for _, cls in inspect.getmembers(messages, inspect.isclass)
        if dataclasses.is_dataclass(cls) and cls.__module__ == messages.__name__
    }
    assert declared == {type(sample) for sample in SAMPLES}


@pytest.mark.parametrize("sample", SAMPLES, ids=lambda s: type(s).__name__)
def test_every_message_is_slotted_and_survives_pickle_and_deepcopy(sample):
    assert not hasattr(sample, "__dict__")
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(sample, protocol=protocol))
        assert back == sample and type(back) is type(sample)
    copied = copy.deepcopy(sample)
    assert copied == sample and copied is not sample
    assert copy.copy(sample) == sample
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(copied, dataclasses.fields(sample)[0].name, None)
