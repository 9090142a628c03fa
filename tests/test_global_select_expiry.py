"""The Central Manager's expiry heap stays the size of its registry.

Every heartbeat pushes a ``(stamp, node_id)`` and ``_prune`` pops only
what is older than the timeout, so under a long timeout (the live
ledger's 3 600 s, ``inf`` in the ``cp_discovery`` workload) nothing was
ever popped: one superseded tuple per heartbeat, for ever. The machine
now rebuilds the heap from its newest stamps once the superseded entries
outnumber the live ones. What expires, and in which order, is held to a
reference that keeps no heap at all.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List

from repro.geo.geohash import encode
from repro.messages import NodeStatus
from repro.policy.global_policy import GlobalSelectionPolicy
from repro.protocol.effects import NodeExpired
from repro.protocol.events import HeartbeatReceived, PruneTick
from repro.protocol.global_select import GlobalSelectionMachine


def status(node_id: str, beat: int = 0) -> NodeStatus:
    lat, lon = 44.9 + 0.01 * int(node_id[1:]), -93.2
    return NodeStatus(
        node_id=node_id, lat=lat, lon=lon, geohash=encode(lat, lon, 9),
        cores=4, capacity_fps=30.0, attached_users=beat % 4, utilization=0.5,
    )


def test_ten_thousand_refreshes_of_ten_nodes_keep_the_heap_bounded():
    machine = GlobalSelectionMachine(GlobalSelectionPolicy(), heartbeat_timeout=math.inf)
    longest = 0
    for beat in range(10_000):
        node_id = f"n{beat % 10}"
        machine.handle(HeartbeatReceived(stamp=float(beat), status=status(node_id, beat)))
        longest = max(longest, len(machine._expiry_heap))
    assert longest <= 2 * 10 + 9, longest
    assert {(stamp, node_id) for node_id, stamp in machine._stamps.items()} <= set(
        machine._expiry_heap
    )
    assert machine.handle(PruneTick(stamp=1e9)) == []  # an infinite timeout expires nobody
    assert len(machine.registry) == 10


def test_compaction_changes_neither_what_expires_nor_in_which_order():
    """Seeded heartbeats, silences and prunes against a model
    that recomputes the expired set from the newest stamps each time."""
    rng = random.Random(24)
    timeout = 50.0
    machine = GlobalSelectionMachine(GlobalSelectionPolicy(), heartbeat_timeout=timeout)
    newest: Dict[str, float] = {}
    now, compactions, last_len = 0.0, 0, 0
    for step in range(6_000):
        now += rng.choice((0.0, 0.5, 1.0, 4.0))  # ties included: order is by (stamp, id)
        roll = rng.random()
        if roll < 0.90:
            # Three chatty nodes and a long tail that falls silent.
            node_id = f"n{rng.randrange(3) if rng.random() < 0.8 else rng.randrange(3, 40)}"
            machine.handle(HeartbeatReceived(stamp=now, status=status(node_id, step)))
            newest[node_id] = now
            compactions += len(machine._expiry_heap) < last_len
            assert len(machine._expiry_heap) <= 2 * len(newest) + 9
        else:
            want: List[str] = [
                node_id
                for stamp, node_id in sorted((s, n) for n, s in newest.items())
                if now - stamp > timeout
            ]
            got = machine.handle(PruneTick(stamp=now))
            assert got == [NodeExpired(node_id) for node_id in want]
            for node_id in want:
                del newest[node_id]
        last_len = len(machine._expiry_heap)
        assert set(machine.registry) == set(newest) == set(machine._stamps)
        assert len(machine.spatial_index) == len(newest)
    assert compactions > 20, "the script never made the heap compact"
