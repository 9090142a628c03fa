"""Protocol message types exchanged between clients, edges and the manager.

These are plain frozen dataclasses: the simulation passes them by
reference, and the live runtime (:mod:`repro.runtime`) serializes them to
JSON with the helpers at the bottom. Keeping one message vocabulary for
both backends is what makes the live runtime a faithful port rather than
a second implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Tuple

from repro.geo.point import GeoPoint


@dataclass(frozen=True)
class NodeStatus:
    """Heartbeat snapshot an edge node reports to the Central Manager.

    The manager's *global* selection works only from these coarse fields
    — by design it "cannot entirely identify the environment
    heterogeneity" and leaves accuracy to client-side probing.
    """

    node_id: str
    lat: float
    lon: float
    geohash: str
    cores: int
    capacity_fps: float
    attached_users: int
    utilization: float
    dedicated: bool = False
    isp: Optional[str] = None
    reported_at_ms: float = 0.0

    @property
    def point(self) -> GeoPoint:
        return GeoPoint(self.lat, self.lon)

    @property
    def availability_score(self) -> float:
        """Generic resource availability: free cores.

        This is the resource-availability signal global selection sorts
        by — and the weight the resource-aware WRR baseline uses. It is
        deliberately application-agnostic (``cores x (1 - utilization)``,
        what a generic LB sees), not per-application throughput: a
        resource-aware balancer knows machine sizes and utilization, but
        not how fast each machine runs *this* application's frames —
        one of the blind spots the paper's probing removes.
        """
        return max(0.0, self.cores * (1.0 - self.utilization))


@dataclass(frozen=True)
class DiscoveryQuery:
    """A client's edge-discovery request to the Central Manager."""

    user_id: str
    lat: float
    lon: float
    top_n: int
    isp: Optional[str] = None
    #: Node ids the client wants excluded (e.g. nodes it just saw fail).
    exclude: Tuple[str, ...] = ()

    @property
    def point(self) -> GeoPoint:
        return GeoPoint(self.lat, self.lon)


@dataclass(frozen=True)
class CandidateList:
    """The manager's reply: the TopN candidate edge list, best first."""

    user_id: str
    node_ids: Tuple[str, ...]
    generated_at_ms: float = 0.0
    widened: bool = False  # True if the wide-radius fallback was used

    def __len__(self) -> int:
        return len(self.node_ids)


@dataclass(frozen=True)
class ProbeReply:
    """Reply to ``Process_probe()`` (Table I).

    Carries the cached "what-if" processing delay plus the node-state
    information local selection policies need: the synchronization
    ``seq_num``, the number of attached users and their current
    processing delay (for the GO policy), per §IV-C/IV-D.
    """

    node_id: str
    what_if_ms: float
    seq_num: int
    attached_users: int
    current_proc_ms: float
    #: Projected processing delay for an *already-attached* user running
    #: at the standard rate (demand of the current n users, no +1).
    #: A client ranking its current node must use this, not
    #: ``what_if_ms`` (it is one of the n) and not ``current_proc_ms``
    #: (which reflects adaptively throttled rates and hides overload).
    stay_ms: float = 0.0


@dataclass(frozen=True)
class JoinReply:
    """Reply to ``Join()`` — accepted iff the seqNum still matched."""

    node_id: str
    accepted: bool
    seq_num: int


@dataclass(frozen=True)
class LeaveNotice:
    """Client -> edge ``Leave()`` notification."""

    user_id: str
    node_id: str
    reason: str = "switch"  # "switch" | "finish"


# ----------------------------------------------------------------------
# JSON helpers for the live runtime
# ----------------------------------------------------------------------
_MESSAGE_TYPES = {
    "NodeStatus": NodeStatus,
    "DiscoveryQuery": DiscoveryQuery,
    "CandidateList": CandidateList,
    "ProbeReply": ProbeReply,
    "JoinReply": JoinReply,
    "LeaveNotice": LeaveNotice,
}


#: Messages are flat and frozen: encoding reads each field, where
#: ``dataclasses.asdict`` would deep-copy it.
_WIRE_FIELDS = {
    cls: tuple(f.name for f in fields(cls)) for cls in _MESSAGE_TYPES.values()
}


def to_wire(message: Any) -> Dict[str, Any]:
    """Encode a message dataclass as a JSON-ready dict with a type tag."""
    cls = type(message)
    names = _WIRE_FIELDS.get(cls)
    if names is None:
        raise TypeError(f"not a wire message type: {cls.__name__}")
    payload = {}
    for name in names:
        value = getattr(message, name)
        # Tuples JSON-ify to lists; normalise here so round-trips are stable.
        payload[name] = list(value) if isinstance(value, tuple) else value
    return {"type": cls.__name__, "payload": payload}


def from_wire(data: Dict[str, Any]) -> Any:
    """Decode a dict produced by :func:`to_wire` back into a dataclass."""
    try:
        type_name = data["type"]
        payload = dict(data["payload"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed wire message: {data!r}") from exc
    try:
        cls = _MESSAGE_TYPES[type_name]
    except KeyError:
        raise ValueError(f"unknown wire message type: {type_name!r}") from None
    # Restore tuple-typed fields.
    for key in ("node_ids", "exclude"):
        if key in payload and isinstance(payload[key], list):
            payload[key] = tuple(payload[key])
    return cls(**payload)


_ = field  # re-exported convenience for subclasses in tests
