"""Protocol message types exchanged between clients, edges and the manager.

These are plain frozen dataclasses: the simulation passes them by
reference, and the live runtime (:mod:`repro.runtime`) serializes them to
JSON with the helpers at the bottom. Keeping one message vocabulary for
both backends is what makes the live runtime a faithful port rather than
a second implementation.

:class:`ProbeOutcome` — what a client holds about one candidate after
probing it (§IV-D) — lives here too: it is assembled from a
:class:`ProbeReply` and is what the policy layer (:mod:`repro.policy`)
ranks.

This module is a leaf: it imports only :mod:`repro.geo.point`, so
:mod:`repro.policy`, :mod:`repro.protocol` and the control-plane
machines can all sit above it (``tests/test_layering.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
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


@dataclass(frozen=True)
class ProbeOutcome:
    """Everything Algorithm 2 learns about one candidate edge node.

    - ``LO_j = D_prop_probing + D_proc_probing`` — the Local-view
      Overhead: the latency *this* user would see on candidate ``j``.
    - ``GO_j = n × (D_proc_probing − D_proc_current) + LO_j`` — the
      Global Overhead: LO plus the aggregate degradation inflicted on
      the candidate's ``n`` existing users if this user joins.

    Attributes:
        node_id: the probed candidate.
        d_prop_ms: measured RTT propagation delay (``RTT_probe``).
        d_proc_ms: cached "what-if" processing delay (``Process_probe``).
        seq_num: the node's state sequence number at probe time — echoed
            in the subsequent ``Join()`` for synchronization.
        attached_users: the candidate's current user count ``n``.
        current_proc_ms: processing delay existing users currently see.
        probed_at_ms: client timestamp of the probe.
    """

    node_id: str
    d_prop_ms: float
    d_proc_ms: float
    seq_num: int
    attached_users: int
    current_proc_ms: float
    #: stay-projection from the probe reply (see ProbeReply.stay_ms);
    #: a client substitutes this for ``d_proc_ms`` when ranking the node
    #: it is already attached to.
    stay_ms: float = 0.0
    probed_at_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.d_prop_ms < 0 or self.d_proc_ms < 0:
            raise ValueError("probe delays must be >= 0")
        if self.attached_users < 0:
            raise ValueError(f"attached_users must be >= 0: {self.attached_users}")

    @property
    def local_overhead_ms(self) -> float:
        """``LO_j`` — predicted end-to-end latency for the probing user."""
        return self.d_prop_ms + self.d_proc_ms

    @property
    def degradation_ms(self) -> float:
        """Per-existing-user slowdown if this user joins (never negative).

        The what-if value reflects one *additional* user, so it should
        not undercut what current users already experience; clamping
        guards against measurement noise inverting the difference.
        """
        return max(0.0, self.d_proc_ms - self.current_proc_ms)

    @property
    def global_overhead_ms(self) -> float:
        """``GO_j`` — LO plus total degradation inflicted on existing users."""
        return self.attached_users * self.degradation_ms + self.local_overhead_ms


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
