"""Protocol message types exchanged between clients, edges and the manager.

These are plain frozen, slotted dataclasses (a manager keeps one
:class:`NodeStatus` per registered node): the simulation passes them by
reference, and the live runtime (:mod:`repro.runtime`) serializes them to
JSON with the helpers at the bottom. Keeping one message vocabulary for
both backends is what makes the live runtime a faithful port rather than
a second implementation.

The annotations are the wire schema too: each type that crosses a socket
resolves once into a per-field table (type, optional, required, a rule),
and :func:`from_wire` holds every payload to it. A refusal is a
``ValueError``: a server answers it ``ok: false``, a client counts a
failed probe or discovery.

:class:`ProbeOutcome` — what a client holds about one candidate after
probing it (§IV-D) — lives here too: it is assembled from a
:class:`ProbeReply` and is what the policy layer (:mod:`repro.policy`)
ranks.

This module is a leaf: it imports only :mod:`repro.geo.point`, so
:mod:`repro.policy`, :mod:`repro.protocol` and the control-plane
machines can all sit above it (``tests/test_layering.py``).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import MISSING, dataclass, fields
from functools import lru_cache
from typing import Any, Callable, Dict, Optional, Tuple, Union, get_args, get_origin, get_type_hints

from repro.geo.point import GeoPoint


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class CandidateList:
    """The manager's reply: the TopN candidate edge list, best first."""

    user_id: str
    node_ids: Tuple[str, ...]
    generated_at_ms: float = 0.0
    widened: bool = False  # True if the wide-radius fallback was used

    def __len__(self) -> int:
        return len(self.node_ids)


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class JoinReply:
    """Reply to ``Join()`` — accepted iff the seqNum still matched."""

    node_id: str
    accepted: bool
    seq_num: int


@dataclass(frozen=True, slots=True)
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
# The wire schema: JSON helpers for the live runtime
# ----------------------------------------------------------------------
#: The messages that cross a socket (a live join answers in plain fields).
_MESSAGE_TYPES = {cls.__name__: cls for cls in (NodeStatus, DiscoveryQuery, CandidateList, ProbeReply)}
#: A node's serving address, ``[host, port]`` on the wire.
Address = Tuple[str, int]
#: Rules beyond the type, by field name: a minimum, or a check raising
#: ValueError. Positions are on the globe by GeoPoint's own rule, a TopN
#: asks for one node or more; counts, delays and rates are never negative.
_RULES: Dict[str, Any] = {
    "lat": lambda lat: GeoPoint(lat, 0.0),
    "lon": lambda lon: GeoPoint(0.0, lon),
    "top_n": 1,
    **dict.fromkeys(("cores", "attached_users", "count", "what_if_ms", "current_proc_ms",
                     "stay_ms", "fps", "radius_km"), 0),
}


@lru_cache(maxsize=None)
def _decoder(kind: Any, rule: Any = None) -> Callable[[Any], Any]:
    """One annotation's decoder, raising ValueError: exact ``str`` / ``int`` /
    ``bool`` (an int is a float, a bool no number), 64-bit, finite, then
    ``rule``; ``Optional``, ``Tuple`` (from a list), ``Dict[str, X]``."""
    origin, args = get_origin(kind), get_args(kind)
    if origin is Union:  # Optional[X], the wire's one union
        present = _decoder(args[0], rule)
        return lambda value: None if value is None else present(value)
    if kind in _MESSAGE_TYPES.values():
        return lambda value: from_wire(value, kind)
    items = [_decoder(arg) for arg in args if arg is not Ellipsis]
    accepted = (float, int) if kind is float else (list, tuple) if origin is tuple else (origin or kind,)
    variadic = args[-1:] == (Ellipsis,)

    def decode(value: Any) -> Any:
        got = type(value)
        if (got not in accepted or got is int and not -(2**63) <= value < 2**63
                or got is float and not math.isfinite(value)
                or origin is tuple and not variadic and len(value) != len(items)):
            raise ValueError(f"not a {getattr(kind, '__name__', kind)}: {value!r}")
        if origin is tuple:
            return tuple([items[0](v) for v in value] if variadic else [d(v) for d, v in zip(items, value)])
        if origin is dict:
            return {items[0](k): items[1](v) for k, v in value.items()}
        if type(rule) is int and value < rule:
            raise ValueError(f"{value!r} is below {rule}")
        if callable(rule):
            rule(value)
        return float(value) if kind is float else value

    return decode


#: A schema row: ``kind`` is the annotation less ``Optional``; required = no default.
WireField = namedtuple("WireField", "name kind optional required rule decode")


def _row(name: str, hint: Any, required: bool) -> WireField:
    optional, rule = get_origin(hint) is Union, _RULES.get(name)
    return WireField(name, get_args(hint)[0] if optional else hint, optional, required, rule,
                     _decoder(hint, rule))


#: Per wire type, its fields by name in declaration order.
_WIRE_FIELDS: Dict[type, Dict[str, WireField]] = {
    cls: {
        f.name: _row(f.name, get_type_hints(cls)[f.name],
                     f.default is MISSING and f.default_factory is MISSING)
        for f in fields(cls)
    }
    for cls in _MESSAGE_TYPES.values()
}


def to_wire(message: Any) -> Dict[str, Any]:
    """Encode a message dataclass as a JSON-ready dict with a type tag."""
    cls = type(message)
    if cls not in _WIRE_FIELDS:
        raise TypeError(f"not a wire message type: {cls.__name__}")
    payload = {}
    for name in _WIRE_FIELDS[cls]:  # messages are flat: no ``asdict`` deep copy
        value = getattr(message, name)
        # Tuples JSON-ify to lists; normalise here so round-trips are stable.
        payload[name] = list(value) if isinstance(value, tuple) else value
    return {"type": cls.__name__, "payload": payload}


def from_wire(data: Any, expected: Optional[type] = None) -> Any:
    """Decode a dict produced by :func:`to_wire` (of type ``expected``, if
    given): every required field of its type and no other, each of its
    declared type and within its rule. Any refusal is a ValueError."""
    type_name = data.get("type") if type(data) is dict else None
    cls = _MESSAGE_TYPES.get(type_name) if type(type_name) is str else None
    if cls is None:
        raise ValueError(f"unknown wire message type: {type_name!r}")
    if expected not in (None, cls):
        raise ValueError(f"expected a {expected.__name__}, got a {type_name}")
    payload, schema, values = data.get("payload"), _WIRE_FIELDS[cls], {}
    if type(payload) is not dict:
        raise ValueError(f"{type_name} payload is not an object: {payload!r}")
    try:
        for name, value in payload.items():
            values[name] = schema[name].decode(value)
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"{type_name}.{name}: {exc}") from None
    except (KeyError, TypeError):  # a field the type does not have, or one it lacks
        raise ValueError(f"{type_name} fields {list(payload)} are not {list(schema)}") from None


def read_field(payload: Dict[str, Any], name: str, kind: Any, default: Any = ...) -> Any:
    """An op argument no message declares (a user id, a serving port, a
    snapshot's stamps), held to the rules of a message field of that name
    and annotation: ValueError if refused, or absent with no ``default``."""
    return _read(payload, name, _decoder(kind, _RULES.get(name)), default)


def field_reader(name: str, kind: Any, default: Any = ...) -> Callable[[Dict[str, Any]], Any]:
    """:func:`read_field` of one argument, its decoder looked up once: for
    an op on a hot path (typing annotations hash slowly)."""
    decode = _decoder(kind, _RULES.get(name))
    return lambda payload: _read(payload, name, decode, default)


def _read(payload: Dict[str, Any], name: str, decode: Callable[[Any], Any], default: Any) -> Any:
    if name not in payload and default is not ...:
        return default
    try:
        return decode(payload[name])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{name}: {exc if isinstance(exc, ValueError) else 'missing'}") from None
