"""Composable, declarative fault plans.

A :class:`FaultPlan` is an ordered collection of rules, each with an
activation window expressed in *plan time* — milliseconds since the
scenario started. The sim backend interprets plan time as simulation
time; the live backend maps it onto the wall clock through a scale
factor (see :class:`repro.faults.injector.FaultInjector` and the chaos
controller in :mod:`repro.faults.scenarios`). The plan itself is pure
data: it holds no randomness and no clocks, which is what makes one
plan drivable through both backends and bit-reproducible in the sim.

Rule families:

- :class:`MessageFault` — per-link message drop / extra delay /
  duplication / reordering, matched by source, destination and
  operation patterns (``fnmatch``-style, so ``user-*`` covers a fleet).
- :class:`Partition` — an (optionally asymmetric) hard cut between two
  endpoint patterns: matching messages never arrive while the window
  is active. Client↔edge and edge↔manager partitions are both just
  endpoint patterns.
- :class:`NodeCrash` — crash at ``at_ms`` and, unlike the churn trace's
  permanent deaths, optionally *restart the same node id* at
  ``restart_at_ms`` (exercising Algorithm 1's seqNum reset and the
  what-if cache re-prime).
- :class:`ManagerOutage` — the Central Manager is unreachable during
  the window (discovery and heartbeats black-hole; the live chaos
  controller also stops the real server).
- :class:`GrayNode` — the node keeps heartbeating normally but serves
  frames ``slowdown``× slower during the window: the failure the
  liveness check cannot see, caught only by the performance monitor's
  drift trigger.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from fnmatch import fnmatchcase
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Window",
    "MessageFault",
    "Partition",
    "NodeCrash",
    "ManagerOutage",
    "GrayNode",
    "FaultPlan",
    "MESSAGE_OPS",
    "plan_to_dict",
    "plan_from_dict",
]

#: Every message operation an injector can intercept (mirrors the live
#: wire protocol ops; the sim's method calls map onto the same names).
MESSAGE_OPS = (
    "discover",
    "heartbeat",
    "probe",
    "join",
    "unexpected_join",
    "leave",
    "frame",
)


@dataclass(frozen=True)
class Window:
    """A half-open activation interval ``[start_ms, end_ms)`` in plan time."""

    start_ms: float = 0.0
    end_ms: float = float("inf")

    def __post_init__(self) -> None:
        if self.end_ms <= self.start_ms:
            raise ValueError(
                f"window must have positive length: {self.start_ms}..{self.end_ms}"
            )

    def contains(self, now_ms: float) -> bool:
        return self.start_ms <= now_ms < self.end_ms


def _matches(pattern: str, value: str) -> bool:
    return fnmatchcase(value, pattern)


@dataclass(frozen=True)
class MessageFault:
    """Probabilistic per-link message mangling while the window is active.

    Matching draws are made from the rule's own deterministic stream
    (derived from the plan seed and ``rule_id``), so two runs with the
    same seed mangle exactly the same messages.
    """

    rule_id: str
    window: Window = field(default_factory=Window)
    src: str = "*"
    dst: str = "*"
    ops: Tuple[str, ...] = ()  # empty = every op
    drop_p: float = 0.0
    delay_ms: float = 0.0
    delay_jitter_ms: float = 0.0
    delay_p: float = 1.0
    duplicate_p: float = 0.0

    def __post_init__(self) -> None:
        for name in ("drop_p", "duplicate_p", "delay_p"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{self.rule_id}: {name} must be in [0,1]: {p}")
        for op in self.ops:
            if op not in MESSAGE_OPS:
                raise ValueError(f"{self.rule_id}: unknown op {op!r}")
        if self.delay_ms < 0 or self.delay_jitter_ms < 0:
            raise ValueError(f"{self.rule_id}: delays must be non-negative")

    def matches(self, src: str, dst: str, op: str, now_ms: float) -> bool:
        return (
            self.window.contains(now_ms)
            and (not self.ops or op in self.ops)
            and _matches(self.src, src)
            and _matches(self.dst, dst)
        )


@dataclass(frozen=True)
class Partition:
    """A hard network cut between two endpoint patterns.

    Asymmetric by default (``a -> b`` blocked, ``b -> a`` untouched);
    ``symmetric=True`` cuts both directions. No randomness involved —
    partitions are deterministic by construction.
    """

    rule_id: str
    a: str
    b: str
    window: Window = field(default_factory=Window)
    symmetric: bool = True

    def blocks(self, src: str, dst: str, now_ms: float) -> bool:
        if not self.window.contains(now_ms):
            return False
        if _matches(self.a, src) and _matches(self.b, dst):
            return True
        return self.symmetric and _matches(self.b, src) and _matches(self.a, dst)


@dataclass(frozen=True)
class NodeCrash:
    """Crash ``node_id`` at ``at_ms``; optionally restart it later."""

    rule_id: str
    node_id: str
    at_ms: float
    restart_at_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.restart_at_ms is not None and self.restart_at_ms <= self.at_ms:
            raise ValueError(
                f"{self.rule_id}: restart {self.restart_at_ms} must come "
                f"after crash {self.at_ms}"
            )


@dataclass(frozen=True)
class ManagerOutage:
    """The Central Manager is unreachable while the window is active.

    With the default ``shard=None`` the whole manager goes dark (the
    seed behaviour: discovery and heartbeats black-hole). A shard index
    instead targets one control-plane shard: its primary replica goes
    down for the window, exercising standby promotion and, for the
    unlucky queries, the degraded-fallback path — the rest of the
    control plane keeps serving.
    """

    rule_id: str
    window: Window
    shard: Optional[int] = None

    def __post_init__(self) -> None:
        if self.shard is not None and self.shard < 0:
            raise ValueError(f"{self.rule_id}: shard must be >= 0: {self.shard}")

    def active(self, now_ms: float) -> bool:
        return self.window.contains(now_ms)


@dataclass(frozen=True)
class GrayNode:
    """Heartbeat-alive but ``slowdown``× slower frame service in-window."""

    rule_id: str
    node_id: str
    window: Window
    slowdown: float = 10.0

    def __post_init__(self) -> None:
        if self.slowdown < 1.0:
            raise ValueError(
                f"{self.rule_id}: gray slowdown must be >= 1: {self.slowdown}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """One seedable, backend-agnostic fault schedule.

    The plan is inert data; pair it with a seed inside a
    :class:`repro.faults.injector.FaultInjector` to get deterministic
    draws. Rule ids must be unique — they name the per-rule random
    streams and the ``rule_id`` field of emitted
    :class:`~repro.obs.events.FaultInjected` events.
    """

    message_faults: Tuple[MessageFault, ...] = ()
    partitions: Tuple[Partition, ...] = ()
    crashes: Tuple[NodeCrash, ...] = ()
    outages: Tuple[ManagerOutage, ...] = ()
    gray_nodes: Tuple[GrayNode, ...] = ()

    def __post_init__(self) -> None:
        seen = set()
        for rule in self.all_rules():
            if rule.rule_id in seen:
                raise ValueError(f"duplicate rule id: {rule.rule_id!r}")
            seen.add(rule.rule_id)

    def all_rules(self) -> Sequence[object]:
        return (
            *self.message_faults,
            *self.partitions,
            *self.crashes,
            *self.outages,
            *self.gray_nodes,
        )

    def __len__(self) -> int:
        return len(self.all_rules())

    def shard_targets(self) -> List[int]:
        """The control-plane shards this plan takes down, sorted.

        Non-empty means the plan needs a manager with shard state (and
        that the control-plane recovery checks apply to the run).
        """
        return sorted({o.shard for o in self.outages if o.shard is not None})

    def describe(self) -> List[str]:
        """One human-readable line per rule (CLI summaries)."""
        lines: List[str] = []
        for mf in self.message_faults:
            parts = []
            if mf.drop_p:
                parts.append(f"drop {mf.drop_p:.0%}")
            if mf.delay_ms or mf.delay_jitter_ms:
                parts.append(f"delay {mf.delay_ms:+.0f}±{mf.delay_jitter_ms:.0f}ms")
            if mf.duplicate_p:
                parts.append(f"dup {mf.duplicate_p:.0%}")
            ops = ",".join(mf.ops) if mf.ops else "*"
            lines.append(
                f"{mf.rule_id}: {' '.join(parts) or 'noop'} on "
                f"{mf.src}->{mf.dst} [{ops}] "
                f"@{mf.window.start_ms:.0f}..{mf.window.end_ms:.0f}"
            )
        for p in self.partitions:
            arrow = "<->" if p.symmetric else "->"
            lines.append(
                f"{p.rule_id}: partition {p.a}{arrow}{p.b} "
                f"@{p.window.start_ms:.0f}..{p.window.end_ms:.0f}"
            )
        for c in self.crashes:
            restart = (
                f", restart @{c.restart_at_ms:.0f}"
                if c.restart_at_ms is not None
                else ""
            )
            lines.append(f"{c.rule_id}: crash {c.node_id} @{c.at_ms:.0f}{restart}")
        for o in self.outages:
            target = "manager outage" if o.shard is None else f"shard {o.shard} outage"
            lines.append(
                f"{o.rule_id}: {target} "
                f"@{o.window.start_ms:.0f}..{o.window.end_ms:.0f}"
            )
        for g in self.gray_nodes:
            lines.append(
                f"{g.rule_id}: gray {g.node_id} x{g.slowdown:.0f} "
                f"@{g.window.start_ms:.0f}..{g.window.end_ms:.0f}"
            )
        return lines


# --- JSON round-tripping -------------------------------------------------
#
# Plans travel inside repro artifacts emitted by the schedule search
# (see repro.faults.search), so they need a stable wire form. Unbounded
# windows serialize ``end_ms`` as null — JSON has no Infinity.


def _window_to_dict(w: Window) -> Dict[str, Any]:
    return {
        "start_ms": w.start_ms,
        "end_ms": None if w.end_ms == float("inf") else w.end_ms,
    }


def _window_from_dict(data: Dict[str, Any]) -> Window:
    end = data.get("end_ms")
    return Window(
        start_ms=float(data.get("start_ms", 0.0)),
        end_ms=float("inf") if end is None else float(end),
    )


#: ``FaultPlan`` field -> the rule type it holds.
_RULE_TYPES = {
    "message_faults": MessageFault,
    "partitions": Partition,
    "crashes": NodeCrash,
    "outages": ManagerOutage,
    "gray_nodes": GrayNode,
}


def _rule_to_dict(rule: Any) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for f in fields(rule):
        value = getattr(rule, f.name)
        if isinstance(value, Window):
            value = _window_to_dict(value)
        elif isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return out


def _rule_from_dict(rule_type: Any, data: Dict[str, Any]) -> Any:
    """Absent keys take the rule type's own defaults (an absent window
    is the always-active one)."""
    kwargs = dict(data)
    if "ops" in kwargs:
        kwargs["ops"] = tuple(kwargs["ops"])
    if "window" in rule_type.__dataclass_fields__:
        kwargs["window"] = _window_from_dict(kwargs.get("window", {}))
    return rule_type(**kwargs)


def plan_to_dict(plan: FaultPlan) -> Dict[str, Any]:
    """A JSON-safe dict that :func:`plan_from_dict` round-trips exactly."""
    return {
        family: [_rule_to_dict(rule) for rule in getattr(plan, family)]
        for family in _RULE_TYPES
    }


def plan_from_dict(data: Dict[str, Any]) -> FaultPlan:
    """Rebuild a :class:`FaultPlan` from :func:`plan_to_dict` output."""
    return FaultPlan(
        **{
            family: tuple(_rule_from_dict(rule_type, r) for r in data.get(family, ()))
            for family, rule_type in _RULE_TYPES.items()
        }
    )
