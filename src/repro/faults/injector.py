"""The seeded fault-injection engine shared by both backends.

A :class:`FaultInjector` binds one :class:`~repro.faults.plan.FaultPlan`
to a seed. Every probabilistic rule draws from its **own** named random
stream (derived ``sha256(seed, rule_id)`` via
:class:`~repro.sim.random.RandomStreams`), so adding or removing one
rule never perturbs another rule's draws, and the same seed replays the
exact same faults.

Both backends consult the injector at their protocol-driver boundary:

- the sim's :class:`~repro.core.client.EdgeClient` /
  :class:`~repro.core.edge_server.EdgeServer` call :meth:`decide`
  before delivering discovery/probe/join/frame/heartbeat messages, and
  ``EdgeSystem(..., faults=injector)`` schedules :meth:`node_actions`
  on the kernel at construction;
- the live :class:`~repro.runtime.client_runtime.LiveClient` /
  :class:`~repro.runtime.edge_server.LiveEdgeServer` call the same
  :meth:`decide` before touching a socket, and the chaos controller in
  :mod:`repro.faults.scenarios` executes :meth:`node_actions` on the
  wall clock.

The no-faults fast path is a single ``injector is None`` check at every
intercept site — a system built without an injector runs bit-identical
to one that predates this module.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.faults.plan import FaultPlan, MessageFault
from repro.obs.events import FaultInjected
from repro.obs.tracer import Tracer
from repro.sim.random import RandomStreams
from repro.world import MANAGER_ID

__all__ = ["MessageDecision", "NodeAction", "FaultInjector", "MANAGER_ID"]


@dataclass(frozen=True)
class MessageDecision:
    """The injector's verdict for one message send."""

    deliver: bool = True
    extra_delay_ms: float = 0.0
    copies: int = 1
    rule_id: str = ""
    kind: str = ""


#: Shared verdict for the overwhelmingly common "no fault" case — one
#: allocation for the whole program keeps the faulted hot path cheap.
_DELIVER = MessageDecision()


@dataclass(frozen=True)
class NodeAction:
    """One scheduled node-level fault transition.

    ``kind`` is ``crash`` / ``restart`` / ``gray_start`` / ``gray_end``
    / ``outage_start`` / ``outage_end``; ``node_id`` is empty for
    manager-outage actions. ``factor`` carries the gray slowdown;
    ``shard`` carries the target of a shard-scoped manager outage
    (None for the seed's whole-manager outage).
    """

    t_ms: float
    kind: str
    rule_id: str
    node_id: str = ""
    factor: float = 1.0
    shard: Optional[int] = None


class FaultInjector:
    """Deterministic fault decisions for one (plan, seed) pair.

    Args:
        plan: the fault schedule.
        seed: root of the per-rule random streams.
        tracer: where :class:`~repro.obs.events.FaultInjected` events go
            (settable later; the sim's :class:`EdgeSystem` wires its own).
        event_clock: optional override for event timestamps — the live
            backend passes ``tracer.now`` so fault events share the
            wall-clock epoch of every other live event; the sim leaves
            it None and events carry plan time (= sim time).
    """

    def __init__(
        self,
        plan: FaultPlan,
        seed: int = 0,
        *,
        tracer: Optional[Tracer] = None,
        event_clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.plan = plan
        self.seed = seed
        self.tracer = tracer if tracer is not None else Tracer.disabled()
        self.event_clock = event_clock
        streams = RandomStreams(seed)
        self._rngs: Dict[str, random.Random] = {
            rule.rule_id: streams.get(f"fault.{rule.rule_id}")
            for rule in plan.message_faults
        }
        #: kind -> count of faults actually fired (reports / tests).
        self.injected: Counter = Counter()

    # ------------------------------------------------------------------
    def _emit(self, rule_id: str, kind: str, src: str, dst: str, now_ms: float) -> None:
        self.injected[kind] += 1
        t_ms = self.event_clock() if self.event_clock is not None else now_ms
        self.tracer.emit(FaultInjected(t_ms, rule_id, kind, src, dst))

    # ------------------------------------------------------------------
    # Message-level faults
    # ------------------------------------------------------------------
    def decide(self, src: str, dst: str, op: str, now_ms: float) -> MessageDecision:
        """Verdict for one message ``src -> dst`` of operation ``op``.

        Partitions and manager outages are checked first (deterministic,
        no draws); probabilistic message rules apply afterwards, each
        drawing from its own stream. The first rule that drops the
        message wins; delays and duplications from multiple matching
        rules compose.

        Every matching rule consumes its draws for every message, even
        when another rule already decided to drop it: a rule's stream
        position depends only on the message history it matched, never
        on which other rules exist or in what order — the determinism
        contract that makes schedule shrinking sound (dropping or
        reordering rules replays the survivors bit-identically).
        """
        if self.manager_down(now_ms) and (src == MANAGER_ID or dst == MANAGER_ID):
            outage = next(
                o
                for o in self.plan.outages
                if o.shard is None and o.active(now_ms)
            )
            self._emit(outage.rule_id, "outage", src, dst, now_ms)
            return MessageDecision(
                deliver=False, rule_id=outage.rule_id, kind="outage"
            )
        for partition in self.plan.partitions:
            if partition.blocks(src, dst, now_ms):
                self._emit(partition.rule_id, "partition", src, dst, now_ms)
                return MessageDecision(
                    deliver=False, rule_id=partition.rule_id, kind="partition"
                )
        extra_delay = 0.0
        copies = 1
        hit_rule = ""
        hit_kind = ""
        dropper: Optional[MessageFault] = None
        for rule in self.plan.message_faults:
            if not rule.matches(src, dst, op, now_ms):
                continue
            rng = self._rngs[rule.rule_id]
            if rule.drop_p > 0.0 and rng.random() < rule.drop_p:
                # Self-drop ends this rule's draws for the message (as
                # it always did), but the loop keeps walking so later
                # rules still advance their own streams.
                if dropper is None:
                    dropper = rule
                continue
            if (rule.delay_ms > 0.0 or rule.delay_jitter_ms > 0.0) and (
                rule.delay_p >= 1.0 or rng.random() < rule.delay_p
            ):
                jitter = (
                    rng.uniform(-rule.delay_jitter_ms, rule.delay_jitter_ms)
                    if rule.delay_jitter_ms > 0.0
                    else 0.0
                )
                added = max(0.0, rule.delay_ms + jitter)
                if added > 0.0 and dropper is None:
                    extra_delay += added
                    hit_rule, hit_kind = rule.rule_id, "delay"
                    self._emit(rule.rule_id, "delay", src, dst, now_ms)
            if rule.duplicate_p > 0.0 and rng.random() < rule.duplicate_p:
                if dropper is None:
                    copies += 1
                    hit_rule, hit_kind = rule.rule_id, "duplicate"
                    self._emit(rule.rule_id, "duplicate", src, dst, now_ms)
        if dropper is not None:
            self._emit(dropper.rule_id, "drop", src, dst, now_ms)
            return MessageDecision(
                deliver=False, rule_id=dropper.rule_id, kind="drop"
            )
        if extra_delay == 0.0 and copies == 1:
            return _DELIVER
        return MessageDecision(
            deliver=True,
            extra_delay_ms=extra_delay,
            copies=copies,
            rule_id=hit_rule,
            kind=hit_kind,
        )

    # ------------------------------------------------------------------
    # Node-level fault state
    # ------------------------------------------------------------------
    def manager_down(self, now_ms: float) -> bool:
        """Whole-manager outage in effect? Shard-targeted outages do not
        black-hole messages — they drive the sharded manager's replica
        state instead (``EdgeSystem._apply_fault_action``)."""
        return any(
            o.shard is None and o.active(now_ms) for o in self.plan.outages
        )

    def gray_factor(self, node_id: str, now_ms: float) -> float:
        """The frame-service slowdown in effect for ``node_id`` (1.0 =
        healthy). Heartbeats are never affected — that blindness is the
        point of the gray-node fault."""
        factor = 1.0
        for gray in self.plan.gray_nodes:
            if gray.node_id == node_id and gray.window.contains(now_ms):
                factor = max(factor, gray.slowdown)
        return factor

    def node_actions(self) -> List[NodeAction]:
        """Every scheduled node/manager transition, time-ordered.

        Drivers execute these on their own clocks: the sim schedules
        kernel timers, the live chaos controller sleeps scaled wall
        time. Message-level rules need no actions — they are consulted
        per message via :meth:`decide`.
        """
        actions: List[NodeAction] = []
        for crash in self.plan.crashes:
            actions.append(
                NodeAction(crash.at_ms, "crash", crash.rule_id, crash.node_id)
            )
            if crash.restart_at_ms is not None:
                actions.append(
                    NodeAction(
                        crash.restart_at_ms, "restart", crash.rule_id, crash.node_id
                    )
                )
        for gray in self.plan.gray_nodes:
            actions.append(
                NodeAction(
                    gray.window.start_ms,
                    "gray_start",
                    gray.rule_id,
                    gray.node_id,
                    factor=gray.slowdown,
                )
            )
            if gray.window.end_ms != float("inf"):
                actions.append(
                    NodeAction(
                        gray.window.end_ms, "gray_end", gray.rule_id, gray.node_id
                    )
                )
        for outage in self.plan.outages:
            actions.append(
                NodeAction(
                    outage.window.start_ms,
                    "outage_start",
                    outage.rule_id,
                    shard=outage.shard,
                )
            )
            if outage.window.end_ms != float("inf"):
                actions.append(
                    NodeAction(
                        outage.window.end_ms,
                        "outage_end",
                        outage.rule_id,
                        shard=outage.shard,
                    )
                )
        actions.sort(key=lambda a: (a.t_ms, a.rule_id, a.kind))
        return actions

    def __repr__(self) -> str:
        return (
            f"FaultInjector(seed={self.seed}, rules={len(self.plan)}, "
            f"injected={dict(self.injected)})"
        )
