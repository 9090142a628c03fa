"""Driving a metro simulation: epoch loop, shard workers, reporting.

:class:`MetroSimulation` owns the whole-run lifecycle: generate the
population, plan the partition, build one :class:`~repro.metro.kernel.
MetroKernel` per shard, then alternate *step an epoch* / *exchange the
boundary channel* until the horizon. Shards share no mutable state and
only communicate through the routed :class:`~repro.metro.kernel.
ShardOutbox`/:class:`~repro.metro.kernel.ShardInbox` values, so serial
in-process stepping and forked worker processes produce identical
results — workers (``ShardSpec.workers > 1``) are purely a wall-clock
optimization, reusing the sweep executor's fork-first discipline.

Determinism contract (see DESIGN.md §11): for a fixed (spec, config
seed, shard count) the full trace-event multiset and every counter are
reproducible; with ``count=1`` the run is bit-identical, event for
event, to stepping an unsharded :class:`MetroKernel` directly. The
report's trace is in time order: the shards' time-ordered traces merged
by ``t_ms``, ties in shard order.
"""

from __future__ import annotations

import heapq
import multiprocessing
import time
from dataclasses import dataclass, field
from math import ceil, isfinite
from multiprocessing.connection import Connection
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from repro.core.config import SystemConfig
from repro.metro.kernel import (
    MetroKernel,
    MetroShardReport,
    ShardInbox,
    ShardOutbox,
)
from repro.metro.shard import ShardPlan, plan_shards
from repro.metro.spec import EPOCH_MS, TICK_MS, MetroSpec, build_population
from repro.metro.spec import quantize_ticks
from repro.obs.events import TraceEvent
from repro.obs.tracer import Tracer

__all__ = ["MetroSimulation", "MetroReport"]

#: Per-shard trace ring size when capturing.
_TRACE_EVENTS_PER_SHARD = 1 << 20


@dataclass
class MetroReport:
    """Aggregated outcome of one metro run."""

    spec_nodes: int
    spec_users: int
    sim_seconds: float
    shards: int
    workers: int
    frames_done: int
    frames_lost: int
    switches: int
    covered_failovers: int
    uncovered_failures: int
    handoffs: int
    unattached_initial: int
    latency_sum_ms: float
    latency_max_ms: float
    frames_advanced: int
    control_ops: int
    wall_s: float
    shard_reports: List[MetroShardReport] = field(default_factory=list)
    trace_events: List[TraceEvent] = field(default_factory=list)

    @property
    def mean_latency_ms(self) -> float:
        if self.frames_done == 0:
            raise ValueError("no completed frames")
        return self.latency_sum_ms / self.frames_done

    @property
    def events_processed(self) -> int:
        """Frames advanced plus control-plane operations."""
        return self.frames_advanced + self.control_ops

    @property
    def wall_s_per_sim_s(self) -> float:
        return self.wall_s / self.sim_seconds

    @property
    def events_per_wall_s(self) -> float:
        return self.events_processed / self.wall_s if self.wall_s > 0 else 0.0


def _route_outboxes(
    plan: ShardPlan, outboxes: List[ShardOutbox]
) -> List[ShardInbox]:
    """Turn per-shard outboxes into per-shard inboxes.

    Ghost refreshes go to every shard advertising that gid; migrations
    go to the shard owning the target node. Inbox contents are sorted
    (by gid) by the kernel on application, so routing order never
    matters.
    """
    all_exports: Dict[int, Tuple[float, bool]] = {}
    for out in outboxes:
        all_exports.update(out.exports)
    inboxes = [ShardInbox() for _ in range(plan.count)]
    for g in range(plan.count):
        for gid in plan.ghost_gids[g].tolist():
            value = all_exports.get(gid)
            if value is not None:
                inboxes[g].ghost_updates[gid] = value
    for out in outboxes:
        for record in out.migrations:
            dest = int(plan.node_shard[record.target_gid])
            inboxes[dest].migrations.append(record)
    return inboxes


def _worker_loop(kernel: MetroKernel, conn: "Connection") -> None:
    """Child process: step on command, exchange epochs, report, exit."""
    while True:
        msg = conn.recv()
        kind = msg[0]
        if kind == "step":
            kernel.step_to(msg[1])
            conn.send(kernel.finish_epoch())
        elif kind == "inbox":
            kernel.apply_inbox(msg[1])
            conn.send("ok")
        elif kind == "report":
            conn.send(kernel.report())
            conn.close()
            return


class MetroSimulation:
    """Build and run a (possibly sharded) metro-scale simulation; the
    shards exchange the boundary channel every 1 000 ms (four ticks).

    Args:
        spec: deployment shape. Its ``shard`` field is the only place
            the partition is set.
        config: system tunables (defaults to ``SystemConfig()``).
        capture_trace: capture the typed trace-event stream per shard,
            up to the last ``_TRACE_EVENTS_PER_SHARD`` events of each
            (sized for tests/smokes, not for million-user runs).
    """

    def __init__(
        self,
        spec: MetroSpec,
        config: Optional[SystemConfig] = None,
        *,
        capture_trace: bool = False,
    ) -> None:
        self.config = config if config is not None else SystemConfig()
        self.spec = spec
        self.capture_trace = capture_trace
        self._fail_schedule: List[Tuple[int, float]] = []

    def schedule_node_fail(self, node_gid: int, at_ms: float) -> None:
        """Kill node ``n{node_gid}`` at (the tick boundary covering)
        ``at_ms``.

        Raises:
            ValueError: ``node_gid`` is outside ``[0, spec.nodes)``, or
                ``at_ms`` is negative or not finite.
        """
        gid, at = int(node_gid), float(at_ms)
        if not 0 <= gid < self.spec.nodes:
            raise ValueError(f"node gid {gid} is outside [0, {self.spec.nodes})")
        if not (0.0 <= at and isfinite(at)):
            raise ValueError(f"at_ms must be finite and >= 0: {at}")
        self._fail_schedule.append((gid, at))

    # ------------------------------------------------------------------
    def build_kernels(self) -> Tuple[ShardPlan, List[MetroKernel]]:
        """Generate the population and construct one kernel per shard."""
        population = build_population(self.spec, self.config.seed)
        plan = plan_shards(self.spec, population)
        kernels: List[MetroKernel] = []
        for g in range(plan.count):
            tracer = (
                Tracer(enabled=True, capacity=_TRACE_EVENTS_PER_SHARD)
                if self.capture_trace
                else None
            )
            kernels.append(
                MetroKernel(
                    self.config,
                    self.spec,
                    population,
                    shard_id=plan.shard_ids[g],
                    node_gids=plan.node_gids[g],
                    user_gids=plan.user_gids[g],
                    ghost_gids=plan.ghost_gids[g],
                    ghost_shards=[plan.shard_ids[o] for o in plan.ghost_owners[g]],
                    export_gids=plan.export_gids[g],
                    tracer=tracer,
                )
            )
        for gid, at_ms in self._fail_schedule:
            kernels[int(plan.node_shard[gid])].schedule_node_fail(gid, at_ms)
        return plan, kernels

    def run(self, sim_seconds: float) -> MetroReport:
        """Run for ``sim_seconds`` (rounded up to whole ticks)."""
        if sim_seconds <= 0:
            raise ValueError(f"sim_seconds must be positive: {sim_seconds}")
        started = time.perf_counter()
        plan, kernels = self.build_kernels()
        end_ms = quantize_ticks(sim_seconds * 1000.0) * TICK_MS
        epochs = int(ceil(end_ms / EPOCH_MS - 1e-9))
        boundaries = [min((e + 1) * EPOCH_MS, end_ms) for e in range(epochs)]

        workers = self.spec.shard.workers
        use_workers = (
            workers > 1
            and plan.count > 1
            and "fork" in multiprocessing.get_all_start_methods()
        )
        if use_workers:
            reports = self._run_workers(plan, kernels, boundaries)
        else:
            reports = self._run_serial(plan, kernels, boundaries)

        wall = time.perf_counter() - started
        return self._merge(plan, reports, sim_seconds, wall)

    def _run_serial(
        self,
        plan: ShardPlan,
        kernels: List[MetroKernel],
        boundaries: List[float],
    ) -> List[MetroShardReport]:
        for t_next in boundaries:
            outboxes = []
            for kernel in kernels:
                kernel.step_to(t_next)
                outboxes.append(kernel.finish_epoch())
            for kernel, inbox in zip(kernels, _route_outboxes(plan, outboxes)):
                kernel.apply_inbox(inbox)
        return [kernel.report() for kernel in kernels]

    def _run_workers(
        self,
        plan: ShardPlan,
        kernels: List[MetroKernel],
        boundaries: List[float],
    ) -> List[MetroShardReport]:
        """Step each shard in a forked worker, barrier-synchronized at
        every boundary epoch. Identical results to serial stepping:
        shards exchange exactly the same routed inboxes."""
        context = multiprocessing.get_context("fork")
        pipes = []
        procs = []
        try:
            for kernel in kernels:
                parent, child = context.Pipe()
                proc = context.Process(
                    target=_worker_loop, args=(kernel, child), daemon=True
                )
                proc.start()
                child.close()
                pipes.append(parent)
                procs.append(proc)
            for t_next in boundaries:
                for pipe in pipes:
                    pipe.send(("step", t_next))
                outboxes = [pipe.recv() for pipe in pipes]
                for pipe, inbox in zip(pipes, _route_outboxes(plan, outboxes)):
                    pipe.send(("inbox", inbox))
                for pipe in pipes:
                    pipe.recv()
            for pipe in pipes:
                pipe.send(("report",))
            return [pipe.recv() for pipe in pipes]
        finally:
            for pipe in pipes:
                pipe.close()
            for proc in procs:
                proc.join(timeout=10)
                if proc.is_alive():  # pragma: no cover - hung worker
                    proc.terminate()

    def _merge(
        self,
        plan: ShardPlan,
        reports: List[MetroShardReport],
        sim_seconds: float,
        wall_s: float,
    ) -> MetroReport:
        return MetroReport(
            spec_nodes=self.spec.nodes,
            spec_users=self.spec.users,
            sim_seconds=sim_seconds,
            shards=plan.count,
            workers=self.spec.shard.workers,
            frames_done=sum(r.frames_done for r in reports),
            frames_lost=sum(r.frames_lost for r in reports),
            switches=sum(r.switches for r in reports),
            covered_failovers=sum(r.covered_failovers for r in reports),
            uncovered_failures=sum(r.uncovered_failures for r in reports),
            handoffs=sum(r.handoffs_out for r in reports),
            unattached_initial=sum(r.unattached_initial for r in reports),
            latency_sum_ms=sum(r.latency_sum_ms for r in reports),
            latency_max_ms=max((r.latency_max_ms for r in reports), default=0.0),
            frames_advanced=sum(r.frames_advanced for r in reports),
            control_ops=sum(r.control_ops for r in reports),
            wall_s=wall_s,
            shard_reports=reports,
            # Each shard's trace is time-ordered; ties keep shard order.
            trace_events=list(
                heapq.merge(*(r.trace_events for r in reports), key=attrgetter("t_ms"))
            ),
        )

