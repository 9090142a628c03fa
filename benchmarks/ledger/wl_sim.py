"""Per-event simulator workloads: ``sim_frames`` and ``sim_select``.

Same population, opposite stress. ``sim_frames`` probes every 5 s, so
nearly every event is a frame moving through uplink → node → response
and the event queue, ``net`` and ``metrics`` carry the run.
``sim_select`` probes every 250 ms over a small discovery radius while
nodes crash and restart, so control messages (discover, probe, join,
failover) carry it and the frame path is a minority.

A round is a fresh build + 2 simulated seconds of warm-up (the set-up)
followed by timed windows of one simulated second each; the operation
is a frame resolved (completed or lost) inside a window.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional

from repro.api import EndpointSpec, ScenarioBuilder
from repro.core.config import SystemConfig
from repro.core.manager import CentralManager
from repro.core.system import EdgeSystem
from repro.geo.region import MSP_CENTER, MetroArea
from repro.metrics.collector import MetricsCollector
from repro.net.topology import NetworkTopology
from repro.nodes.hardware import VOLUNTEER_PROFILES
from repro.obs.profile import KernelProfiler
from repro.obs.tracer import Tracer
from repro.policy import SelectionPolicy
from repro.protocol.admission import AdmissionMachine
from repro.protocol.global_select import GlobalSelectionMachine
from repro.protocol.selection import SelectionMachine

from harness import Run, Slice, Timed, Workload

WARMUP_MS = 2_000.0

#: KernelProfiler handler kinds grouped by the path they belong to.
FRAME_KINDS = ("uplink", "frame", "resp", "cache", "dup")
SELECT_KINDS = ("discover", "discover-timeout", "probe", "probed", "join",
                "retry", "failover", "leave")
HEARTBEAT_KINDS = ("heartbeat", "hb", "perfmon", "testwl", "lease")


def _policy_classes() -> List[type]:
    """Every SelectionPolicy subclass that defines its own ``score``."""
    found, todo = [], [SelectionPolicy]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if "score" in cls.__dict__:
                found.append(cls)
    return found


class SimWorkload(Workload):
    fresh_setup_per_round = True
    #: profile = KernelProfiler only (clean per-kind handler shares);
    #: spans = function wrappers only; obs = the repo's own trace capture.
    trace_variants = ("plain", "profile", "spans", "obs")
    region_km = 40.0
    config: Dict[str, Any] = {}
    #: (crashes per simulated second, restart delay ms) or None.
    crashes: Optional[tuple] = None

    def __init__(self, seed, smoke, recorder) -> None:
        super().__init__(seed, smoke, recorder)
        self.nodes, self.users = (60, 12) if smoke else (300, 60)
        self.window_ms = 500.0 if smoke else 1_000.0
        self.windows_per_round = 4 if smoke else 10
        self.sizes = {
            "nodes": self.nodes, "users": self.users, "region_km": self.region_km,
            "warmup_sim_ms": WARMUP_MS, "window_sim_ms": self.window_ms,
            "windows_per_round": self.windows_per_round, "policy": "go",
            "loop": "closed: one process steps the simulator", **self.config,
        }
        if self.crashes:
            self.sizes["crash_per_sim_s"], self.sizes["restart_after_ms"] = self.crashes
        self.system: Optional[EdgeSystem] = None
        #: Sums over profile rounds for the per-layer figures.
        self._kinds: Dict[str, List[float]] = {}   # kind -> [count, total_ms]
        self._queue_depth: List[float] = []
        self._profiled_wall_s = 0.0
        self._profiled_events = 0
        self._events_per_round = 0

    # ------------------------------------------------------------------
    def _build(self, variant: str) -> EdgeSystem:
        rng = random.Random(self.seed)
        area = MetroArea(MSP_CENTER, self.region_km, rng)
        builder = ScenarioBuilder(
            SystemConfig(seed=self.seed, **self.config)
        ).default_node_spec(
            EndpointSpec(MSP_CENTER, uplink_mbps=40.0, downlink_mbps=300.0)
        )
        for i in range(self.nodes):
            builder.node(f"n{i:05d}", VOLUNTEER_PROFILES[i % len(VOLUNTEER_PROFILES)],
                         point=area.sample())
        for i in range(self.users):
            builder.client(f"u{i:04d}", point=area.sample())
        if variant == "obs":
            builder.observe(trace=True)
        elif variant == "profile":
            builder.observe(trace=False, profile_kernel=True)
        system = builder.build()
        if self.crashes:
            self._schedule_crashes(system, rng)
        return system

    def _schedule_crashes(self, system: EdgeSystem, rng: random.Random) -> None:
        """Seeded crash/restart schedule over the whole round."""
        per_s, restart_ms = self.crashes
        horizon_ms = WARMUP_MS + self.window_ms * self.windows_per_round
        node_ids = list(system.nodes)

        def restart(node_id: str) -> None:
            if not system.nodes[node_id].alive:
                system.restart_node(node_id)

        for k in range(int(horizon_ms / 1000.0 * per_s)):
            at = (k + rng.random()) * 1000.0 / per_s
            victim = rng.choice(node_ids)
            system.sim.schedule_at(at, lambda v=victim: system.fail_node(v),
                                   label="ledger.crash")
            system.sim.schedule_at(at + restart_ms, lambda v=victim: restart(v),
                                   label="ledger.restart")

    def setup(self, variant: str = "plain") -> None:
        if variant == "spans":
            self._install()
        self.system = self._build(variant)
        self.system.run_for(WARMUP_MS)
        self._events0 = self.system.sim.events_processed
        self._frames0 = len(self.system.metrics.frames)
        self._profile0 = self._profile()
        self._round_wall_s = 0.0

    def teardown(self) -> None:
        self.system = None
        if self.recorder is not None:
            self.recorder.unwrap_all()

    def _install(self) -> None:
        rec = self.recorder
        rec.round += 1
        rec.wrap(CentralManager, "discover", "core.manager.discover")
        rec.wrap(SelectionMachine, "handle", "protocol.selection.handle")
        rec.wrap(AdmissionMachine, "handle", "protocol.admission.handle")
        rec.wrap(GlobalSelectionMachine, "handle", "protocol.global_select.handle")
        for cls in _policy_classes():
            rec.wrap(cls, "score", "policy.score")
        rec.wrap(NetworkTopology, "rtt_ms", "net.rtt")
        rec.wrap(NetworkTopology, "transfer_ms", "net.transfer")
        rec.wrap(Tracer, "emit", "obs.emit")
        rec.wrap(MetricsCollector, "on_event", "metrics.on_event")

    def _profile(self) -> Dict[str, List[float]]:
        profiler: Optional[KernelProfiler] = self.system.sim.profiler
        if profiler is None:
            return {}
        return {k: [v["count"], v["total_ms"]] for k, v in profiler.snapshot().items()}

    # ------------------------------------------------------------------
    def window(self, variant: str) -> Slice:
        system = self.system
        frames = system.metrics.frames
        before = len(frames)
        with Timed() as t:
            system.run_for(self.window_ms)
        self._round_wall_s += t.wall_s
        resolved = frames[before:]
        lost = sum(1 for f in resolved if f.lost)
        # Frames lost to an injected crash are the workload's expected
        # output (pinned by the digest); without injection a loss fails.
        return Slice(len(resolved), 0 if self.crashes else lost, t.cpu_s, t.wall_s)

    def end_round(self, variant: str) -> Dict[str, Any]:
        system = self.system
        metrics = system.metrics
        frames = metrics.frames[self._frames0:]
        done = [f.latency_ms for f in frames if not f.lost]
        events = system.sim.events_processed - self._events0
        self._events_per_round = events
        if not done:
            self.problems.append("no frame completed in a round")
        if variant == "profile":
            profile = self._profile()
            for kind, (count, total_ms) in profile.items():
                c0, t0 = self._profile0.get(kind, (0, 0.0))
                agg = self._kinds.setdefault(kind, [0, 0.0])
                agg[0] += count - c0
                agg[1] += total_ms - t0
            self._queue_depth.append(system.sim.profiler.mean_queue_depth)
            self._profiled_wall_s += self._round_wall_s
            self._profiled_events += events
        return {
            "events": events,
            "frames_done": len(done),
            "frames_lost": len(frames) - len(done),
            "mean_latency_ms": round(sum(done) / len(done), 6) if done else None,
            "switches": metrics.total_switches(),
            "failovers": sum(metrics.covered_failovers.values()),
            "uncovered": metrics.total_failures(),
        }

    # ------------------------------------------------------------------
    def layer_metrics(self, run: Run) -> Dict[str, float]:
        rec = self.recorder
        handler_ms = sum(t for _, t in self._kinds.values()) or 1.0
        events = self._profiled_events or 1

        def group(kinds) -> List[float]:
            count = sum(self._kinds.get(k, [0, 0.0])[0] for k in kinds)
            total_ms = sum(self._kinds.get(k, [0, 0.0])[1] for k in kinds)
            return [count, total_ms]

        frame, select, beat = group(FRAME_KINDS), group(SELECT_KINDS), group(HEARTBEAT_KINDS)
        select_rounds = self._kinds.get("probe", [0, 0.0])[0]
        score = rec.total("policy.score")
        out = {
            "sim.events": float(self._events_per_round),
            "sim.queue_depth_mean": sum(self._queue_depth) / max(1, len(self._queue_depth)),
            "sim.dispatch_us_per_event":
                max(0.0, self._profiled_wall_s * 1e3 - handler_ms) / events * 1e3,
            "core.frame_path.share": frame[1] / handler_ms,
            "core.frame_path.us_per_event": frame[1] / max(1, frame[0]) * 1e3,
            "core.select_path.share": select[1] / handler_ms,
            "core.select_path.us_per_round": select[1] / max(1, select_rounds) * 1e3,
            "core.heartbeat.share": beat[1] / handler_ms,
            "policy.scores_per_round": score.calls / max(1, select_rounds),
            "metrics.on_event.self_us": rec.total("metrics.on_event").self_us_per_call,
            "obs.trace_overhead_pct": run.overhead_pct("obs"),
            # the profiler's per-handler records are the sim's top-level spans
            "ledger.unattributed_share": run.unattributed_share(handler_ms / 1e3, "profile"),
            "cpu_s_per_sim_s": run.median("plain", "raw_cpu_us_per_op")
                * (run.digest["frames_done"] + run.digest["frames_lost"])
                / (self.window_ms * self.windows_per_round) / 1e3,
            "frames_lost": float(run.digest["frames_lost"]),
        }
        out.update(rec.calls_and_self_us(
            ("core.manager.discover", "protocol.selection.handle",
             "protocol.admission.handle", "protocol.global_select.handle",
             "policy.score", "net.rtt", "net.transfer", "obs.emit"), run.count("spans")))
        return out


class SimFrames(SimWorkload):
    name = "sim_frames"
    # At the default 2 s the select path is still 35 % of handler time;
    # 5 s leaves it under the 25 % the contrast with sim_select asks for.
    config = {"probing_period_ms": 5_000.0}


class SimSelect(SimWorkload):
    name = "sim_select"
    config = {"probing_period_ms": 250.0, "discovery_radius_km": 8.0}
    crashes = (1.0, 5_000.0)
