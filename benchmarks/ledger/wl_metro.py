"""Metro-kernel workloads: ``metro_cohort`` and ``metro_reselect``.

``metro_cohort`` disables probing, so after the one-per-user initial
attach there is no control operation at all and the run is numpy cohort
advancement in ``MetroKernel.step_to``. ``metro_reselect`` turns
probing on over four shards and fails 1 % of the nodes, so per-user
Python re-selection, failure detection and the boundary channel carry
the run — the cost ``metro_cohort`` cannot see.

A round is one whole ``MetroSimulation.run()`` (build included, as the
``metro`` section of BENCH_perf.json times it); the operation is a frame
resolved. Set-up is ``build_kernels()`` timed on its own.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Optional

from repro.core.config import SystemConfig
from repro.metro import MetroKernel, MetroReport, MetroSimulation, MetroSpec, ShardSpec

from harness import Run, Slice, Timed, Workload


class MetroWorkload(Workload):
    shards = 1
    probing_period_ms = 3.6e6
    fail_share = 0.0

    def __init__(self, seed, smoke, recorder) -> None:
        super().__init__(seed, smoke, recorder)
        self.nodes, self.users, self.sim_seconds = self.size(smoke)
        self.spec = MetroSpec(
            nodes=self.nodes, users=self.users, fps=4.0,
            shard=ShardSpec(count=self.shards, workers=1),
        )
        self.config = SystemConfig(seed=seed, probing_period_ms=self.probing_period_ms)
        self.sizes = {
            "nodes": self.nodes, "users": self.users, "fps": 4.0,
            "sim_seconds": self.sim_seconds, "shards": self.shards, "workers": 1,
            "probing_period_ms": self.probing_period_ms,
            "failed_node_share": self.fail_share,
            "loop": "closed: one process steps the kernels serially",
        }
        self._report: Optional[MetroReport] = None
        self._span_rounds = 0
        self._span_frames = 0
        self._span_control = 0

    def size(self, smoke: bool):
        raise NotImplementedError

    def _simulation(self) -> MetroSimulation:
        sim = MetroSimulation(self.spec, self.config)
        rng = random.Random(self.seed)
        horizon_ms = self.sim_seconds * 1000.0
        for gid in rng.sample(range(self.nodes), int(self.nodes * self.fail_share)):
            sim.schedule_node_fail(gid, rng.uniform(1_000.0, horizon_ms - 1_000.0))
        return sim

    def setup(self, variant: str = "plain") -> None:
        self._simulation().build_kernels()

    def begin_round(self, variant: str) -> None:
        rec = self.recorder
        if rec is None:
            return
        rec.unwrap_all()
        if variant == "spans":
            rec.round += 1
            rec.wrap(MetroSimulation, "build_kernels", "metro.build")
            rec.wrap(MetroKernel, "step_to", "metro.step_to",
                     key=lambda kernel, *_: kernel.shard_id)
            rec.wrap(MetroKernel, "finish_epoch", "metro.finish_epoch")
            rec.wrap(MetroKernel, "apply_inbox", "metro.apply_inbox")

    def _control_ops(self, report: MetroReport) -> int:
        """Control operations after the one-per-user initial attach."""
        return report.control_ops - (self.users - report.unattached_initial)

    def window(self, variant: str) -> Slice:
        sim = self._simulation()
        with Timed() as t:
            report = sim.run(self.sim_seconds)
        self._report = report
        if variant == "spans":
            self._span_rounds += 1
            self._span_frames += report.frames_advanced
            self._span_control += self._control_ops(report)
        if report.frames_done == 0:
            self.problems.append("no frame completed in a round")
        # With injected node failures the lost frames are expected output
        # (pinned by the digest); without, a lost frame is a failure.
        lost = 0 if self.fail_share else report.frames_lost
        return Slice(report.frames_done + report.frames_lost, lost, t.cpu_s, t.wall_s)

    def end_round(self, variant: str) -> Dict[str, Any]:
        r = self._report
        return {
            "events": r.events_processed,
            "frames_done": r.frames_done,
            "frames_lost": r.frames_lost,
            "mean_latency_ms": round(r.mean_latency_ms, 6),
            "switches": r.switches,
            "failovers": r.covered_failovers,
            "uncovered": r.uncovered_failures,
            "handoffs": r.handoffs,
        }

    def layer_metrics(self, run: Run) -> Dict[str, float]:
        rec = self.recorder
        rounds = max(1, self._span_rounds)
        step = rec.total("metro.step_to")
        per_shard = [rec.total("metro.step_to", k).total_s for k in rec.keys("metro.step_to")]
        finish, inbox = rec.total("metro.finish_epoch"), rec.total("metro.apply_inbox")
        report = self._report
        return {
            "metro.build_s": rec.total("metro.build").total_s / rounds,
            "metro.step_to.us_per_frame": step.self_s / max(1, self._span_frames) * 1e6,
            "metro.frames_advanced": self._span_frames / rounds,
            "metro.control_ops": self._span_control / rounds,
            "metro.switches": float(report.switches),
            "metro.handoffs": float(report.handoffs),
            "metro.step_to.us_per_control_op":
                step.self_s / self._span_control * 1e6 if self._span_control else 0.0,
            # one finish/apply call per shard per epoch
            "metro.finish_epoch.ms_per_epoch":
                finish.total_s / max(1, finish.calls) * self.shards * 1e3,
            "metro.apply_inbox.ms_per_epoch":
                inbox.total_s / max(1, inbox.calls) * self.shards * 1e3,
            "metro.shard_imbalance":
                max(per_shard) / (sum(per_shard) / len(per_shard)) if per_shard else 0.0,
            "ledger.unattributed_share": run.unattributed_share(rec.covered_s),
            "cpu_s_per_sim_s": run.median("plain", "raw_cpu_us_per_op")
                * (report.frames_done + report.frames_lost) / self.sim_seconds / 1e6,
            "frames_lost": float(report.frames_lost),
        }


class MetroCohort(MetroWorkload):
    name = "metro_cohort"

    def size(self, smoke: bool):
        return (2_000, 20_000, 1.0) if smoke else (10_000, 100_000, 2.0)


class MetroReselect(MetroWorkload):
    name = "metro_reselect"
    shards = 4
    probing_period_ms = 5_000.0
    fail_share = 0.01

    def size(self, smoke: bool):
        # 10 simulated seconds: dwell ends at 5 s, then every user re-selects once.
        return (150, 1_500, 10.0) if smoke else (400, 4_000, 10.0)
