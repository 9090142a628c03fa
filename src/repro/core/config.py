"""System configuration.

The two knobs the paper studies explicitly (§IV-E) are:

- ``top_n`` — the size of the candidate edge list. ``top_n - 1`` is the
  backup-list size; larger values add probing/synchronization overhead
  but improve accuracy, fairness and fault tolerance (Fig. 9/10).
- ``probing_period_ms`` (``T_probing``) — the interval between
  consecutive edge-discovery/performance-probing rounds; smaller values
  refresh the backup list faster and raise robustness at higher cost.

Everything else is plumbing with defaults chosen to match the paper's
described behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional


@dataclass(frozen=True)
class SystemConfig:
    """All tunables of the edge-selection system.

    Attributes:
        top_n: candidate edge list size (``TopN``).
        probing_period_ms: ``T_probing``, the probing/discovery period.
        probing_jitter_ms: uniform de-synchronization applied per round
            so clients do not probe in lock-step.
        discovery_radius_km: geo-proximity filter radius used by the
            Central Manager; nodes beyond it are excluded unless the
            wide-range (GeoHash prefix-shortened) fallback kicks in.
        wide_radius_km: the "last resort" widened search radius.
        heartbeat_period_ms: node -> manager status report interval.
        heartbeat_timeout_ms: manager declares a node dead after this
            much silence.
        failure_detection_ms: time for a client to notice its attached
            edge died (broken connection / keepalive).
        switch_penalty_ms: hysteresis — a candidate must beat the current
            node's predicted latency by this margin before the client
            switches (prevents flapping between near-equal nodes).
        switch_penalty_fraction: relative hysteresis — the candidate must
            additionally beat the current node by this fraction of the
            current predicted latency. Absolute + relative margins
            together prevent herd reshuffling when many nodes sit near
            the same predicted latency.
        min_dwell_ms: cooldown after a voluntary join before the client
            will consider another voluntary switch. Greedy re-selection
            every probing round makes the population oscillate (a node
            emptied by leavers instantly looks cheap and refills);
            dwelling a couple of rounds lets what-if caches catch up.
            Failovers ignore the dwell — a dead node is always left
            immediately.
        rtt_probe_samples: pings averaged per ``RTT_probe`` (real probes
            send several ICMP/UDP pings; averaging tames jitter).
        policy_spec: name of the client selection policy in the
            :mod:`repro.policy` registry (``"go"``, ``"lo"``,
            ``"ewma"``, ``"reliability"``, ``"churn"``, ...); the
            default is the paper's, GO. QoS filtering composes on top
            via ``qos_latency_ms``.
        join_synchronization: enforce the ``seqNum`` check in ``Join()``
            (Algorithm 1). False is an ablation: joins always accept, so
            simultaneous selections collide on stale what-if values.
        qos_latency_ms: optional QoS cutoff; candidates whose predicted
            LO exceeds it are filtered out before GO ranking.
        common_rtt_ms: the "common user RTT propagation" used to delay
            join-triggered test-workload invocations (2x this value).
        perf_monitor_period_ms: how often a node's performance monitor
            compares measured processing time against the cached value.
        perf_monitor_threshold: relative drift that re-triggers the test
            workload (trigger type 3).
        max_discovery_retries: how many times a client repeats the
            discovery+probing procedure after consecutive Join rejections
            before backing off for one probing period.
        attachment_lease_ms: optional server-side lease on admission
            state. A node expires any attached user whose frames stop
            arriving for this long — the cleanup path for a ``Leave()``
            lost to a partition (the client has moved on; the stale
            entry would otherwise inflate the node's what-if projection
            forever). None (the default) disables expiry.
        seed: root seed for all random streams.
        cohort_batching: metro kernel only — advance whole cohorts of
            same-phase clients per tick with array arithmetic instead of
            one kernel event per frame. Both modes emit the same
            trace-event multiset (tested); False exists for parity tests
            and as the reference implementation.
        cohort_tick_ms: width of the metro kernel's cohort tick window.
            All control-plane activity (selection rounds, failures,
            detections, shard epochs) is quantized to tick boundaries —
            this is what makes batched and per-client stepping
            equivalent.
        control_plane_shards: number of Central Manager registry shards
            (geohash-range partitioned; ``repro.controlplane``). With
            the default 1 (and 1 replica) the system runs the plain
            single manager, bit-identical to the seed.
        control_plane_replicas: manager replicas per shard (primary +
            standbys). Standbys track the primary via heartbeat deltas
            and are promoted on primary loss.
    """

    top_n: int = 3
    probing_period_ms: float = 2_000.0
    probing_jitter_ms: float = 200.0
    discovery_radius_km: float = 80.0
    wide_radius_km: float = 400.0
    heartbeat_period_ms: float = 1_000.0
    heartbeat_timeout_ms: float = 3_000.0
    failure_detection_ms: float = 200.0
    switch_penalty_ms: float = 5.0
    switch_penalty_fraction: float = 0.15
    min_dwell_ms: float = 5_000.0
    rtt_probe_samples: int = 3
    join_synchronization: bool = True
    qos_latency_ms: Optional[float] = None
    common_rtt_ms: float = 20.0
    perf_monitor_period_ms: float = 1_000.0
    perf_monitor_threshold: float = 0.4
    max_discovery_retries: int = 3
    attachment_lease_ms: Optional[float] = None
    seed: int = 42
    policy_spec: str = "go"
    # Metro-kernel knobs (PR 7). Keyword-only: they are new surface and
    # must never be reachable by positional construction.
    cohort_batching: bool = field(default=True, kw_only=True)
    cohort_tick_ms: float = field(default=250.0, kw_only=True)
    # Control-plane knobs (sharded/replicated Central Manager).
    control_plane_shards: int = field(default=1, kw_only=True)
    control_plane_replicas: int = field(default=1, kw_only=True)

    def __post_init__(self) -> None:
        if self.top_n < 1:
            raise ValueError(f"top_n must be >= 1: {self.top_n}")
        if self.probing_period_ms <= 0:
            raise ValueError(
                f"probing_period_ms must be positive: {self.probing_period_ms}"
            )
        if self.probing_jitter_ms < 0:
            raise ValueError(
                f"probing_jitter_ms must be >= 0: {self.probing_jitter_ms}"
            )
        if self.discovery_radius_km <= 0 or self.wide_radius_km <= 0:
            raise ValueError("discovery radii must be positive")
        if self.wide_radius_km < self.discovery_radius_km:
            raise ValueError("wide_radius_km must be >= discovery_radius_km")
        if self.heartbeat_timeout_ms <= self.heartbeat_period_ms:
            raise ValueError("heartbeat_timeout_ms must exceed heartbeat_period_ms")
        if self.failure_detection_ms < 0:
            raise ValueError("failure_detection_ms must be >= 0")
        if self.switch_penalty_ms < 0:
            raise ValueError("switch_penalty_ms must be >= 0")
        if self.rtt_probe_samples < 1:
            raise ValueError("rtt_probe_samples must be >= 1")
        if not 0.0 <= self.switch_penalty_fraction < 1.0:
            raise ValueError("switch_penalty_fraction must be in [0, 1)")
        if self.min_dwell_ms < 0:
            raise ValueError("min_dwell_ms must be >= 0")
        if self.qos_latency_ms is not None and self.qos_latency_ms <= 0:
            raise ValueError("qos_latency_ms must be positive when set")
        if not 0.0 < self.perf_monitor_threshold:
            raise ValueError("perf_monitor_threshold must be positive")
        if self.max_discovery_retries < 0:
            raise ValueError("max_discovery_retries must be >= 0")
        if self.attachment_lease_ms is not None and self.attachment_lease_ms <= 0:
            raise ValueError("attachment_lease_ms must be positive when set")
        if self.cohort_tick_ms <= 0:
            raise ValueError(f"cohort_tick_ms must be positive: {self.cohort_tick_ms}")
        if self.control_plane_shards < 1:
            raise ValueError(
                f"control_plane_shards must be >= 1: {self.control_plane_shards}"
            )
        if self.control_plane_replicas < 1:
            raise ValueError(
                f"control_plane_replicas must be >= 1: {self.control_plane_replicas}"
            )

    @property
    def backup_count(self) -> int:
        """Size of the backup edge list (``TopN - 1``)."""
        return self.top_n - 1

    def with_(self, **changes: object) -> "SystemConfig":
        """Copy with arbitrary field changes (validated)."""
        return replace(self, **changes)  # type: ignore[arg-type]
