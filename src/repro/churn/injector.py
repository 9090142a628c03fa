"""Replaying a churn trace against a running system."""

from __future__ import annotations

import random
import weakref
from typing import Callable, Dict, List, Optional, Sequence

from repro.churn.trace import ChurnTrace, NodeEpisode
from repro.core.system import EdgeSystem
from repro.geo.point import GeoPoint
from repro.net.latency import NetworkTier
from repro.net.topology import EndpointSpec
from repro.nodes.hardware import HardwareProfile


class ChurnInjector:
    """Schedules spawn/fail events for every episode of a churn trace.

    Node "identities" (hardware profile + location) are drawn when the
    trace is installed — the paper "randomly match[es] 18 simulated edge
    nodes with 18 AWS ec2 instances". A custom ``placer`` callback can
    control placement; by default nodes scatter uniformly within
    ``placement_radius_km`` of ``center``.

    Args:
        system: target system (events go on its simulator), held
            weakly: the events this schedules would otherwise tie the
            system to itself through its own heap.
        profiles: the pool of hardware profiles to match episodes with;
            cycled deterministically after shuffling with ``rng``.
        center / placement_radius_km: default placement disc.
        tier: network tier for spawned volunteer nodes.
    """

    def __init__(
        self,
        system: EdgeSystem,
        profiles: Sequence[HardwareProfile],
        *,
        center: GeoPoint,
        placement_radius_km: float = 40.0,
        tier: NetworkTier = NetworkTier.HOME_WIFI,
        rng: Optional[random.Random] = None,
        placer: Optional[Callable[[NodeEpisode], GeoPoint]] = None,
    ) -> None:
        if not profiles:
            raise ValueError("need at least one hardware profile")
        self._world = weakref.ref(system)
        self.profiles = list(profiles)
        self.center = center
        self.placement_radius_km = placement_radius_km
        self.tier = tier
        self.rng = rng or system.streams.get("churn")
        self.placer = placer
        self.installed: Dict[str, HardwareProfile] = {}

    @property
    def system(self) -> EdgeSystem:
        return self._world()  # type: ignore[return-value]

    def install(self, trace: ChurnTrace) -> None:
        """Schedule every join and failure of the trace.

        Raises:
            ValueError: if any episode's node id collides with an
                existing node.
        """
        for episode in trace.episodes:
            if episode.node_id in self.system.nodes:
                raise ValueError(f"trace node id collides: {episode.node_id!r}")

        matched = self._match_profiles(trace.episodes)
        for episode in trace.episodes:
            profile = matched[episode.node_id]
            point = (
                self.placer(episode)
                if self.placer is not None
                else self._random_point()
            )
            self.installed[episode.node_id] = profile
            self._schedule_episode(episode, profile, point)

    def _match_profiles(
        self, episodes: Sequence[NodeEpisode]
    ) -> Dict[str, HardwareProfile]:
        pool = list(self.profiles)
        self.rng.shuffle(pool)
        matched: Dict[str, HardwareProfile] = {}
        for i, episode in enumerate(episodes):
            matched[episode.node_id] = pool[i % len(pool)]
        return matched

    def _random_point(self) -> GeoPoint:
        import math

        distance = self.placement_radius_km * math.sqrt(self.rng.random())
        bearing = self.rng.uniform(0.0, 2.0 * math.pi)
        return self.center.offset_km(
            distance * math.cos(bearing), distance * math.sin(bearing)
        )

    def _schedule_episode(
        self, episode: NodeEpisode, profile: HardwareProfile, point: GeoPoint
    ) -> None:
        sim = self.system.sim

        def spawn() -> None:
            self.system.add_node(
                episode.node_id,
                profile,
                EndpointSpec(point, tier=self.tier),
            )

        def fail() -> None:
            self.system.fail_node(episode.node_id)

        def restart() -> None:
            node = self.system.nodes.get(episode.node_id)
            if node is not None and node.alive:
                return  # never actually failed; nothing to restart
            self.system.restart_node(episode.node_id)

        if episode.join_ms >= sim.now:
            sim.schedule_at(episode.join_ms, spawn, label=f"{episode.node_id}.join")
        else:
            spawn()
        if episode.fail_ms < float("inf"):
            sim.schedule_at(
                max(episode.fail_ms, sim.now), fail, label=f"{episode.node_id}.fail"
            )
        if episode.restart_ms is not None:
            sim.schedule_at(
                max(episode.restart_ms, sim.now),
                restart,
                label=f"{episode.node_id}.restart",
            )
