"""System wiring: simulator + topology + manager + nodes + clients.

:class:`EdgeSystem` is the composition root for a simulated deployment.
Experiments and examples construct one, add edge nodes and clients, run
the simulator, and read the shared :class:`~repro.metrics.MetricsCollector`.

It also implements the two environment-level operations the paper's
dynamics need:

- ``fail_node()`` — a volunteer crashes/leaves without notification:
  the node object dies instantly; every client holding a connection to
  it learns ``failure_detection_ms`` later (broken TCP connection /
  missed keepalive); the manager learns implicitly when heartbeats stop.
- ``add_node()`` — a volunteer joins: endpoint registration, server
  start, first heartbeat; clients discover it at their next probing
  round, which is exactly why Fig. 8's latency drops "within seconds"
  of upward population steps.
"""

from __future__ import annotations

import weakref
from functools import partial
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.core.client import ClientLike
from repro.core.config import SystemConfig
from repro.core.edge_server import EdgeServer
from repro.core.manager import CentralManager
from repro.metrics.collector import MetricsCollector
from repro.net.latency import NetworkTier
from repro.obs.events import FaultInjected, NodeFail, NodeRestart, PopulationChanged
from repro.obs.tracer import Tracer
from repro.policy.global_policy import GeoProximityFilter, GlobalSelectionPolicy
from repro.policy.registry import get as policy_factory
from repro.net.topology import EndpointSpec, NetworkTopology
from repro.nodes.hardware import HardwareProfile
from repro.nodes.host_workload import HostWorkloadSchedule
from repro.sim.kernel import Simulator
from repro.sim.random import RandomStreams
from repro.workload.ar import ARApplication, DEFAULT_AR_APP
from repro.world import MANAGER_ID, World

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.faults.injector import FaultInjector, NodeAction


def _apply_fault_action(
    world: "weakref.ReferenceType[EdgeSystem]", action: "NodeAction"
) -> None:
    system = world()
    if system is not None:
        system._apply_fault_action(action)


class EdgeSystem:
    """A complete simulated edge-dense environment.

    The world owns its actors; they hold its clock, topology and tracer
    and reach the world itself only through a weak reference. So a
    dropped world is freed by reference counting: :meth:`__del__`
    closes the simulator, whose heap is the one place pending callbacks
    and the actors they run still refer to each other.

    Args:
        config: system tunables.
        world: the deployment. Its nodes are added (and started), then
            its user endpoints registered, in tuple order; its
            ``manager_point`` places the Central Manager's cloud-tier
            endpoint. Omitted: an empty world, which nodes can join
            later (:meth:`add_node`, churn).
        topology: pre-built network topology; one is created if omitted
            (the manager endpoint is added automatically either way).
        app: the application profile served by all edge nodes.
        global_policy: manager-side selection policy override.
        trace: a :class:`~repro.obs.tracer.Tracer` to publish trace
            events on; a capture-disabled one is created if omitted.
            Either way the system's :class:`MetricsCollector` is
            subscribed to it — metrics are reduced from the event
            stream whether or not capture is on.
    """

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        *,
        world: Optional[World] = None,
        topology: Optional[NetworkTopology] = None,
        app: ARApplication = DEFAULT_AR_APP,
        global_policy: Optional[GlobalSelectionPolicy] = None,
        trace: Optional[Tracer] = None,
        faults: Optional["FaultInjector"] = None,
    ) -> None:
        self.config = config or SystemConfig()
        # Every client builds the policy the config names: refuse a name
        # nothing is registered under now, before a node is up. Checked
        # here, not by the config, so a name registered after the config
        # was made is good.
        policy_factory(self.config.policy_spec)
        self.app = app
        self.streams = RandomStreams(self.config.seed)
        self.sim = Simulator()
        self.metrics = MetricsCollector()
        self.trace = trace if trace is not None else Tracer.disabled()
        self.trace.subscribe(self.metrics.on_event)
        if topology is None:
            topology = NetworkTopology(rng=self.streams.get("network"))
        else:
            # Seed the caller's topology jitter from our streams so runs
            # are reproducible from the single config seed.
            topology.rng = self.streams.get("network")
        self.topology = topology

        self.manager_id = MANAGER_ID
        world = world if world is not None else World()
        if not self.topology.has_endpoint(MANAGER_ID):
            self.topology.add_endpoint(
                MANAGER_ID, EndpointSpec(world.manager_point, tier=NetworkTier.CLOUD)
            )
        policy = global_policy or GlobalSelectionPolicy(
            geo_filter=GeoProximityFilter(
                radius_km=self.config.discovery_radius_km,
                wide_radius_km=self.config.wide_radius_km,
            )
        )
        # The manager reads its shape from the config and checks the
        # fault plan's shard targets against it.
        self.faults = faults
        self.manager = CentralManager(self, policy)

        self.nodes: Dict[str, EdgeServer] = {}
        #: Alive entries of ``nodes`` (a recount per add made a build quadratic).
        self._alive_nodes = 0
        self.clients: Dict[str, ClientLike] = {}
        #: Client classes whose first instance satisfied ``ClientLike``:
        #: the runtime-checkable Protocol re-walks its members on every
        #: ``isinstance``, so a class is checked once, not per client.
        self._client_classes: Set[type] = set()
        #: Construction arguments remembered per node id so a crashed
        #: node can be restarted *as the same identity* (fault plans and
        #: churn restart episodes both need this).
        self._node_specs: Dict[
            str, Tuple[HardwareProfile, EndpointSpec, bool, Optional[HostWorkloadSchedule]]
        ] = {}

        if faults is not None:
            faults.tracer = self.trace
            self._install_fault_actions(faults)
        for node in world.nodes:
            self.add_node(
                node.node_id, node.profile, node.spec, dedicated=node.dedicated
            )
        for user in world.users:
            self.add_client_endpoint(user.user_id, user.spec)

    # ------------------------------------------------------------------
    # Client selection policy
    # ------------------------------------------------------------------
    def make_selection_policy(self, user_id: str):
        """A fresh selection policy for one client: the one
        ``config.policy_spec`` names, wrapped in QoS admission when
        ``config.qos_latency_ms`` is set, its private randomness seeded
        from the config seed and the user id.
        """
        from repro.policy import build_policy
        from repro.sim.random import derive_seed

        return build_policy(
            self.config.policy_spec,
            qos_latency_ms=self.config.qos_latency_ms,
            seed=derive_seed(self.config.seed, f"policy.{user_id}"),
        )

    # ------------------------------------------------------------------
    # Node lifecycle
    # ------------------------------------------------------------------
    def add_node(
        self,
        node_id: str,
        profile: HardwareProfile,
        spec: EndpointSpec,
        *,
        dedicated: bool = False,
        host_schedule: Optional[HostWorkloadSchedule] = None,
        start: bool = True,
    ) -> EdgeServer:
        """Register and (optionally) start a new edge node.

        A node id may be reused after :meth:`fail_node`: the dead node's
        endpoint is then *explicitly* replaced (stale memoized network
        state is invalidated with it), never silently overwritten.

        Raises:
            ValueError: if the id is already in use by an alive node, or
                collides with a non-node endpoint (a user or the
                manager).
        """
        existing = self.nodes.get(node_id)
        if existing is not None and existing.alive:
            raise ValueError(f"node id already alive: {node_id!r}")
        if existing is None and self.topology.has_endpoint(node_id):
            raise ValueError(
                f"endpoint id {node_id!r} is already taken by a non-node "
                "endpoint (user or manager)"
            )
        self.topology.add_endpoint(node_id, spec, replace=existing is not None)
        assert self.topology.has_endpoint(node_id)
        self._node_specs[node_id] = (profile, spec, dedicated, host_schedule)
        node = EdgeServer(
            self,
            node_id,
            profile,
            dedicated=dedicated,
            host_schedule=host_schedule,
        )
        self.nodes[node_id] = node
        self._alive_nodes += 1
        if start:
            node.start()
        self._record_population()
        return node

    def fail_node(self, node_id: str) -> None:
        """Kill a node without notification (crash / volunteer leaves).

        Clients holding a connection to it (attached or backup) are
        notified after ``failure_detection_ms``; the manager ages the
        node out via heartbeat timeout on its own.
        """
        node = self.nodes.get(node_id)
        if node is None or not node.alive:
            return
        node.fail()
        self._alive_nodes -= 1
        self.trace.emit(NodeFail(self.sim.now, node_id))
        self._record_population()
        detection = self.config.failure_detection_ms
        # Hoisted out of the loop: a popular node schedules one detection
        # per observing client, and they all share this label.
        detect_label = node_id + ".detect"

        for client in list(self.clients.values()):
            if client.observes_node(node_id):
                handler = client.on_edge_failure
                self.sim.schedule(
                    detection,
                    lambda h=handler: h(node_id),
                    label=detect_label,
                )

    def restart_node(self, node_id: str) -> EdgeServer:
        """Bring a crashed node back under the *same* id.

        The restarted node is a **fresh process** on the remembered
        hardware/placement: a brand-new :class:`EdgeServer` (and
        admission machine), so its seqNum restarts at 0 and its what-if
        cache re-primes — no stale pre-crash state survives. Clients
        rediscover it at their next probing round exactly like a newly
        spawned volunteer.

        Raises:
            ValueError: if the id was never added, or is still alive.
        """
        spec = self._node_specs.get(node_id)
        if spec is None:
            raise ValueError(f"cannot restart unknown node: {node_id!r}")
        existing = self.nodes.get(node_id)
        if existing is not None and existing.alive:
            raise ValueError(f"cannot restart a node that is alive: {node_id!r}")
        profile, endpoint_spec, dedicated, host_schedule = spec
        node = self.add_node(
            node_id,
            profile,
            endpoint_spec,
            dedicated=dedicated,
            host_schedule=host_schedule,
        )
        self.trace.emit(NodeRestart(self.sim.now, node_id))
        return node

    # ------------------------------------------------------------------
    # Fault injection (repro.faults)
    # ------------------------------------------------------------------
    def _install_fault_actions(self, faults: "FaultInjector") -> None:
        """Schedule the plan's node-level transitions on the kernel.

        Message-level rules need no scheduling — drivers consult
        ``faults.decide()`` per message. Actions referencing nodes that
        do not exist yet (or died on their own) are skipped at fire
        time, so a plan can safely name churn-spawned nodes.
        """
        world = weakref.ref(self)
        for action in faults.node_actions():
            self.sim.schedule_at(
                max(action.t_ms, self.sim.now),
                partial(_apply_fault_action, world, action),
                label=f"fault.{action.rule_id}.{action.kind}",
            )

    def _apply_fault_action(self, action: "NodeAction") -> None:
        assert self.faults is not None  # actions only come from its plan
        injected = self.faults.injected
        if action.kind == "crash":
            node = self.nodes.get(action.node_id)
            if node is None or not node.alive:
                return
            self.trace.emit(
                FaultInjected(
                    self.sim.now, action.rule_id, "crash", dst=action.node_id
                )
            )
            injected["crash"] += 1
            self.fail_node(action.node_id)
        elif action.kind == "restart":
            existing = self.nodes.get(action.node_id)
            if action.node_id not in self._node_specs or (
                existing is not None and existing.alive
            ):
                return
            self.restart_node(action.node_id)
        elif action.kind in ("gray_start", "gray_end"):
            node = self.nodes.get(action.node_id)
            if node is None or not node.alive:
                return
            kind = action.kind
            self.trace.emit(
                FaultInjected(self.sim.now, action.rule_id, kind, dst=action.node_id)
            )
            injected[kind] += 1
            if kind == "gray_start":
                node.processor.set_slowdown(
                    max(node.processor.slowdown_factor, action.factor)
                )
            else:
                # Back to whatever the host-workload schedule dictates.
                node._apply_host_slowdown()
        elif action.kind in ("outage_start", "outage_end"):
            # A global outage (shard is None) is enforced per message in
            # decide(); the scheduled action only marks the transition
            # in the trace so recovery analysis can bracket the window.
            # A shard-targeted outage instead drives the manager's
            # primary-loss/recovery state machine directly.
            self.trace.emit(
                FaultInjected(
                    self.sim.now,
                    action.rule_id,
                    action.kind,
                    dst=f"shard:{action.shard}" if action.shard is not None else "",
                )
            )
            if action.shard is not None:
                if action.kind == "outage_start":
                    took_effect = self.manager.on_shard_outage_start(action.shard)
                else:
                    took_effect = self.manager.on_shard_outage_end(action.shard)
                if took_effect:
                    injected[action.kind] += 1

    def alive_node_ids(self) -> List[str]:
        return [node_id for node_id, node in self.nodes.items() if node.alive]

    def alive_node_count(self) -> int:
        return self._alive_nodes

    def _record_population(self) -> None:
        self.trace.emit(PopulationChanged(self.sim.now, self._alive_nodes))

    # ------------------------------------------------------------------
    # Client lifecycle
    # ------------------------------------------------------------------
    def add_client_endpoint(self, user_id: str, spec: EndpointSpec) -> None:
        """Register a user device's network endpoint from a spec."""
        self.topology.add_endpoint(user_id, spec)

    def add_client(self, client: ClientLike, *, start: bool = True) -> None:
        """Register (and by default start) a client.

        Args:
            client: anything satisfying :class:`~repro.core.client.
                ClientLike` — validated structurally here, once per
                client class, so a mis-shaped client fails at
                registration, not at the first node failure.
            start: keyword-only; False registers without starting (the
                caller will start it later, e.g. staggered arrival).
        """
        if type(client) not in self._client_classes:
            if not isinstance(client, ClientLike):
                missing = [
                    name
                    for name in ("user_id", "start", "observes_node", "on_edge_failure")
                    if not hasattr(client, name)
                ]
                raise TypeError(
                    f"client {client!r} does not satisfy ClientLike "
                    f"(missing: {', '.join(missing) or 'attribute types'})"
                )
            self._client_classes.add(type(client))
        user_id = client.user_id
        if user_id in self.clients:
            raise ValueError(f"client id already in use: {user_id!r}")
        if not self.topology.has_endpoint(user_id):
            raise ValueError(
                f"register the client endpoint before adding client {user_id!r}"
            )
        self.clients[user_id] = client
        if start:
            client.start()

    # ------------------------------------------------------------------
    def run_for(self, duration_ms: float) -> None:
        """Advance the simulation by ``duration_ms``."""
        self.sim.run_until(self.sim.now + duration_ms)

    def __del__(self) -> None:
        sim = self.__dict__.get("sim")  # absent if __init__ raised first
        if sim is not None:
            sim.close()

    def __repr__(self) -> str:
        return (
            f"EdgeSystem(nodes={self.alive_node_count()}/{len(self.nodes)}, "
            f"clients={len(self.clients)}, t={self.sim.now:.0f}ms)"
        )
