"""Writing a world by hand.

:class:`~repro.world.World` is the one deployment value every executor
runs (the per-event simulator and the live loopback cluster alike).
:class:`ScenarioBuilder` is how to write one by hand:

- :class:`EndpointSpec` — one frozen value object carrying a
  participant's entire network identity (position, tier, ISP, bandwidth
  caps, last-mile overhead). Defined next to the topology it feeds
  (:mod:`repro.net.topology`) and re-exported here.
- :class:`ScenarioBuilder` — declare nodes (with a spec default so
  shared network facts are stated once), user endpoints and the
  clients that run on them; :meth:`~ScenarioBuilder.world` reads the
  declarations back as a :class:`~repro.world.World`, and ``build()``
  wires that world into an :class:`~repro.core.system.EdgeSystem` with
  the declared clients attached.

Quickstart::

    from repro.api import EndpointSpec, ScenarioBuilder
    from repro.core.client import EdgeClient
    from repro.core.config import SystemConfig
    from repro.geo.point import GeoPoint
    from repro.nodes.hardware import profile_by_name

    scenario = (
        ScenarioBuilder(SystemConfig(top_n=3, seed=7))
        .default_node_spec(EndpointSpec(GeoPoint(44.97, -93.26), uplink_mbps=40.0))
        .node("V1", profile_by_name("V1"), point=GeoPoint(44.98, -93.26))
        .node("V2", profile_by_name("V2"), point=GeoPoint(44.95, -93.20))
        .client("u1", EdgeClient, spec=EndpointSpec(GeoPoint(44.97, -93.25)))
        .build()
    )
    scenario.run_for(30_000)
"""

from __future__ import annotations

import gc
import weakref
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Tuple

from repro.core.client import ClientLike, EdgeClient
from repro.core.config import SystemConfig
from repro.core.system import EdgeSystem
from repro.geo.point import GeoPoint
from repro.net.topology import EndpointSpec, NetworkTopology
from repro.nodes.hardware import HardwareProfile
from repro.obs.profile import KernelProfiler
from repro.obs.tracer import Tracer, as_sink
from repro.policy.global_policy import GlobalSelectionPolicy
from repro.workload.ar import ARApplication, DEFAULT_AR_APP
from repro.world import DEFAULT_MANAGER_POINT, World, WorldNode, WorldUser

__all__ = [
    "ClientFactory",
    "ClientLike",
    "EndpointSpec",
    "ScenarioBuilder",
]

#: Builds a client for a system — ``EdgeClient`` itself and every
#: baseline subclass already match this shape.
ClientFactory = Callable[[EdgeSystem, str], ClientLike]

#: Every world :meth:`ScenarioBuilder.build_scenario` made that is still
#: alive. Process-wide on purpose: what it guards is the process's memory,
#: and a loop of builds often makes a fresh builder for each.
_built: "weakref.WeakSet[EdgeSystem]" = weakref.WeakSet()


@dataclass
class BuiltScenario:
    """What :meth:`ScenarioBuilder.build_scenario` hands back: the wired
    system plus the ids it created, so experiments can iterate entities
    without re-deriving them."""

    system: EdgeSystem
    node_ids: List[str] = field(default_factory=list)
    user_ids: List[str] = field(default_factory=list)
    #: The tracer wired into the system (disabled unless the builder's
    #: :meth:`ScenarioBuilder.observe` asked for capture).
    tracer: Optional[Tracer] = None


class ScenarioBuilder:
    """Fluent, declarative construction of a :class:`~repro.world.World`.

    Every mutator returns ``self``; nothing touches a simulator until
    :meth:`build`. Nodes and user endpoints keep their declaration
    order in the world, and :meth:`build` starts the declared clients in
    theirs.
    """

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        *,
        topology: Optional[NetworkTopology] = None,
        app: ARApplication = DEFAULT_AR_APP,
        manager_point: GeoPoint = DEFAULT_MANAGER_POINT,
        global_policy: Optional[GlobalSelectionPolicy] = None,
    ) -> None:
        self._config = config
        self._topology = topology
        self._app = app
        self._manager_point = manager_point
        self._global_policy = global_policy
        self._node_default: Optional[EndpointSpec] = None
        self._nodes: List[WorldNode] = []
        self._users: List[WorldUser] = []
        #: ``(user id, factory, start)`` per declared client, in order.
        self._clients: List[Tuple[str, ClientFactory, bool]] = []
        self._observe_trace = False
        self._observe_sink: object = None
        self._observe_capacity = 65536
        self._observe_profile_kernel = False

    # ------------------------------------------------------------------
    # Defaults
    # ------------------------------------------------------------------
    def default_node_spec(self, spec: EndpointSpec) -> "ScenarioBuilder":
        """Network spec template for nodes declared with only a point."""
        self._node_default = spec
        return self

    def observe(
        self,
        trace: bool = True,
        *,
        sink: object = None,
        capacity: int = 65536,
        profile_kernel: bool = False,
    ) -> "ScenarioBuilder":
        """Turn on structured trace capture for the built system.

        Args:
            trace: capture trace events into the tracer's ring buffer.
                When False the system still gets a tracer (metrics flow
                through it either way) but event capture is disabled.
            sink: optional streaming destination — a path/str (JSONL
                file), an open file-like object, or any
                :class:`~repro.obs.tracer.TraceSink`.
            capacity: ring-buffer size (events) when tracing.
            profile_kernel: additionally install a
                :class:`~repro.obs.profile.KernelProfiler` on the
                simulator, recording per-handler wall time + queue depth.
        """
        self._observe_trace = trace
        self._observe_sink = sink
        self._observe_capacity = capacity
        self._observe_profile_kernel = profile_kernel
        return self

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------
    def node(
        self,
        node_id: str,
        profile: HardwareProfile,
        spec: Optional[EndpointSpec] = None,
        *,
        point: Optional[GeoPoint] = None,
        dedicated: bool = False,
    ) -> "ScenarioBuilder":
        """Declare an edge node.

        Give either a full ``spec``, or just a ``point`` to inherit the
        :meth:`default_node_spec` template at that position.
        """
        spec = self._resolve(spec, point, self._node_default, node_id)
        self._nodes.append(WorldNode(node_id, profile, spec, dedicated))
        return self

    def client_endpoint(
        self,
        user_id: str,
        spec: Optional[EndpointSpec] = None,
        *,
        point: Optional[GeoPoint] = None,
    ) -> "ScenarioBuilder":
        """Declare a user endpoint without a client object (experiments
        that attach strategy-specific clients later)."""
        spec = self._resolve(spec, point, None, user_id)
        self._users.append(WorldUser(user_id, spec))
        return self

    def client(
        self,
        user_id: str,
        factory: ClientFactory = EdgeClient,
        spec: Optional[EndpointSpec] = None,
        *,
        point: Optional[GeoPoint] = None,
        start: bool = True,
    ) -> "ScenarioBuilder":
        """Declare a user endpoint plus a client built by ``factory``
        (``EdgeClient`` and every baseline class qualify as factories)."""
        self.client_endpoint(user_id, spec, point=point)
        self._clients.append((user_id, factory, start))
        return self

    @staticmethod
    def _resolve(
        spec: Optional[EndpointSpec],
        point: Optional[GeoPoint],
        default: Optional[EndpointSpec],
        entity_id: str,
    ) -> EndpointSpec:
        if spec is not None:
            if point is not None:
                raise ValueError(
                    f"{entity_id!r}: give either spec= or point=, not both"
                )
            return spec
        if point is None:
            raise ValueError(f"{entity_id!r}: needs a spec= or a point=")
        if default is not None:
            return replace(default, point=point)
        return EndpointSpec(point)

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def world(self) -> World:
        """The declarations so far, as the frozen world every executor
        runs (``ValueError`` on a duplicate or reserved id)."""
        return World(tuple(self._nodes), tuple(self._users), self._manager_point)

    def build_scenario(self) -> BuiltScenario:
        """Wire everything and return the system plus created ids."""
        world = self.world()
        # A dropped world frees itself by reference counting. One built
        # here earlier that is still alive may be held only by a cycle
        # its caller made (a scheduled callback that captures the
        # world); collect it before allocating the next, or a loop of
        # builds holds several dead ones.
        if _built:
            gc.collect()
        tracer: Optional[Tracer] = None
        if self._observe_trace or self._observe_sink is not None:
            tracer = Tracer(
                enabled=self._observe_trace,
                capacity=self._observe_capacity,
                sink=as_sink(self._observe_sink),
            )
        system = EdgeSystem(
            self._config,
            world=world,
            topology=self._topology,
            app=self._app,
            global_policy=self._global_policy,
            trace=tracer,
        )
        _built.add(system)
        if self._observe_profile_kernel:
            system.sim.profiler = KernelProfiler()
        for user_id, factory, start in self._clients:
            system.add_client(factory(system, user_id), start=start)
        return BuiltScenario(
            system=system,
            node_ids=list(world.node_ids),
            user_ids=list(world.user_ids),
            tracer=system.trace,
        )

    def build(self) -> EdgeSystem:
        """Wire everything and return just the system."""
        return self.build_scenario().system
