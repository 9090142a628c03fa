"""Multiple application service types on one edge fleet (§III-B).

"For simplicity, we consider a single application server type in this
paper, but our model can be extended to support any number of
application server types. An application manager manages each
application service type in the system."

This module is that extension:

- :class:`ApplicationSpec` — an application type plus its compute cost
  relative to the node hardware (``service_scale`` multiplies the
  node's per-frame time: an OCR service might cost 0.5x the AR
  detector, a segmentation service 2x).
- :class:`MultiAppEdgeServer` — an edge node hosting several
  application servers. All services share the node's *single* frame
  queue (the machine is the bottleneck), but each service keeps its own
  attached-user set, ``seqNum`` and what-if cache, because the
  "new-user-join" scenario differs per application.
- :class:`ApplicationManager` — one Central-Manager-role instance per
  application type, as the paper prescribes; each one only registers
  nodes that host its application.

Clients remain the single-app :class:`~repro.core.client.EdgeClient`,
pointed at their application's manager through an
:class:`AppScopedSystem` facade — the client code is untouched, which is
the point: multi-app support is a deployment topology, not a protocol
change.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional

from repro.core.config import SystemConfig
from repro.core.edge_server import EdgeServer
from repro.core.manager import CentralManager
from repro.geo.point import GeoPoint
from repro.net.latency import NetworkTier
from repro.net.topology import EndpointSpec
from repro.nodes.hardware import HardwareProfile
from repro.nodes.processing import analytic_sojourn_ms
from repro.policy.global_policy import GlobalSelectionPolicy
from repro.workload.ar import ARApplication

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.system import EdgeSystem


@dataclass(frozen=True)
class ApplicationSpec:
    """One deployable application service type.

    Attributes:
        app: the workload profile (frame size, rates, QoS target).
        service_scale: this application's per-frame compute cost as a
            multiple of the node's calibrated AR frame time.
    """

    app: ARApplication
    service_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.service_scale <= 0:
            raise ValueError(f"service_scale must be positive: {self.service_scale}")

    @property
    def name(self) -> str:
        return self.app.name


class _AppService(EdgeServer):
    """One application server inside a multi-app node.

    Subclasses :class:`EdgeServer` so probing, seqNum, the what-if cache
    and the performance monitor are inherited verbatim, but routes all
    compute through the *shared* node processor with this application's
    service time, so co-hosted applications contend for the machine —
    the test workload's synthetic frame and its demand projection
    included.
    """

    def __init__(
        self,
        system: "EdgeSystem",
        node_id: str,
        profile: HardwareProfile,
        spec: ApplicationSpec,
        shared_processor,
        manager: CentralManager,
        **kwargs,
    ) -> None:
        super().__init__(system, node_id, profile, **kwargs)
        self.spec = spec
        self.processor = shared_processor  # replace the private queue
        self._manager = manager
        # "One more user" of this application runs at its own rate.
        self._machine.config = replace(
            self._machine.config, standard_fps=spec.app.max_fps
        )
        base = profile.base_frame_ms * spec.service_scale
        self.what_if_ms = base
        self.stay_ms = base
        self._machine.monitor_baseline_ms = base

    # The service's compute cost on this hardware.
    @property
    def service_ms(self) -> float:  # type: ignore[override]
        return self.profile.base_frame_ms * self.spec.service_scale

    def _project_sojourn(self, offered_fps: float, slowdown: float) -> float:
        """Demand projection over the *shared* queue: this service's own
        users at its compute cost, plus the live cross-application
        arrival rate."""
        cross_fps = self.processor.arrival_rate_fps(self.sim.now)
        return analytic_sojourn_ms(
            self.profile,
            cross_fps + offered_fps * self.spec.service_scale,
            slowdown_factor=slowdown,
        )

    def _deliver_heartbeat(self, status) -> None:  # type: ignore[override]
        """Heartbeats go to this application's own manager."""
        self._manager.receive_heartbeat(status)


class MultiAppEdgeServer:
    """A physical node hosting one application server per installed spec."""

    def __init__(
        self,
        system: "EdgeSystem",
        node_id: str,
        profile: HardwareProfile,
        specs: List[ApplicationSpec],
        managers: Dict[str, CentralManager],
        **node_kwargs,
    ) -> None:
        if not specs:
            raise ValueError("a multi-app node needs at least one application")
        from repro.nodes.processing import FrameProcessor

        self.node_id = node_id
        self.profile = profile
        self.shared_processor = FrameProcessor(profile)
        self.services: Dict[str, _AppService] = {}
        for spec in specs:
            service = _AppService(
                system,
                node_id,
                profile,
                spec,
                self.shared_processor,
                managers[spec.name],
                **node_kwargs,
            )
            self.services[spec.name] = service

    def start(self) -> None:
        for service in self.services.values():
            service.start()

    def fail(self) -> None:
        for service in self.services.values():
            service.fail()

    @property
    def alive(self) -> bool:
        return any(s.alive for s in self.services.values())

    def service(self, app_name: str) -> _AppService:
        return self.services[app_name]


class _AppNodes(Mapping):
    """One application's services keyed by node id: a live view of a
    deployment's nodes, so nodes spawned later appear in it."""

    def __init__(self, nodes: Dict[str, MultiAppEdgeServer], app_name: str) -> None:
        self._nodes = nodes
        self._app_name = app_name

    def __getitem__(self, node_id: str) -> _AppService:
        services = self._nodes[node_id].services
        if self._app_name not in services:
            raise KeyError(node_id)
        return services[self._app_name]

    def __iter__(self) -> Iterator[str]:
        return (node_id for node_id, node in self._nodes.items()
                if self._app_name in node.services)

    def __len__(self) -> int:
        return sum(1 for _ in self)


class AppScopedSystem:
    """A facade giving single-app clients a view onto one application.

    Proxies everything to the real :class:`EdgeSystem` but swaps the
    manager and the ``nodes`` mapping for this application's service
    objects — so the unmodified :class:`EdgeClient` probes/joins the
    right application server on each physical node. ``nodes`` is a live
    view: nodes spawned after the facade was created appear in it.
    """

    def __init__(
        self,
        deployment: "MultiAppDeployment",
        app_name: str,
    ) -> None:
        self._system = deployment.system
        self.manager = deployment.managers[app_name]
        self.app = deployment.specs[app_name].app
        self.nodes = _AppNodes(deployment.nodes, app_name)

    def __getattr__(self, name):
        return getattr(self._system, name)


class MultiAppDeployment:
    """Wiring for an N-application deployment over one edge fleet.

    Usage::

        deployment = MultiAppDeployment(system, [ar_spec, ocr_spec])
        deployment.spawn_node("V1", profile, point)
        client = deployment.make_client("alice", "ar-cognitive-assistance")
    """

    def __init__(
        self,
        system: "EdgeSystem",
        specs: List[ApplicationSpec],
        *,
        global_policy: Optional[GlobalSelectionPolicy] = None,
    ) -> None:
        if not specs:
            raise ValueError("need at least one application spec")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate application names: {names}")
        self.system = system
        self.specs = {spec.name: spec for spec in specs}
        #: One Application Manager per service type (§III-B).
        self.managers: Dict[str, CentralManager] = {
            spec.name: CentralManager(
                system, global_policy or GlobalSelectionPolicy()
            )
            for spec in specs
        }
        self.nodes: Dict[str, MultiAppEdgeServer] = {}
        #: One view per application, kept here: a client holds its
        #: system weakly, so the view lives as long as the deployment.
        self._scoped: Dict[str, AppScopedSystem] = {}

    # ------------------------------------------------------------------
    def spawn_node(
        self,
        node_id: str,
        profile: HardwareProfile,
        point: GeoPoint,
        *,
        tier: NetworkTier = NetworkTier.HOME_WIFI,
        apps: Optional[List[str]] = None,
        **endpoint_kwargs,
    ) -> MultiAppEdgeServer:
        """Register a node hosting the given applications (default: all)."""
        existing = self.nodes.get(node_id)
        # A node id may be reused only after its previous holder failed;
        # the endpoint is then replaced explicitly (cache invalidation).
        self.system.topology.add_endpoint(
            node_id,
            EndpointSpec(point, tier=tier, **endpoint_kwargs),
            replace=existing is not None and not existing.alive,
        )
        hosted = [self.specs[name] for name in (apps or list(self.specs))]
        node = MultiAppEdgeServer(
            self.system, node_id, profile, hosted, self.managers
        )
        self.nodes[node_id] = node
        node.start()
        return node

    def fail_node(self, node_id: str) -> None:
        node = self.nodes.get(node_id)
        if node is None or not node.alive:
            return
        node.fail()
        detection = self.system.config.failure_detection_ms
        for client in self.system.clients.values():
            if (
                getattr(client, "current_edge", None) == node_id
                or node_id in getattr(client, "links", {})
            ):
                self.system.sim.schedule(
                    detection, lambda c=client: c.on_edge_failure(node_id)
                )

    def scoped_system(self, app_name: str) -> AppScopedSystem:
        """The single-app view clients of ``app_name`` operate on."""
        if app_name not in self.specs:
            raise KeyError(f"unknown application: {app_name!r}")
        if app_name not in self._scoped:
            self._scoped[app_name] = AppScopedSystem(self, app_name)
        return self._scoped[app_name]

    def make_client(self, user_id: str, app_name: str, **kwargs):
        """Create (and register) an EdgeClient bound to one application."""
        from repro.core.client import EdgeClient

        scoped = self.scoped_system(app_name)
        client = EdgeClient(scoped, user_id, app=self.specs[app_name].app, **kwargs)
        self.system.clients[user_id] = client
        return client
