"""The network topology: endpoints + RTT model + bandwidth model.

:class:`NetworkTopology` is the single object the rest of the system asks
network questions of:

- ``rtt_ms(a, b)`` — one jittered RTT sample (what a probe observes).
- ``expected_rtt_ms(a, b)`` — the mean (what an oracle/optimal solver
  uses).
- ``transfer_ms(a, b, size)`` — request payload transfer delay capped by
  the sender's uplink.
- ``one_way_ms(a, b)`` — half an RTT sample, for message deliveries.

Endpoints are registered once with their position, tier, ISP tag and
bandwidth caps; everything else derives from the installed models.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.geo.point import GeoPoint
from repro.net.bandwidth import BandwidthModel
from repro.net.latency import (
    DistanceRttModel,
    EndpointInfo,
    NetworkTier,
    RttModel,
)


@dataclass
class NetworkEndpoint:
    """A registered network participant (user device or edge node)."""

    endpoint_id: str
    point: GeoPoint
    tier: NetworkTier = NetworkTier.HOME_WIFI
    isp: Optional[str] = None
    uplink_mbps: Optional[float] = None
    downlink_mbps: Optional[float] = None
    access_extra_ms: float = 0.0

    def info(self) -> EndpointInfo:
        return EndpointInfo(
            endpoint_id=self.endpoint_id,
            point=self.point,
            tier=self.tier,
            isp=self.isp,
            access_extra_ms=self.access_extra_ms,
        )


@dataclass(frozen=True)
class EndpointSpec:
    """Declarative network identity for a node or user endpoint.

    The one object that carries everything the topology needs to know
    about a participant's attachment — position, tier, ISP affiliation,
    bandwidth caps and last-mile overhead. APIs accept a spec instead of
    re-declaring these seven facts as individual keyword arguments
    (see :meth:`~repro.core.system.EdgeSystem.add_node` and
    :class:`~repro.api.ScenarioBuilder`).
    """

    point: GeoPoint
    tier: NetworkTier = NetworkTier.HOME_WIFI
    isp: Optional[str] = None
    uplink_mbps: Optional[float] = None
    downlink_mbps: Optional[float] = None
    access_extra_ms: float = 0.0

    def endpoint(self, endpoint_id: str) -> NetworkEndpoint:
        """Materialize the spec as a registrable endpoint."""
        return NetworkEndpoint(
            endpoint_id,
            self.point,
            tier=self.tier,
            isp=self.isp,
            uplink_mbps=self.uplink_mbps,
            downlink_mbps=self.downlink_mbps,
            access_extra_ms=self.access_extra_ms,
        )

    def moved_to(self, point: GeoPoint) -> "EndpointSpec":
        """A copy of this spec at a different position (placement loops)."""
        return EndpointSpec(
            point,
            tier=self.tier,
            isp=self.isp,
            uplink_mbps=self.uplink_mbps,
            downlink_mbps=self.downlink_mbps,
            access_extra_ms=self.access_extra_ms,
        )


def _unknown_endpoint(endpoint_id: str) -> KeyError:
    return KeyError(f"unknown endpoint: {endpoint_id!r}")


class NetworkTopology:
    """Registry of endpoints plus the latency/bandwidth models.

    Args:
        rtt_model: defaults to a calibrated :class:`DistanceRttModel`.
        bandwidth_model: defaults to home-broadband caps.
        rng: random source for jitter; pass a seeded stream.
    """

    def __init__(
        self,
        rtt_model: Optional[RttModel] = None,
        bandwidth_model: Optional[BandwidthModel] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self._rtt_model: RttModel = rtt_model or DistanceRttModel()
        self.bandwidth_model = bandwidth_model or BandwidthModel()
        self.rng = rng or random.Random(0)
        self._endpoints: Dict[str, NetworkEndpoint] = {}
        # --- RTT memoization (the per-probe fast path) ---------------
        # Endpoint identity is immutable once registered (replacement is
        # an explicit remove+add), so both the EndpointInfo view and —
        # for models declaring `cacheable_expected` — the expected RTT
        # of a pair can be memoized until one of the endpoints churns.
        self._info_cache: Dict[str, EndpointInfo] = {}
        self._expected_cache: Dict[Tuple[str, str], float] = {}
        #: endpoint id -> the cached pair keys that touch it, so churn
        #: invalidates exactly the affected pairs instead of scanning
        #: the whole cache.
        self._pairs_of: Dict[str, Set[Tuple[str, str]]] = {}

    # ------------------------------------------------------------------
    # Model wiring
    # ------------------------------------------------------------------
    @property
    def rtt_model(self) -> RttModel:
        """The installed RTT model; assigning a new one drops the cache."""
        return self._rtt_model

    @rtt_model.setter
    def rtt_model(self, model: RttModel) -> None:
        self._rtt_model = model
        self.invalidate_rtt_cache()

    def invalidate_rtt_cache(self, endpoint_id: Optional[str] = None) -> None:
        """Drop memoized RTT state — everything, or one endpoint's pairs.

        Called automatically on endpoint add/remove and on RTT-model
        replacement; call it manually after mutating an installed model
        in place (e.g. retuning ``DistanceRttModel`` parameters mid-run).
        """
        if endpoint_id is None:
            self._info_cache.clear()
            self._expected_cache.clear()
            self._pairs_of.clear()
            return
        self._info_cache.pop(endpoint_id, None)
        for key in self._pairs_of.pop(endpoint_id, ()):
            self._expected_cache.pop(key, None)

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    def add_endpoint(self, endpoint: NetworkEndpoint, *, replace: bool = False) -> None:
        """Register an endpoint under its unique id.

        Args:
            endpoint: the endpoint to register.
            replace: must be True to overwrite an existing registration
                (e.g. a node id being reused after a failure). Explicit
                replacement — rather than a silent overwrite — exists so
                stale per-endpoint state (memoized RTTs, spatial-index
                entries fed from heartbeats) can never survive an
                endpoint changing identity underneath the system.

        Raises:
            ValueError: if the id is already registered and ``replace``
                is False.
        """
        endpoint_id = endpoint.endpoint_id
        if endpoint_id in self._endpoints:
            if not replace:
                raise ValueError(
                    f"endpoint id already registered: {endpoint_id!r} "
                    "(pass replace=True to re-register explicitly)"
                )
            self.invalidate_rtt_cache(endpoint_id)
        self._endpoints[endpoint_id] = endpoint

    def remove_endpoint(self, endpoint_id: str) -> None:
        self._endpoints.pop(endpoint_id, None)
        self.invalidate_rtt_cache(endpoint_id)

    def endpoint(self, endpoint_id: str) -> NetworkEndpoint:
        try:
            return self._endpoints[endpoint_id]
        except KeyError:
            raise _unknown_endpoint(endpoint_id) from None

    def has_endpoint(self, endpoint_id: str) -> bool:
        return endpoint_id in self._endpoints

    def endpoint_ids(self) -> List[str]:
        return list(self._endpoints)

    def endpoints(self) -> Iterable[NetworkEndpoint]:
        return self._endpoints.values()

    # ------------------------------------------------------------------
    # Latency / bandwidth queries
    # ------------------------------------------------------------------
    def _info(self, endpoint_id: str) -> EndpointInfo:
        """Memoized :meth:`NetworkEndpoint.info` view of an endpoint."""
        info = self._info_cache.get(endpoint_id)
        if info is None:
            info = self.endpoint(endpoint_id).info()
            self._info_cache[endpoint_id] = info
        return info

    def rtt_ms(self, a: str, b: str) -> float:
        """One jittered RTT sample between registered endpoints.

        For models whose samples decompose into jitter around the
        expected value (all built-ins), this is a dict hit on the
        memoized expected RTT plus a fresh jitter draw — bit-identical
        to the unmemoized sample, since the jitter consumes the RNG the
        same way either route.
        """
        model = self._rtt_model
        if getattr(model, "jitter_decomposable", False):
            # The cache only ever holds what expected_rtt_ms() put there,
            # so a miss (first use, churned endpoint, non-cacheable
            # model) takes the long way round and a hit skips the call.
            expected = self._expected_cache.get((a, b))
            if expected is None:
                expected = self.expected_rtt_ms(a, b)
            return model.jitter.apply(expected, self.rng)
        return model.sample_rtt_ms(self._info(a), self._info(b), self.rng)

    def expected_rtt_ms(self, a: str, b: str) -> float:
        """Mean RTT between registered endpoints (no jitter)."""
        model = self._rtt_model
        if not getattr(model, "cacheable_expected", False):
            return model.expected_rtt_ms(self._info(a), self._info(b))
        key = (a, b)
        cached = self._expected_cache.get(key)
        if cached is not None:
            return cached
        value = model.expected_rtt_ms(self._info(a), self._info(b))
        self._expected_cache[key] = value
        self._pairs_of.setdefault(a, set()).add(key)
        self._pairs_of.setdefault(b, set()).add(key)
        return value

    def one_way_ms(self, a: str, b: str) -> float:
        """Half of an RTT sample: a single message delivery delay."""
        return self.rtt_ms(a, b) / 2.0

    def transfer_ms(self, src: str, dst: str, size_bytes: float) -> float:
        """Sampled payload transfer delay from ``src`` to ``dst``."""
        endpoints = self._endpoints
        try:
            uplink_mbps = endpoints[src].uplink_mbps
            downlink_mbps = endpoints[dst].downlink_mbps
        except KeyError as exc:
            raise _unknown_endpoint(exc.args[0]) from None
        return self.bandwidth_model.sample_transfer_ms(
            size_bytes,
            self.rng,
            uplink_mbps=uplink_mbps,
            downlink_mbps=downlink_mbps,
        )

    def expected_transfer_ms(self, src: str, dst: str, size_bytes: float) -> float:
        """Mean payload transfer delay (no contention noise)."""
        source = self.endpoint(src)
        destination = self.endpoint(dst)
        return self.bandwidth_model.expected_transfer_ms(
            size_bytes,
            uplink_mbps=source.uplink_mbps,
            downlink_mbps=destination.downlink_mbps,
        )

    def distance_km(self, a: str, b: str) -> float:
        """Great-circle distance between two registered endpoints."""
        return self.endpoint(a).point.distance_km(self.endpoint(b).point)

    def __len__(self) -> int:
        return len(self._endpoints)

    def __repr__(self) -> str:
        return f"NetworkTopology(endpoints={len(self._endpoints)})"
