"""The network topology: endpoint specs + RTT model + bandwidth model.

:class:`NetworkTopology` is the single object the rest of the system asks
network questions of:

- ``rtt_ms(a, b)`` — one jittered RTT sample (what a probe observes).
- ``expected_rtt_ms(a, b)`` — the mean (what an oracle/optimal solver
  uses).
- ``transfer_ms(a, b, size)`` — request payload transfer delay capped by
  the sender's uplink.
- ``one_way_ms(a, b)`` — half an RTT sample, for message deliveries.

Each endpoint is registered once, under its id, as an
:class:`EndpointSpec` — position, tier, ISP tag, bandwidth caps and
last-mile overhead; the :class:`~repro.net.latency.DistanceRttModel` and
the bandwidth model read everything else off those specs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.geo.point import GeoPoint
from repro.net.bandwidth import BandwidthModel
from repro.net.latency import DistanceRttModel, NetworkTier


@dataclass(frozen=True)
class EndpointSpec:
    """The network identity of a node, user or manager endpoint.

    The one record that carries everything the topology needs to know
    about a participant's attachment — position, tier, ISP affiliation,
    bandwidth caps and last-mile overhead. The RTT and bandwidth models
    read it directly, and APIs accept a spec instead of re-declaring
    these facts as individual keyword arguments (see
    :meth:`~repro.core.system.EdgeSystem.add_node` and
    :class:`~repro.api.ScenarioBuilder`).
    """

    point: GeoPoint
    tier: NetworkTier = NetworkTier.HOME_WIFI
    #: Optional ISP/affiliation tag: endpoints sharing a tag get the
    #: intra-ISP discount (fewer interconnect hops).
    isp: Optional[str] = None
    uplink_mbps: Optional[float] = None
    downlink_mbps: Optional[float] = None
    #: Per-endpoint access-link overhead (ms, one-way): heterogeneous
    #: last-mile quality (DSL vs cable vs fiber, bad WiFi placement).
    #: This is the dominant source of the RTT heterogeneity Fig. 1
    #: measures across "volunteer-based edge nodes ... with
    #: heterogeneous network access".
    access_extra_ms: float = 0.0


def _unknown_endpoint(endpoint_id: str) -> KeyError:
    return KeyError(f"unknown endpoint: {endpoint_id!r}")


class NetworkTopology:
    """Registry of endpoint specs plus the latency/bandwidth models.

    Args:
        rtt_model: defaults to a calibrated :class:`DistanceRttModel`.
        bandwidth_model: defaults to home-broadband caps.
        rng: random source for jitter; pass a seeded stream.
    """

    def __init__(
        self,
        rtt_model: Optional[DistanceRttModel] = None,
        bandwidth_model: Optional[BandwidthModel] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self._rtt_model = rtt_model or DistanceRttModel()
        self.bandwidth_model = bandwidth_model or BandwidthModel()
        self.rng = rng or random.Random(0)
        self._endpoints: Dict[str, EndpointSpec] = {}
        # --- RTT memoization (the per-probe fast path) ---------------
        # A pair's expected RTT is a pure function of its two specs and
        # the model, which is fixed at construction, so it is memoized
        # until one of the two endpoints is re-registered.
        self._expected_cache: Dict[Tuple[str, str], float] = {}
        #: endpoint id -> the cached pair keys that touch it, so a
        #: replacement invalidates exactly the affected pairs instead of
        #: scanning the whole cache.
        self._pairs_of: Dict[str, Set[Tuple[str, str]]] = {}

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    def add_endpoint(
        self, endpoint_id: str, spec: EndpointSpec, *, replace: bool = False
    ) -> None:
        """Register an endpoint's spec under its unique id.

        Args:
            endpoint_id: the node, user or manager id.
            spec: the endpoint's network identity.
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
        if endpoint_id in self._endpoints:
            if not replace:
                raise ValueError(
                    f"endpoint id already registered: {endpoint_id!r} "
                    "(pass replace=True to re-register explicitly)"
                )
            for key in self._pairs_of.pop(endpoint_id, ()):
                self._expected_cache.pop(key, None)
        self._endpoints[endpoint_id] = spec

    def endpoint(self, endpoint_id: str) -> EndpointSpec:
        try:
            return self._endpoints[endpoint_id]
        except KeyError:
            raise _unknown_endpoint(endpoint_id) from None

    def has_endpoint(self, endpoint_id: str) -> bool:
        return endpoint_id in self._endpoints

    # ------------------------------------------------------------------
    # Latency / bandwidth queries
    # ------------------------------------------------------------------
    def rtt_ms(self, a: str, b: str) -> float:
        """One jittered RTT sample between registered endpoints.

        A dict hit on the memoized expected RTT plus a fresh jitter draw
        — bit-identical to :meth:`DistanceRttModel.sample_rtt_ms` on the
        two specs, since the jitter consumes the RNG the same way either
        route.
        """
        expected = self._expected_cache.get((a, b))
        if expected is None:
            expected = self.expected_rtt_ms(a, b)
        return self._rtt_model.jitter.apply(expected, self.rng)

    def expected_rtt_ms(self, a: str, b: str) -> float:
        """Mean RTT between registered endpoints (no jitter)."""
        key = (a, b)
        cached = self._expected_cache.get(key)
        if cached is not None:
            return cached
        value = self._rtt_model.expected_rtt_ms(self.endpoint(a), self.endpoint(b))
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

    def __repr__(self) -> str:
        return f"NetworkTopology(endpoints={len(self._endpoints)})"
