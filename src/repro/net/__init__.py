"""Network substrate: RTT, jitter, bandwidth and the topology.

The paper's client-to-edge connectivity is "determined by local ISP
infrastructures and unpredictable networking conditions" (§III-A). This
package models exactly the quantities the selection algorithm consumes:

- :class:`~repro.net.latency.DistanceRttModel` — RTT propagation delay
  (``D_prop``) from great-circle distance plus per-tier ISP inflation and
  lognormal jitter, calibrated against the paper's Fig. 1 measurements.
  It is the one RTT model: the per-event sim, the metro kernel and the
  §V-D1 emulation's pairwise latencies all run it.
- :mod:`~repro.net.bandwidth` — data transfer delay (``D_trans``) given
  message size and endpoint uplink/downlink caps.
- :class:`~repro.net.topology.EndpointSpec` — the one endpoint record:
  position, tier, ISP tag, bandwidth caps and last-mile overhead.
- :class:`~repro.net.topology.NetworkTopology` — the registry tying
  endpoint specs, the RTT model and the bandwidth model together.
"""

from repro.net.bandwidth import BandwidthModel, transfer_ms
from repro.net.latency import DistanceRttModel, JitterModel, NetworkTier
from repro.net.topology import EndpointSpec, NetworkTopology

__all__ = [
    "NetworkTier",
    "JitterModel",
    "DistanceRttModel",
    "BandwidthModel",
    "transfer_ms",
    "EndpointSpec",
    "NetworkTopology",
]
