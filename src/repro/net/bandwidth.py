"""Data transfer delay (``D_trans``) model.

The paper observes that for AR cognitive assistance "user outbound
bandwidth usually becomes the data transfer bottleneck, which is
determined by network access method/ISP configurations/traffic plans" and
that "edge selection has limited effect on first-hop data transfer
performance" (§IV-C1). We model exactly that: the transfer delay of a
request is its payload divided by the *minimum* of the sender's uplink
and the receiver's downlink, i.e. the first hop dominates and the chosen
edge barely moves it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import exp
from typing import Optional


def transfer_ms(size_bytes: float, bottleneck_mbps: float) -> float:
    """Serialization delay of ``size_bytes`` through ``bottleneck_mbps``.

    Raises:
        ValueError: on non-positive bandwidth or negative size.
    """
    if bottleneck_mbps <= 0:
        raise ValueError(f"bandwidth must be positive: {bottleneck_mbps}")
    if size_bytes < 0:
        raise ValueError(f"size must be >= 0: {size_bytes}")
    bits = size_bytes * 8.0
    return bits / (bottleneck_mbps * 1e6) * 1e3


@dataclass
class BandwidthModel:
    """Endpoint-capped transfer delays with optional utilization noise.

    Args:
        default_uplink_mbps / default_downlink_mbps: caps applied when an
            endpoint does not declare its own.
        contention_sigma: lognormal-ish noise factor on effective
            bandwidth, modelling cross-traffic on the home link; 0
            disables noise.
    """

    default_uplink_mbps: float = 20.0
    default_downlink_mbps: float = 200.0
    contention_sigma: float = 0.10

    def __post_init__(self) -> None:
        if self.default_uplink_mbps <= 0 or self.default_downlink_mbps <= 0:
            raise ValueError("default bandwidths must be positive")
        if self.contention_sigma < 0:
            raise ValueError("contention_sigma must be >= 0")

    def bottleneck_mbps(
        self,
        uplink_mbps: Optional[float],
        downlink_mbps: Optional[float],
    ) -> float:
        """Effective path bandwidth given sender uplink / receiver downlink."""
        up = uplink_mbps if uplink_mbps is not None else self.default_uplink_mbps
        down = (
            downlink_mbps if downlink_mbps is not None else self.default_downlink_mbps
        )
        return min(up, down)

    def expected_transfer_ms(
        self,
        size_bytes: float,
        uplink_mbps: Optional[float] = None,
        downlink_mbps: Optional[float] = None,
    ) -> float:
        """Mean transfer delay (no contention noise)."""
        return transfer_ms(size_bytes, self.bottleneck_mbps(uplink_mbps, downlink_mbps))

    def sample_transfer_ms(
        self,
        size_bytes: float,
        rng: random.Random,
        uplink_mbps: Optional[float] = None,
        downlink_mbps: Optional[float] = None,
    ) -> float:
        """One transfer-delay sample with cross-traffic noise."""
        # bottleneck_mbps() inline: this runs once per offloaded frame.
        up = uplink_mbps if uplink_mbps is not None else self.default_uplink_mbps
        down = (
            downlink_mbps if downlink_mbps is not None else self.default_downlink_mbps
        )
        base = transfer_ms(size_bytes, down if down < up else up)
        if self.contention_sigma <= 0:
            return base
        # Effective bandwidth dips under cross-traffic -> delay inflates.
        # exp(normalvariate) is what lognormvariate is (3.10-3.12); see
        # JitterModel.apply.
        factor = exp(rng.normalvariate(0.0, self.contention_sigma))
        return base * max(factor, 0.5)
