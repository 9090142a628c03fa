"""Adaptive offloading-rate control.

"Users constantly send video frames to edge servers at a max rate of 20
FPS (which can adaptively decrease based on the network and processing
performance)" (§V-A). Rate adaptation also matters structurally: it is
one of the causes of "varying amount of workload under the same number of
attached users" that the edge node's performance monitor exists to catch
(§IV-C2, trigger 3).

:class:`AdaptiveRateController` implements AIMD over the observed
end-to-end latency: multiplicative decrease when latency exceeds the
application target (the queue is building), additive increase back toward
``max_fps`` when comfortably below it. An EWMA smooths per-frame noise so
a single jitter spike does not halve the rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.workload.ar import ARApplication


@dataclass
class AdaptiveRateController:
    """AIMD frame-rate controller for one user.

    Attributes:
        app: the application profile (bounds and latency target).
        decrease_factor: multiplicative backoff on overload (0 < f < 1).
        increase_fps: additive recovery per adjustment interval.
        ewma_alpha: smoothing of observed latency.
        headroom: fraction of the target below which recovery is allowed
            (hysteresis so the controller does not oscillate around the
            target).
    """

    app: ARApplication
    decrease_factor: float = 0.7
    increase_fps: float = 1.0
    ewma_alpha: float = 0.2
    headroom: float = 0.85
    fps: float = field(init=False)
    smoothed_latency_ms: float = field(init=False, default=0.0)
    adjustments: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if not 0.0 < self.decrease_factor < 1.0:
            raise ValueError(f"decrease_factor must be in (0,1): {self.decrease_factor}")
        if self.increase_fps <= 0:
            raise ValueError(f"increase_fps must be positive: {self.increase_fps}")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha must be in (0,1]: {self.ewma_alpha}")
        if not 0.0 < self.headroom <= 1.0:
            raise ValueError(f"headroom must be in (0,1]: {self.headroom}")
        self.fps = self.app.max_fps

    def observe(self, latency_ms: float) -> None:
        """Feed one end-to-end latency observation and adapt the rate."""
        if latency_ms < 0:
            raise ValueError(f"latency must be >= 0: {latency_ms}")
        if self.smoothed_latency_ms == 0.0:
            self.smoothed_latency_ms = latency_ms
        else:
            self.smoothed_latency_ms = (
                self.ewma_alpha * latency_ms
                + (1.0 - self.ewma_alpha) * self.smoothed_latency_ms
            )
        target = self.app.target_latency_ms
        if self.smoothed_latency_ms > target:
            new_fps = max(self.app.min_fps, self.fps * self.decrease_factor)
        elif self.smoothed_latency_ms < target * self.headroom:
            new_fps = min(self.app.max_fps, self.fps + self.increase_fps)
        else:
            return
        if new_fps != self.fps:
            self.fps = new_fps
            self.adjustments += 1

    @property
    def interval_ms(self) -> float:
        """Current inter-frame interval."""
        return 1000.0 / self.fps
