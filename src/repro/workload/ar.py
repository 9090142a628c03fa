"""The AR cognitive-assistance application profile."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ARApplication:
    """Static profile of an edge application (one "application server type").

    Defaults reproduce §V-A of the paper: 0.02 MB encoded frames sent at
    up to 20 FPS, with negligible-size responses ("lightweight cognitive
    assistance instructions").

    Attributes:
        name: application identifier (one Application Manager per type).
        frame_bytes: encoded request payload size.
        response_bytes: response payload size (negligible by default).
        max_fps: maximum client offloading rate.
        min_fps: floor below which the adaptive controller will not go
            (the application becomes useless under ~2 FPS).
        target_latency_ms: end-to-end latency above which the experience
            degrades; the adaptive controller steers below this, and QoS
            -constrained selection policies can use it as the cutoff.
    """

    name: str = "ar-cognitive-assistance"
    frame_bytes: float = 0.02 * 1e6  # 0.02 MB
    response_bytes: float = 200.0
    max_fps: float = 20.0
    min_fps: float = 2.0
    target_latency_ms: float = 150.0

    def __post_init__(self) -> None:
        if self.frame_bytes <= 0:
            raise ValueError(f"frame_bytes must be positive: {self.frame_bytes}")
        if self.response_bytes < 0:
            raise ValueError(f"response_bytes must be >= 0: {self.response_bytes}")
        if not 0 < self.min_fps <= self.max_fps:
            raise ValueError(
                f"need 0 < min_fps <= max_fps, got {self.min_fps}, {self.max_fps}"
            )
        if self.target_latency_ms <= 0:
            raise ValueError(
                f"target_latency_ms must be positive: {self.target_latency_ms}"
            )


#: The paper's exact evaluation application.
DEFAULT_AR_APP = ARApplication()
