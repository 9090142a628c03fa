"""Workload models: the AR cognitive-assistance application.

The paper evaluates with "AR-based cognitive assistance [that] helps
visually impaired people to identify objects. Users constantly send video
frames to edge servers at a max rate of 20 FPS (which can adaptively
decrease based on the network and processing performance). All video
frames have the standard size of 0.02 MB after encoding" (§V-A).

- :class:`~repro.workload.ar.ARApplication` — the application profile:
  frame size, max FPS, latency target.
- :class:`~repro.workload.frames.Frame` /
  :class:`~repro.workload.frames.FrameSource` — per-frame records and a
  seeded generator with optional size variation.
- :class:`~repro.workload.adaptive.AdaptiveRateController` — AIMD rate
  control that lowers FPS when observed end-to-end latency exceeds the
  target and recovers toward the maximum otherwise.
"""

from repro.workload.adaptive import AdaptiveRateController
from repro.workload.ar import ARApplication, DEFAULT_AR_APP
from repro.workload.frames import Frame, FrameSource

__all__ = [
    "ARApplication",
    "DEFAULT_AR_APP",
    "Frame",
    "FrameSource",
    "AdaptiveRateController",
]
