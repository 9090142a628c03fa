"""Frame records and the client-side frame source."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional

from repro.workload.ar import ARApplication


@dataclass(slots=True)
class Frame:
    """One offloading request: a single encoded video frame.

    Slotted, not frozen: one is built per offloaded frame, and a frozen
    dataclass pays an ``object.__setattr__`` per field.

    Attributes:
        frame_id: globally unique id (for tracing and response matching).
        user_id: originating user.
        created_ms: client-side creation timestamp (sim ms).
        size_bytes: encoded payload size.
        synthetic: True for the "what-if" test frame an edge node
            invokes on itself (never crosses the network).
    """

    frame_id: int
    user_id: str
    created_ms: float
    size_bytes: float
    synthetic: bool = False


class FrameSource:
    """Generates the stream of frames a user offloads.

    Encoded frame sizes in a real camera stream vary a little with scene
    complexity; ``size_jitter`` adds a bounded uniform variation around
    the application's standard frame size (0 disables it, matching the
    paper's "standard size" simplification).
    """

    def __init__(
        self,
        user_id: str,
        app: ARApplication,
        rng: Optional[random.Random] = None,
        size_jitter: float = 0.0,
    ) -> None:
        if not 0.0 <= size_jitter < 1.0:
            raise ValueError(f"size_jitter must be in [0, 1): {size_jitter}")
        self.user_id = user_id
        self.app = app
        self.rng = rng or random.Random(0)
        self.size_jitter = size_jitter
        self.frames_created = 0
        # Per-source ids: frames are identified by (user_id, frame_id)
        # everywhere downstream, and a process-global counter would make
        # otherwise-identical runs diverge (determinism contract).
        self._ids = itertools.count(1)

    def next_frame(self, now_ms: float) -> Frame:
        """Create the next frame at time ``now_ms``."""
        size = self.app.frame_bytes
        if self.size_jitter > 0:
            size *= 1.0 + self.rng.uniform(-self.size_jitter, self.size_jitter)
        self.frames_created += 1
        return Frame(next(self._ids), self.user_id, now_ms, size)
