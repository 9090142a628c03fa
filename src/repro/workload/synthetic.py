"""The synthetic test workload behind "what-if" probing.

"To avoid time-consuming profiling and to improve the accuracy of
performance prediction, we invoke a *test synthetic workload* to simulate
'new-user-join' scenarios. The test workload is based on the same
application logic and compute requirements as the real offloading task"
(§IV-C2). For the AR application it is "image processing for a single
synthetic video frame with standard image size".

:class:`TestWorkload` describes that synthetic unit of work; the edge
server submits it to its own :class:`~repro.nodes.processing.FrameProcessor`
queue and caches the measured sojourn as the node's current "what-if"
performance.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.workload.ar import ARApplication


@dataclass(frozen=True)
class TestWorkload:
    """Descriptor of the synthetic probe workload for an application.

    Attributes:
        app: the application whose compute requirements it mirrors.
    """

    #: Not a test case, despite the name (pytest collection hint).
    __test__ = False

    app: ARApplication

    @property
    def frame_bytes(self) -> float:
        """Synthetic frame size: the application's standard frame."""
        return self.app.frame_bytes
