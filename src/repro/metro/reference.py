"""The per-frame reference for the metro kernel's cohort path.

:class:`PerFrameKernel` steps one event per frame on a private
:class:`~repro.sim.kernel.Simulator` — what cohort advancement replaces —
under the unchanged control plane of :class:`MetroKernel`. No config
value and no :class:`~repro.metro.runner.MetroSimulation` path builds
it: the property test holds the cohort path to its trace-event
multiset, and the metro bench times the cohort speedup against it.
"""

from __future__ import annotations

from functools import partial
from typing import Any

import numpy as np

from repro.metro.kernel import MetroKernel
from repro.metro.spec import TICK_MS
from repro.obs.events import FrameDone
from repro.sim.kernel import Simulator

__all__ = ["PerFrameKernel"]


class PerFrameKernel(MetroKernel):
    """:class:`MetroKernel` with one simulator event per frame."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._frame_sim = Simulator()

    def _advance_frames(self, k: int) -> None:
        t0 = k * TICK_MS
        t1 = t0 + TICK_MS
        wait = self._node_wait()

        def frame(u: int, m: int, due: float) -> None:
            self.frames_advanced += 1
            node = int(self.u_node[u])
            if node < 0 or not self.n_alive[node]:
                self.u_lost[u] += 1
                return
            lat = float(self.u_base[u]) + float(wait[node])
            self.u_frames[u] += 1
            self.u_lat_sum[u] += lat
            self.u_lat_max[u] = max(float(self.u_lat_max[u]), lat)
            if self.trace.enabled:
                uname, nname = self._user_name(u), self._node_name(node)
                self.trace.emit(FrameDone(due + lat, uname, nname, m, due, lat))

        m_lo, counts = self._frame_counts(t0, t1)
        schedule_at = self._frame_sim.schedule_at
        for u in np.flatnonzero(self.u_active & (counts > 0)).tolist():
            phase, lo = float(self.u_phase[u]), int(m_lo[u])
            for m in range(lo, lo + int(counts[u])):
                due = phase + m * self.interval_ms
                schedule_at(due, partial(frame, u, m, due), label="frame")
        self._frame_sim.run_until(t1)
