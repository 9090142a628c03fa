"""The metro-scale simulation kernel.

:class:`MetroKernel` advances one shard (or the whole metro when
unsharded) of a :class:`~repro.metro.spec.MetroSpec` population. It is a
deliberately coarser model than the high-fidelity
:class:`~repro.core.system.EdgeSystem` kernel — built to answer
population-scale questions (load balance, failover coverage, handoff
rates at 10^5 nodes / 10^6 users) that the per-message kernel cannot
reach:

- **Tick quantization.** All control-plane activity — initial attach,
  periodic re-selection rounds, node failures, failure detections, shard
  boundary epochs — happens on multiples of the 250 ms
  :data:`~repro.metro.spec.TICK_MS`. Within a tick window the world is
  frozen, which is the load-bearing property behind cohort batching:
  frame outcomes in a window are a pure function of per-user state at
  the window's start, so whole cohorts can be advanced with array
  arithmetic.
- **Analytic queueing.** Instead of simulating each node's frame queue,
  per-frame wait uses the M/D/1 mean-wait closed form over the node's
  attached offered load. Propagation is
  :meth:`~repro.net.latency.DistanceRttModel.distance_rtt_ms`, the sim's
  own formula, with both endpoints on the HOME_WIFI tier.
- **One frame path.** Each tick's frames advance as whole-population
  array arithmetic; with capture on, the same arrays then emit one
  ``FrameDone`` per frame. The per-frame reference,
  :class:`~repro.metro.reference.PerFrameKernel`, steps one simulator
  event per frame under the same control plane and is held to the same
  trace-event multiset (property-tested). :meth:`MetroKernel.report`
  returns the captured trace stable-sorted by time.

Entity naming: node ``i`` of the population is ``n{i}`` in every trace
event and public API; user ``j`` is ``u{j}``. Shard-local arrays map to
these global indices via ``n_gid``/``u_gid``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil
from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.config import SystemConfig
from repro.geo import geohash
from repro.geo.point import EARTH_RADIUS_KM
from repro.metro.spec import FRAME_TRANSFER_MS, TICK_MS, MetroPopulation, MetroSpec
from repro.metro.spec import quantize_ticks
from repro.net.latency import TIER_INFLATION_MS, DistanceRttModel, NetworkTier
from repro.obs.events import (
    CoveredFailover,
    FrameDone,
    JoinAccept,
    NodeFail,
    ShardHandoff,
    Switch,
    TraceEvent,
    UncoveredFailure,
)
from repro.obs.tracer import Tracer
from repro.protocol.selection import SelectionConfig

__all__ = [
    "MetroKernel",
    "MetroShardReport",
    "MigrationRecord",
    "ShardOutbox",
    "ShardInbox",
]

#: The sim's latency model at its defaults; both endpoints of every
#: metro path sit on the HOME_WIFI tier (the volunteer/user last mile).
_RTT = DistanceRttModel()
_TIER_MS = 2.0 * TIER_INFLATION_MS[NetworkTier.HOME_WIFI]
#: M/D/1 utilization cap — matches the EdgeSystem queue's stability
#: guard: beyond this the analytic wait would explode to infinity.
_RHO_CAP = 0.95

#: Cap on the (user, candidate) pairs whose base latency one flat
#: ``_base_vec`` pass scores; bounds the scorer's temporaries (~0.1 MB
#: each) where a 3x3 neighbourhood holds thousands of candidates.
_SCORE_CHUNK_PAIRS = 1 << 14


def _pair_chunks(starts: np.ndarray) -> Iterator[Tuple[int, int]]:
    """Cut rows holding ``starts[i]:starts[i + 1]`` of a flat pair list
    into ``[lo, hi)`` runs: whole rows only, at least one, up to the cap."""
    lo = 0
    while lo < starts.size - 1:
        cap = starts[lo] + _SCORE_CHUNK_PAIRS
        hi = max(lo + 1, int(np.searchsorted(starts, cap, side="right")) - 1)
        yield lo, hi
        lo = hi


def _haversine_km(
    lat1: np.ndarray, lon1: np.ndarray, lat2: np.ndarray, lon2: np.ndarray
) -> np.ndarray:
    """Vectorized great-circle distance (same formula as GeoPoint)."""
    p1 = np.radians(lat1)
    p2 = np.radians(lat2)
    dphi = p2 - p1
    dlmb = np.radians(lon2 - lon1)
    a = np.sin(dphi / 2.0) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(dlmb / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(a))


@dataclass
class _Cohort:
    """Per user, whether its due frames complete (``ok``: attached to a
    live node) and at what latency (``lat``: base plus that node's wait),
    with the fleet's wait and liveness they were read from."""

    ok: np.ndarray
    lat: np.ndarray
    wait: np.ndarray
    alive: np.ndarray

    def read_from(self, wait: np.ndarray, alive: np.ndarray) -> bool:
        """Whether ``wait`` and ``alive`` are what this cohort was read
        from: the wait as float64 bits, so -0.0 and NaN cannot alias."""
        return np.array_equal(
            self.wait.view(np.uint64), wait.view(np.uint64)
        ) and np.array_equal(self.alive, alive)


@dataclass
class MigrationRecord:
    """One user crossing the shard boundary channel (picklable)."""

    user_gid: int
    target_gid: int
    from_shard: str
    lat: float
    lon: float
    phase_ms: float
    frames_done: int
    frames_lost: int
    latency_sum_ms: float
    latency_max_ms: float


@dataclass
class ShardOutbox:
    """What one shard publishes at an epoch boundary."""

    shard_id: str
    #: Authoritative (load_fps, alive) for every node this shard owns
    #: that is ghost-advertised elsewhere.
    exports: Dict[int, Tuple[float, bool]] = field(default_factory=dict)
    migrations: List[MigrationRecord] = field(default_factory=list)


@dataclass
class ShardInbox:
    """What one shard receives at an epoch boundary (already routed)."""

    #: Ghost refresh: node gid -> (load_fps, alive).
    ghost_updates: Dict[int, Tuple[float, bool]] = field(default_factory=dict)
    migrations: List[MigrationRecord] = field(default_factory=list)


@dataclass
class MetroShardReport:
    """Counters and (optionally captured) trace of one shard kernel."""

    shard_id: str
    nodes: int
    users: int
    frames_done: int
    frames_lost: int
    switches: int
    covered_failovers: int
    uncovered_failures: int
    handoffs_out: int
    handoffs_in: int
    unattached_initial: int
    latency_sum_ms: float
    latency_max_ms: float
    frames_advanced: int
    control_ops: int
    trace_events: List[TraceEvent] = field(default_factory=list)

    @property
    def mean_latency_ms(self) -> float:
        if self.frames_done == 0:
            raise ValueError("no completed frames")
        return self.latency_sum_ms / self.frames_done


class MetroKernel:
    """One shard of the cohort-batched metro simulation.

    Args:
        config: system tunables; the metro kernel honours ``top_n``,
            ``probing_period_ms``, ``failure_detection_ms`` and
            ``min_dwell_ms`` (durations quantized to the 250 ms tick);
            its switch gate is
            :meth:`~repro.protocol.selection.SelectionConfig.switch_threshold`
            on the defaults.
        spec: the metro deployment shape.
        population: generated entity arrays (shared, never mutated),
            the one source of the cell precision.
        shard_id: name used in handoff trace events.
        node_gids: global indices of nodes this shard *owns* (ascending;
            None = all).
        user_gids: global indices of users starting on this shard
            (ascending; None = all).
        ghost_gids: global indices of boundary nodes owned by other
            shards but advertised here (ascending).
        ghost_shards: owning shard id per ghost (parallel to
            ``ghost_gids``).
        export_gids: owned nodes that other shards ghost-advertise; their
            (load, alive) goes into every epoch outbox.
        tracer: trace capture; defaults to a disabled tracer.
    """

    def __init__(
        self,
        config: SystemConfig,
        spec: MetroSpec,
        population: MetroPopulation,
        *,
        shard_id: str = "metro",
        node_gids: Optional[np.ndarray] = None,
        user_gids: Optional[np.ndarray] = None,
        ghost_gids: Optional[np.ndarray] = None,
        ghost_shards: Optional[List[str]] = None,
        export_gids: Optional[np.ndarray] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.config = config
        self.spec = spec
        self.shard_id = shard_id
        self.cell_precision = population.cell_precision
        self.trace = tracer if tracer is not None else Tracer.disabled()

        if node_gids is None:
            node_gids = np.arange(population.nodes, dtype=np.int64)
        if user_gids is None:
            user_gids = np.arange(population.users, dtype=np.int64)
        if ghost_gids is None:
            ghost_gids = np.empty(0, dtype=np.int64)
        ghost_shards = list(ghost_shards or [])
        if len(ghost_shards) != ghost_gids.size:
            raise ValueError("ghost_shards must parallel ghost_gids")
        self._export_gids: List[int] = (
            np.asarray(export_gids, dtype=np.int64).tolist()
            if export_gids is not None
            else []
        )

        # --- node table: owned nodes first, then ghosts --------------
        own = np.asarray(node_gids, dtype=np.int64)
        gho = np.asarray(ghost_gids, dtype=np.int64)
        self.n_gid = np.concatenate([own, gho])
        self.n_lat = population.node_lat[self.n_gid]
        self.n_lon = population.node_lon[self.n_gid]
        self.n_service = population.node_service_ms[self.n_gid]
        self.n_alive = np.ones(self.n_gid.size, dtype=bool)
        self.n_load = np.zeros(self.n_gid.size, dtype=np.float64)
        self.n_ghost = np.zeros(self.n_gid.size, dtype=bool)
        self.n_ghost[own.size :] = True
        self._ghost_shard: Dict[int, str] = {
            int(own.size + i): ghost_shards[i] for i in range(gho.size)
        }
        self._node_local: Dict[int, int] = dict(
            zip(self.n_gid.tolist(), range(self.n_gid.size))
        )
        self._export_local = np.array(
            [self._node_local[g] for g in self._export_gids], dtype=np.int64
        )
        n_cell = population.node_cell[self.n_gid]
        #: cell id -> ascending local node indices hosted in that cell.
        self._cell_nodes: Dict[int, np.ndarray] = {}
        order = np.argsort(n_cell, kind="stable")
        sorted_cells = n_cell[order]
        # No cell, no entry: a shard may own users but not a single node.
        hosting, starts = np.unique(sorted_cells, return_index=True)
        bounds = np.r_[starts, sorted_cells.size].tolist()
        for i, cell in enumerate(hosting.tolist()):
            # A stable argsort keeps equal cells in index order: ascending.
            self._cell_nodes[cell] = order[bounds[i] : bounds[i + 1]]
        self._cell_cands: Dict[int, np.ndarray] = {}

        # --- user table ----------------------------------------------
        ug = np.asarray(user_gids, dtype=np.int64)
        self.u_gid = ug.copy()
        self.u_lat = population.user_lat[ug]
        self.u_lon = population.user_lon[ug]
        self.u_phase = population.user_phase_ms[ug]
        self.u_cell = population.user_cell[ug]
        self.u_node = np.full(ug.size, -1, dtype=np.int64)
        self.u_base = np.zeros(ug.size, dtype=np.float64)
        self.u_active = np.ones(ug.size, dtype=bool)
        self.u_join_tick = np.zeros(ug.size, dtype=np.int64)
        self.u_pending = np.full(ug.size, -1, dtype=np.int64)
        self.u_frames = np.zeros(ug.size, dtype=np.int64)
        self.u_lost = np.zeros(ug.size, dtype=np.int64)
        self.u_lat_sum = np.zeros(ug.size, dtype=np.float64)
        self.u_lat_max = np.zeros(ug.size, dtype=np.float64)

        # --- time & quantized control parameters ---------------------
        self.interval_ms = spec.interval_ms
        self.fps = spec.fps
        self._tick_index = 0
        self._detect_ticks = quantize_ticks(config.failure_detection_ms)
        self._period_ticks = quantize_ticks(config.probing_period_ms)
        self._dwell_ticks = int(ceil(config.min_dwell_ms / TICK_MS - 1e-9))
        #: The tick (mod the probing period) each user re-selects on.
        self.u_slot = self.u_gid % self._period_ticks
        self._agenda: Dict[int, List[Tuple[str, int]]] = {}
        self._pending_handoffs: List[int] = []
        #: What a quiet tick reuses (``_advance_frames``); every write to
        #: ``u_node``, ``u_base`` or ``u_active`` drops it.
        self._cohort: Optional[_Cohort] = None
        #: Each user's floored frame index at the end of the last advanced
        #: tick: the next tick's lower bound minus one, while
        #: ``_floor_key`` (that next tick, the user count) still holds.
        self._floor_hi = np.empty(0, dtype=np.int64)
        self._floor_key = (-1, -1)

        # --- counters -------------------------------------------------
        self.frames_advanced = 0
        self.control_ops = 0
        self.switches = 0
        self.covered_failovers = 0
        self.uncovered_failures = 0
        self.handoffs_out = 0
        self.handoffs_in = 0
        self.unattached_initial = 0

    # ------------------------------------------------------------------
    # Public stepping API
    # ------------------------------------------------------------------
    @property
    def now_ms(self) -> float:
        return self._tick_index * TICK_MS

    def schedule_node_fail(self, node_gid: int, at_ms: float) -> None:
        """Kill node ``n{node_gid}`` at the tick boundary covering
        ``at_ms`` (rounded up; quantization contract)."""
        local = self._node_local.get(int(node_gid))
        if local is None:
            raise KeyError(f"node n{node_gid} is not on shard {self.shard_id!r}")
        if self.n_ghost[local]:
            raise ValueError(
                f"node n{node_gid} is a ghost on shard {self.shard_id!r}; "
                "schedule the failure on its owning shard"
            )
        tick = max(self._tick_index, int(ceil(at_ms / TICK_MS - 1e-9)))
        self._agenda.setdefault(tick, []).append(("fail", local))

    def run(self, sim_seconds: float) -> MetroShardReport:
        """Step from now to ``sim_seconds`` and report."""
        if sim_seconds <= 0:
            raise ValueError(f"sim_seconds must be positive: {sim_seconds}")
        self.step_to(sim_seconds * 1000.0)
        return self.report()

    def step_to(self, t_ms: float) -> None:
        """Advance to ``t_ms`` (must be a whole multiple of the tick)."""
        target = round(t_ms / TICK_MS)
        if abs(target * TICK_MS - t_ms) > 1e-6:
            raise ValueError(
                f"step_to target {t_ms} is not a multiple of tick {TICK_MS}"
            )
        while self._tick_index < target:
            self._control(self._tick_index)
            self._advance_frames(self._tick_index)
            self._tick_index += 1

    # ------------------------------------------------------------------
    # Boundary channel (called by the runner at epoch boundaries)
    # ------------------------------------------------------------------
    def finish_epoch(self) -> ShardOutbox:
        """Publish exports + migrations decided during the past epoch."""
        exported = self._export_local
        state = zip(self.n_load[exported].tolist(), self.n_alive[exported].tolist())
        exports = dict(zip(self._export_gids, state))
        pending = np.array(self._pending_handoffs, dtype=np.int64)
        users = pending[np.argsort(self.u_gid[pending])]
        stats = (self.u_frames, self.u_lost, self.u_lat_sum, self.u_lat_max)
        carried = (self.u_lat, self.u_lon, self.u_phase, *stats)
        migrations = [
            MigrationRecord(user, target, self.shard_id, *rest)
            for user, target, *rest in zip(
                self.u_gid[users].tolist(),
                self.n_gid[self.u_pending[users]].tolist(),
                *(column[users].tolist() for column in carried),
            )
        ]
        # Detach locally: the users' stats travel with the records, so
        # zero them here to avoid double counting in reports.
        cur = self.u_node[users]
        np.subtract.at(self.n_load, cur[cur >= 0], self.fps)
        if users.size:
            self._cohort = None
        self.u_node[users] = self.u_pending[users] = -1
        self.u_active[users] = False
        for column in stats:
            column[users] = 0
        self.handoffs_out += users.size
        self._pending_handoffs.clear()
        return ShardOutbox(self.shard_id, exports, migrations)

    def apply_inbox(self, inbox: ShardInbox) -> None:
        """Apply ghost refreshes + arriving users (start of an epoch)."""
        for gid, state in sorted(inbox.ghost_updates.items()):
            local = self._node_local.get(gid)
            if local is not None and self.n_ghost[local]:
                self.n_load[local], self.n_alive[local] = state
        if not inbox.migrations:
            return
        arrivals = sorted(inbox.migrations, key=lambda r: r.user_gid)
        first = self.u_gid.size
        self._append_users(arrivals)
        self.handoffs_in += len(arrivals)
        self.control_ops += len(arrivals)
        # An arrival whose handoff target is alive and local attaches to
        # it; that base reads no load, so one flat pass scores them all.
        # Loads go up in gid order: a fallback in between must see them.
        target = np.array([self._node_local.get(r.target_gid, -1) for r in arrivals])
        direct = (target >= 0) & self.n_alive[target] & ~self.n_ghost[target]
        users, nodes = first + np.flatnonzero(direct), target[direct]
        self.u_node[users] = nodes
        self.u_base[users] = self._base_vec(users, nodes)
        for u, n in enumerate(np.where(direct, target, -1).tolist(), first):
            if n < 0:
                n = self._admit_migrant(u)
            else:
                self.n_load[n] += self.fps
            if n >= 0 and self.trace.enabled:
                self.trace.emit(
                    JoinAccept(self.now_ms, self._user_name(u), self._node_name(n))
                )

    def _append_users(self, records: List[MigrationRecord]) -> None:
        """Grow every user column by one row per record."""

        def column(name: str, dtype: type = np.float64) -> np.ndarray:
            return np.array([getattr(r, name) for r in records], dtype=dtype)

        gids, lats, lons = column("user_gid", np.int64), column("lat"), column("lon")
        rows = {
            "u_gid": gids,
            "u_slot": gids % self._period_ticks,
            "u_lat": lats,
            "u_lon": lons,
            "u_phase": column("phase_ms"),
            "u_cell": geohash.encode_cells(lats, lons, self.cell_precision),
            "u_node": np.full_like(gids, -1),
            "u_base": np.zeros_like(lats),
            "u_active": np.ones_like(gids, dtype=bool),
            "u_join_tick": np.full_like(gids, self._tick_index),
            "u_pending": np.full_like(gids, -1),
            "u_frames": column("frames_done", np.int64),
            "u_lost": column("frames_lost", np.int64),
            "u_lat_sum": column("latency_sum_ms"),
            "u_lat_max": column("latency_max_ms"),
        }
        # Every user column grows, and the caller attaches the arrivals.
        self._cohort = None
        for name, tail in rows.items():
            setattr(self, name, np.concatenate([getattr(self, name), tail]))

    def _admit_migrant(self, u: int) -> int:
        """An arrival whose handoff target died in transit re-selects
        locally; the node it attached to, -1 if none is left."""
        _, best, base, _ = next(self._scored(np.array([u]), include_ghosts=False))
        if best < 0:
            self.uncovered_failures += 1
            if self.trace.listening:
                self.trace.emit(UncoveredFailure(self.now_ms, self._user_name(u)))
        else:
            self._attach(u, best, base)
        return best

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def _control(self, k: int) -> None:
        t = k * TICK_MS
        if k == 0:
            self._initial_attach()
        actions = self._agenda.pop(k, None)
        if actions:
            fails = sorted(n for kind, n in actions if kind == "fail")
            detects = sorted(n for kind, n in actions if kind == "detect")
            for n in fails:
                self._fail_node(n, k, t)
            for n in detects:
                self._detect_failure(n, t)
        if k > 0:
            self._selection_round(k, t)

    def _fail_node(self, n: int, k: int, t: float) -> None:
        if not self.n_alive[n]:
            return
        self.control_ops += 1
        self.n_alive[n] = False
        if self.trace.listening:
            self.trace.emit(NodeFail(t, self._node_name(n)))
        self._agenda.setdefault(k + self._detect_ticks, []).append(("detect", n))

    def _detect_failure(self, n: int, t: float) -> None:
        """Clients of a dead node notice at the quantized detection tick
        and walk to a live candidate (the per-client fallback path)."""
        orphans = np.flatnonzero(self.u_node == n)
        self.control_ops += orphans.size
        emit = self.trace.emit if self.trace.listening else None
        for u, best, base, _ in self._scored(orphans, include_ghosts=False):
            if best < 0:
                self._cohort = None
                self.u_node[u] = -1
                self.uncovered_failures += 1
                if emit:
                    emit(UncoveredFailure(t, self._user_name(u)))
                continue
            self.covered_failovers += 1
            if emit:
                emit(CoveredFailover(t, self._user_name(u), self._node_name(best)))
            # The dead node's bookkeeping load is irrelevant; just move.
            self._attach(u, best, base)

    def _selection_round(self, k: int, t: float) -> None:
        due = np.flatnonzero(self.u_slot == k % self._period_ticks)
        due = due[
            self.u_active[due]
            & (self.u_node[due] >= 0)
            & (self.u_pending[due] < 0)
            & (k - self.u_join_tick[due] >= self._dwell_ticks)
        ]
        self.control_ops += due.size
        emit = self.trace.emit if self.trace.listening else None
        node_of, base_of = self.u_node.item, self.u_base.item
        threshold = SelectionConfig().switch_threshold
        for u, best, base, wait in self._scored(due, include_ghosts=True):
            cur = node_of(u)
            if best < 0 or best == cur:
                continue
            # Hysteresis: SelectionMachine's gate, both margins at once.
            if base + wait.item(best) >= threshold(base_of(u) + wait.item(cur)):
                continue
            if self.n_ghost[best]:
                self.u_pending[u] = best
                self._pending_handoffs.append(u)
                if emit:
                    owner, to = self._ghost_shard[best], self._node_name(best)
                    emit(ShardHandoff(t, self._user_name(u), self.shard_id, owner, to))
                continue
            self.switches += 1
            if emit:
                was, to = self._node_name(cur), self._node_name(best)
                # JoinAccept then Switch, as SelectionMachine emits them.
                emit(JoinAccept(t, self._user_name(u), to))
                emit(Switch(t, self._user_name(u), was, to))
            self.n_load[cur] -= self.fps
            self._attach(u, best, base)

    # ------------------------------------------------------------------
    # Attachment & candidate machinery
    # ------------------------------------------------------------------
    def _initial_attach(self) -> None:
        """Vectorized t=0 attach: per selection cell, rank the local
        candidates once and deal the cell's users across the TopN
        round-robin (a WRR-flavoured spread).

        Only the deal is sequential: neighbouring cells share candidates
        through the 3x3 block, so the load one cell deals is the wait the
        next one ranks against. Centroids, distances, the score's base and
        ``u_base`` read no load: they are flat passes around the cell loop."""
        if self.u_gid.size == 0:
            return
        self._cohort = None
        cells, inverse = np.unique(self.u_cell, return_inverse=True)
        self._fill_cell_cands(cells)
        # The narrowest dtype: a stable sort of <= 16-bit keys is a radix sort.
        inverse = inverse.astype(np.min_scalar_type(cells.size))
        order = np.argsort(inverse, kind="stable")
        bounds = np.concatenate(([0], np.cumsum(np.bincount(inverse)))).tolist()
        spans = list(zip(bounds, bounds[1:]))
        self.control_ops += order.size
        # A cohort's centroid is np.mean of its users exactly: a segmented
        # sum (np.add.reduceat) adds in another order and moves the last bit.
        lat, lon = self.u_lat[order], self.u_lon[order]
        clat = np.array([np.mean(lat[a:b]) for a, b in spans])
        clon = np.array([np.mean(lon[a:b]) for a, b in spans])
        del inverse, lat, lon  # whole-user temporaries, before the flat passes
        usable = self.n_alive & ~self.n_ghost
        capacity = 1000.0 / self.n_service
        cands = [self._cell_cands[cell] for cell in cells.tolist()]
        starts = np.concatenate(([0], np.cumsum([c.size for c in cands])))
        for lo, hi in _pair_chunks(starts):
            nodes = np.concatenate(cands[lo:hi])
            keep = usable[nodes]
            nodes = nodes[keep]
            offsets = starts[lo : hi + 1] - starts[lo]
            ends = np.concatenate(([0], np.cumsum(keep)))[offsets]
            live = np.diff(ends)
            rlat, rlon = np.repeat(clat[lo:hi], live), np.repeat(clon[lo:hi], live)
            pre = self._rtt_ms(rlat, rlon, nodes) + self.n_service[nodes]
            for (ua, ub), a, b in zip(spans[lo:hi], ends.tolist(), ends[1:].tolist()):
                if a == b:
                    self.unattached_initial += ub - ua
                    continue
                # Rank candidates by predicted latency from the cohort's
                # centroid; deal users over the best TopN.
                cand = nodes[a:b]
                score = pre[a:b] + self._node_wait(cand)
                ranked_all = cand[np.argsort(score, kind="stable")]
                # Deal over enough of the ranking to carry the cohort's
                # offered load with ~25% headroom (each user individually
                # only ever sees a TopN, but a cohort of same-cell users
                # collectively spreads exactly like the manager's WRR would
                # spread them) — never fewer than TopN nodes.
                supply = np.cumsum(capacity[ranked_all])
                need = int(np.searchsorted(supply, (ub - ua) * self.fps * 1.25)) + 1
                width = max(self.config.top_n, min(need, ranked_all.size))
                ranked = ranked_all[: min(width, ranked_all.size)]
                chosen = ranked[np.arange(ub - ua) % ranked.size]
                self.u_node[order[ua:ub]] = chosen
                # Before the next cell ranks: it may share these nodes.
                np.add.at(self.n_load, chosen, self.fps)
        # ``_base_vec`` is elementwise: index order gives the same bits as
        # cell order, and gathers the user columns in memory order.
        attached = np.flatnonzero(self.u_node >= 0)
        for lo in range(0, attached.size, _SCORE_CHUNK_PAIRS):
            part = attached[lo : lo + _SCORE_CHUNK_PAIRS]
            self.u_base[part] = self._base_vec(part, self.u_node[part])
        if self.trace.enabled:
            users = order[self.u_node[order] >= 0]  # JoinAccepts go in cell order
            for u, n in zip(users.tolist(), self.u_node[users].tolist()):
                self.trace.emit(JoinAccept(0.0, self._user_name(u), self._node_name(n)))

    def _attach(self, u: int, n: int, base: float) -> None:
        """Attach ``u`` to ``n``; ``base`` is the latency it was scored with."""
        self._cohort = None
        self.u_node[u] = n
        self.u_base[u] = base
        self.n_load[n] += self.fps
        self.u_join_tick[u] = self._tick_index

    def _rtt_ms(
        self, lat: np.ndarray, lon: np.ndarray, nodes: np.ndarray
    ) -> np.ndarray:
        """Expected RTT from ``(lat, lon)`` to ``nodes``: the floor plus
        propagation, then both endpoints' HOME_WIFI inflation."""
        dist = _haversine_km(lat, lon, self.n_lat[nodes], self.n_lon[nodes])
        return _RTT.distance_rtt_ms(dist) + _TIER_MS

    def _base_vec(self, users: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        """Per-frame base latency: expected RTT + transfer + service."""
        return (
            self._rtt_ms(self.u_lat[users], self.u_lon[users], nodes)
            + FRAME_TRANSFER_MS
            + self.n_service[nodes]
        )

    def _fill_cell_cands(self, cells: np.ndarray) -> None:
        """Resolve the candidates of ``cells`` with one neighborhood call."""
        blocks = geohash.cell_neighborhood(cells, self.cell_precision)
        for cell, block in zip(cells.tolist(), blocks.tolist()):
            parts = [self._cell_nodes[c] for c in set(block) if c in self._cell_nodes]
            self._cell_cands[cell] = (
                np.sort(np.concatenate(parts))
                if parts
                else np.empty(0, dtype=np.int64)
            )

    def _scored(
        self, users: np.ndarray, include_ghosts: bool
    ) -> Iterator[Tuple[int, int, float, np.ndarray]]:
        """Yield ``(u, best, base, wait)`` for each of ``users`` in order:
        its lowest-predicted-latency live candidate (ties go to the lower
        local index; -1 if there is none), the base latency that candidate
        was scored with, and the whole-fleet wait the scores were read from.

        The load-independent base of every (user, candidate) pair comes
        from flat ``_base_vec`` passes; the load-dependent wait is added
        per user, in order, and refreshed when the caller moved the user
        it was handed — so each user sees the load its predecessors left.
        """
        if users.size == 0:
            return
        usable = self.n_alive if include_ghosts else self.n_alive & ~self.n_ghost
        wait = self._node_wait()
        cells = self.u_cell[users].tolist()
        unseen = set(cells).difference(self._cell_cands)  # arrivals' cells
        if unseen:
            self._fill_cell_cands(np.array(sorted(unseen), dtype=np.uint64))
        cands = [self._cell_cands[c] for c in cells]
        starts = np.concatenate(([0], np.cumsum([c.size for c in cands])))
        node_of = self.u_node.item
        for lo, hi in _pair_chunks(starts):
            nodes = np.concatenate(cands[lo:hi])
            owners = np.repeat(users[lo:hi], np.diff(starts[lo : hi + 1]))
            keep = usable[nodes]
            nodes = nodes[keep]
            base = self._base_vec(owners[keep], nodes)
            offsets = starts[lo : hi + 1] - starts[lo]
            ends = np.concatenate(([0], np.cumsum(keep)))[offsets].tolist()
            for i, u in enumerate(users[lo:hi].tolist()):
                a, b = ends[i], ends[i + 1]
                if a == b:
                    yield u, -1, 0.0, wait
                    continue
                j = a + int((base[a:b] + wait[nodes[a:b]]).argmin())
                cur, best = node_of(u), nodes.item(j)
                yield u, best, base.item(j), wait
                if node_of(u) != cur:
                    wait[best] = self._wait_at(best)
                    if cur >= 0:
                        wait[cur] = self._wait_at(cur)

    def _node_wait(self, nodes: Optional[np.ndarray] = None) -> np.ndarray:
        """Analytic M/D/1 mean queue wait at current load, of ``nodes``
        (every node when None)."""
        load, service = self.n_load, self.n_service
        if nodes is not None:
            load, service = load[nodes], service[nodes]
        rho = np.clip(load * service / 1000.0, 0.0, _RHO_CAP)
        return service * rho / (2.0 * (1.0 - rho))

    def _wait_at(self, n: int) -> float:
        """``_node_wait`` of one node in scalar arithmetic: the same IEEE
        operations in the same order, so the same bits."""
        service: float = self.n_service.item(n)
        rho: float = min(max(self.n_load.item(n) * service / 1000.0, 0.0), _RHO_CAP)
        return service * rho / (2.0 * (1.0 - rho))

    # ------------------------------------------------------------------
    # Frame advancement
    # ------------------------------------------------------------------
    def _frame_counts(self, t0: float, t1: float) -> Tuple[np.ndarray, np.ndarray]:
        """Per-user (first frame index, count) of frames due in (t0, t1]."""
        m_hi = np.floor((t1 - self.u_phase) / self.interval_ms).astype(np.int64)
        m_lo = np.floor((t0 - self.u_phase) / self.interval_ms).astype(np.int64) + 1
        counts = np.maximum(m_hi - m_lo + 1, 0)
        return m_lo, counts

    def _floor_index(self, t: float) -> np.ndarray:
        """Per user, the floored frame index at ``t``: ``_frame_counts``'
        formula, its operations in place on one temporary."""
        index = np.subtract(t, self.u_phase)
        np.divide(index, self.interval_ms, out=index)
        np.floor(index, out=index)
        return index.astype(np.int64)

    def _build_cohort(self, wait: np.ndarray) -> _Cohort:
        """Read every user's ``ok``/``lat`` at ``wait`` and the current
        liveness: unattached users read row 0, masked."""
        node = np.maximum(self.u_node, 0)
        ok = (self.u_node >= 0) & self.n_alive[node]
        lat = self.u_base + wait[node]
        return _Cohort(ok, lat, wait, self.n_alive.copy())

    def _advance_frames(self, k: int) -> None:
        """Advance tick ``k``'s frames as one cohort: whole-population
        array arithmetic in mask form — no index arrays, every user's row
        is touched. With capture on, the same ``good``/``lat`` arrays
        then emit one ``FrameDone`` per completed frame.

        A quiet tick pays only for the frames: ``ok``/``lat`` are kept
        while no user was moved and the fleet's wait and liveness read
        the same, and the frame index the last tick floored at its end is
        this tick's start."""
        t0 = k * TICK_MS
        wait = self._node_wait()
        size = self.u_gid.size
        below = self._floor_hi if self._floor_key == (k, size) else self._floor_index(t0)
        self._floor_hi, self._floor_key = self._floor_index(t0 + TICK_MS), (k + 1, size)
        # Frames due in (t0, t0 + TICK_MS], in the buffer ``below`` held.
        counts = np.subtract(self._floor_hi, below, out=below)
        np.maximum(counts, 0, out=counts)
        np.multiply(counts, self.u_active, out=counts)
        self.frames_advanced += int(counts.sum())
        if self.n_gid.size == 0:  # nothing to gather from: all due frames lost
            self.u_lost += counts
            return
        cohort = self._cohort
        if cohort is None or not cohort.read_from(wait, self.n_alive):
            cohort = self._cohort = self._build_cohort(wait)
        lat = cohort.lat
        # Unattached users and users on a dead node lose their due frames.
        self.u_lost += counts
        good = np.multiply(counts, cohort.ok, out=counts)
        self.u_lost -= good
        self.u_frames += good
        # ``lat`` is finite (rho is capped), so ``0 * lat`` adds exactly 0.0.
        self.u_lat_sum += good * lat
        # A user who completed nothing must not have ``lat`` reach its max.
        np.maximum(self.u_lat_max, lat, out=self.u_lat_max, where=good > 0)
        if not self.trace.enabled:
            return
        emit, interval = self.trace.emit, self.interval_ms
        users = np.flatnonzero(good)
        # A user with frames done did them all: its first is the top less the count.
        m_lo = self._floor_hi - good + 1
        columns = (m_lo, good, lat, self.u_phase, self.u_node)
        for u, lo, n, latency, phase, at in zip(
            users.tolist(), *(column[users].tolist() for column in columns)
        ):
            uname, nname = self._user_name(u), self._node_name(at)
            for m in range(lo, lo + n):
                due = phase + m * interval
                emit(FrameDone(due + latency, uname, nname, m, due, latency))

    # ------------------------------------------------------------------
    # Naming & reporting
    # ------------------------------------------------------------------
    def _node_name(self, local: int) -> str:
        return f"n{self.n_gid[local]}"

    def _user_name(self, local: int) -> str:
        return f"u{self.u_gid[local]}"

    def report(self) -> MetroShardReport:
        active = self.u_active
        return MetroShardReport(
            shard_id=self.shard_id,
            nodes=int((~self.n_ghost).sum()),
            users=int(active.sum()),
            frames_done=int(self.u_frames[active].sum()),
            frames_lost=int(self.u_lost[active].sum()),
            switches=self.switches,
            covered_failovers=self.covered_failovers,
            uncovered_failures=self.uncovered_failures,
            handoffs_out=self.handoffs_out,
            handoffs_in=self.handoffs_in,
            unattached_initial=self.unattached_initial,
            latency_sum_ms=float(self.u_lat_sum[active].sum()),
            latency_max_ms=float(self.u_lat_max[active].max())
            if active.any()
            else 0.0,
            frames_advanced=self.frames_advanced,
            control_ops=self.control_ops,
            trace_events=sorted(self.trace.events(), key=attrgetter("t_ms")),
        )
