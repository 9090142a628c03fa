"""Typed scenario specs for metro-scale simulation.

:class:`MetroSpec` describes a synthetic metro deployment — how many
volunteer nodes and AR users, spread over how wide a disc around the
paper's MSP metro — without naming any individual entity;
:class:`ShardSpec` describes how to partition it into independent
geohash-keyed shard kernels. Both are frozen value objects:
the same spec + seed always generates the same population, which is the
foundation of every determinism guarantee the metro kernel makes.

Population generation is fully vectorized (`numpy`): positions are
uniform over the disc (sqrt-radius sampling, the same distribution as
:func:`repro.geo.region.random_point` draws one-at-a-time), hardware
cycles through the paper's Table II volunteer catalog, and per-user
frame phases are drawn from one seeded generator. A million-endpoint
population builds in well under a second. The tick, the boundary epoch
and the frame transfer are module constants; both geohash precisions
follow from ``region_km``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, cos, isfinite, radians

import numpy as np

from repro.geo import geohash
from repro.geo.point import KM_PER_DEG_LAT
from repro.geo.region import MSP_CENTER
from repro.nodes.hardware import VOLUNTEER_PROFILES
from repro.sim.random import derive_seed

__all__ = ["MetroSpec", "ShardSpec", "MetroPopulation", "build_population"]

#: The kernel's tick: all control-plane activity happens on its boundaries.
TICK_MS = 250.0
#: Period of the cross-shard boundary channel (ghost refresh, handoffs).
EPOCH_MS = 4 * TICK_MS
#: Uplink+downlink transfer per frame (0.02 MB at ~40 Mbps round trip).
FRAME_TRANSFER_MS = 8.0
#: Every value an int32 kernel column holds — user gids, frame indices
#: and counts — stays below this; ``MetroSpec`` and ``step_to`` check.
INT32_LIMIT = 2**31


@dataclass(frozen=True)
class ShardSpec:
    """How to partition a metro into independent shard kernels.

    A shard owns a deterministic set of geohash prefix cells (sorted
    cells, round-robin over ``count``).

    Attributes:
        count: number of shard kernels. 1 disables sharding (and is
            bit-identical to the unsharded kernel — tested).
        workers: worker processes stepping shards (forked). 1 steps the
            shards serially in-process; results are identical either
            way because shards only communicate at epoch boundaries.
    """

    count: int = 1
    workers: int = 1

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"shard count must be >= 1: {self.count}")
        if self.workers < 1:
            raise ValueError(f"shard workers must be >= 1: {self.workers}")


@dataclass(frozen=True)
class MetroSpec:
    """A synthetic metro-scale deployment on a disc around the paper's
    MSP metro.

    Attributes:
        nodes: volunteer edge-node count.
        users: AR user count.
        region_km: radius of the deployment disc.
        fps: fixed offloading rate of every user (the metro kernel runs
            the steady full-rate workload; per-user adaptation is the
            high-fidelity kernel's job).
        shard: the partition shape (:class:`ShardSpec`).
    """

    nodes: int
    users: int
    region_km: float = 40.0
    fps: float = 10.0
    shard: ShardSpec = field(default_factory=ShardSpec)

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError(f"nodes must be >= 1: {self.nodes}")
        if not 1 <= self.users < INT32_LIMIT:
            raise ValueError(f"users must be in [1, 2**31): {self.users}")
        if not (0 < self.region_km and isfinite(self.region_km)):
            raise ValueError(f"region_km must be positive and finite: {self.region_km}")
        if not (0 < self.fps and isfinite(self.fps)):
            raise ValueError(f"fps must be positive and finite: {self.fps}")

    @property
    def cell_precision(self) -> int:
        """Geohash length of the candidate-lookup cells: 5 (~4.9 km
        cells) for metro-sized regions, 6 (~1.2 km) for very small ones."""
        return 5 if self.region_km > 3.0 else 6

    @property
    def shard_precision(self) -> int:
        """Geohash length of the shard prefix cells: one character
        coarser than the selection cells, so every selection cell has
        exactly one owning shard."""
        return self.cell_precision - 1

    @property
    def interval_ms(self) -> float:
        """Per-user frame interval."""
        return 1000.0 / self.fps


@dataclass
class MetroPopulation:
    """The generated entity arrays of one :class:`MetroSpec` + seed.

    Index ``i`` of the node arrays is node ``n{i}`` everywhere (traces,
    handoffs, failure schedules); likewise user arrays and ``u{i}``.
    """

    node_lat: np.ndarray
    node_lon: np.ndarray
    #: Effective single-server service time (base_frame_ms / parallelism).
    node_service_ms: np.ndarray
    user_lat: np.ndarray
    user_lon: np.ndarray
    #: First-frame offset within the frame interval, in [0, interval).
    user_phase_ms: np.ndarray
    #: Selection cells (uint64 geohash cell ids at cell_precision).
    node_cell: np.ndarray
    user_cell: np.ndarray
    cell_precision: int

    @property
    def nodes(self) -> int:
        return int(self.node_lat.size)

    @property
    def users(self) -> int:
        return int(self.user_lat.size)


def _disc_points(
    rng: np.random.Generator, count: int, radius_km: float
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform points over the disc around ``MSP_CENTER``, as (lat, lon)
    degree arrays.

    Same local-tangent-plane math as ``GeoPoint.offset_km``: sqrt-radius
    times a uniform bearing, converted with the cos-latitude longitude
    scale at the disc center.
    """
    r = radius_km * np.sqrt(rng.random(count))
    theta = rng.random(count) * (2.0 * np.pi)
    north = r * np.cos(theta)
    east = r * np.sin(theta)
    lat = MSP_CENTER.lat + north / KM_PER_DEG_LAT
    lon = MSP_CENTER.lon + east / (KM_PER_DEG_LAT * cos(radians(MSP_CENTER.lat)))
    return lat, lon


def build_population(spec: MetroSpec, seed: int) -> MetroPopulation:
    """Generate the deterministic entity arrays for ``spec``.

    Node and user draws come from independently derived streams, so the
    node layout for a given (spec, seed) is identical regardless of the
    user count and vice versa.
    """
    node_rng = np.random.default_rng(derive_seed(seed, "metro.nodes"))
    user_rng = np.random.default_rng(derive_seed(seed, "metro.users"))

    node_lat, node_lon = _disc_points(node_rng, spec.nodes, spec.region_km)
    base = np.array([p.base_frame_ms for p in VOLUNTEER_PROFILES])
    par = np.array([float(p.parallelism) for p in VOLUNTEER_PROFILES])
    profile_idx = np.arange(spec.nodes) % len(VOLUNTEER_PROFILES)
    node_service = base[profile_idx] / par[profile_idx]

    user_lat, user_lon = _disc_points(user_rng, spec.users, spec.region_km)
    user_phase = user_rng.random(spec.users) * spec.interval_ms

    precision = spec.cell_precision
    return MetroPopulation(
        node_lat=node_lat,
        node_lon=node_lon,
        node_service_ms=node_service,
        user_lat=user_lat,
        user_lon=user_lon,
        user_phase_ms=user_phase,
        node_cell=geohash.encode_cells(node_lat, node_lon, precision),
        user_cell=geohash.encode_cells(user_lat, user_lon, precision),
        cell_precision=precision,
    )


def quantize_ticks(duration_ms: float) -> int:
    """``duration_ms`` rounded *up* to whole ticks (minimum 1).

    The metro kernel quantizes its control-plane delays (failure
    detection, probing period) to tick boundaries — that
    quantization is what makes cohort advancement and per-frame stepping
    emit identical traces.
    """
    return max(1, ceil(duration_ms / TICK_MS - 1e-9))
