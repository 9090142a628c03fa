"""MetroSpec/ShardSpec validation and deterministic population synthesis."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import SystemConfig
from repro.geo import geohash
from repro.metro.spec import (
    MetroSpec,
    ShardSpec,
    build_population,
    quantize_ticks,
)


# ----------------------------------------------------------------------
# Spec validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kwargs",
    [
        {"nodes": 0, "users": 10},
        {"nodes": 10, "users": 0},
        {"nodes": 10, "users": 10, "region_km": 0.0},
        {"nodes": 10, "users": 10, "fps": 0.0},
        {"nodes": 10, "users": 10, "fps": float("nan")},
        {"nodes": 10, "users": 10, "fps": float("inf")},
        {"nodes": 10, "users": 10, "region_km": float("nan")},
        {"nodes": 10, "users": 10, "region_km": float("inf")},
    ],
)
def test_invalid_metro_specs_rejected(kwargs):
    with pytest.raises(ValueError):
        MetroSpec(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"count": 0},
        {"workers": 0},
    ],
)
def test_invalid_shard_specs_rejected(kwargs):
    with pytest.raises(ValueError):
        ShardSpec(**kwargs)


def test_effective_precisions_default_by_region():
    metro = MetroSpec(nodes=10, users=10, region_km=40.0)
    assert metro.cell_precision == 5
    assert metro.shard_precision == 4
    campus = MetroSpec(nodes=10, users=10, region_km=2.0)
    assert campus.cell_precision == 6
    assert campus.shard_precision == 5


def test_shard_spec_is_the_only_partition_setting():
    shard = ShardSpec(count=4, workers=2)
    assert (shard.count, shard.workers) == (4, 2)
    assert not hasattr(ShardSpec, "from_config")
    knobs = {"metro_shards", "shard_workers"}
    assert knobs.isdisjoint(SystemConfig.__dataclass_fields__)


def test_replacing_the_shard_returns_a_new_spec():
    spec = MetroSpec(nodes=10, users=10)
    sharded = replace(spec, shard=ShardSpec(count=3))
    assert sharded.shard.count == 3
    assert spec.shard.count == 1
    assert sharded.nodes == spec.nodes


def test_interval_ms():
    assert MetroSpec(nodes=1, users=1, fps=10.0).interval_ms == 100.0
    assert MetroSpec(nodes=1, users=1, fps=4.0).interval_ms == 250.0


# ----------------------------------------------------------------------
# Population synthesis
# ----------------------------------------------------------------------
def test_population_is_deterministic_for_seed():
    spec = MetroSpec(nodes=200, users=500)
    a = build_population(spec, seed=7)
    b = build_population(spec, seed=7)
    assert np.array_equal(a.node_lat, b.node_lat)
    assert np.array_equal(a.user_lon, b.user_lon)
    assert np.array_equal(a.node_cell, b.node_cell)
    assert np.array_equal(a.user_phase_ms, b.user_phase_ms)


def test_population_varies_with_seed():
    spec = MetroSpec(nodes=200, users=500)
    a = build_population(spec, seed=7)
    b = build_population(spec, seed=8)
    assert not np.array_equal(a.node_lat, b.node_lat)


def test_population_cells_match_vectorized_encode():
    spec = MetroSpec(nodes=100, users=100)
    pop = build_population(spec, seed=3)
    assert np.array_equal(
        pop.node_cell,
        geohash.encode_cells(pop.node_lat, pop.node_lon,
                             pop.cell_precision),
    )


def test_population_stays_inside_region():
    spec = MetroSpec(nodes=500, users=500, region_km=10.0)
    pop = build_population(spec, seed=1)
    # 10 km radius is < 0.1 degrees of latitude around MSP.
    assert float(np.ptp(pop.node_lat)) < 0.2
    assert float(np.ptp(pop.user_lat)) < 0.2


def test_user_phases_cover_the_frame_interval():
    spec = MetroSpec(nodes=10, users=2_000, fps=10.0)
    pop = build_population(spec, seed=2)
    assert float(pop.user_phase_ms.min()) >= 0.0
    assert float(pop.user_phase_ms.max()) < spec.interval_ms


# ----------------------------------------------------------------------
# Tick arithmetic
# ----------------------------------------------------------------------
def test_quantize_ticks_rounds_up_to_whole_ticks():
    assert quantize_ticks(1_000.0) == 4
    assert quantize_ticks(1_001.0) == 5
    assert quantize_ticks(1.0) == 1
    # Float noise just above a boundary must not add a spurious tick.
    assert quantize_ticks(250.0 * 3 + 1e-12) == 3
