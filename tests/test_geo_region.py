"""Unit tests for metro-area placement."""

import random

import pytest

from repro.geo.region import MSP_CENTER, MetroArea, PlacementStyle


def sample(metro, count, style=PlacementStyle.UNIFORM_DISC):
    return [metro.sample(style) for _ in range(count)]


@pytest.fixture
def metro():
    return MetroArea(center=MSP_CENTER, radius_km=16.0, rng=random.Random(5))


@pytest.mark.parametrize("style", list(PlacementStyle))
def test_samples_stay_inside_disc(metro, style):
    for _ in range(200):
        point = metro.sample(style)
        assert metro.contains(point)


def test_seeded_layouts_reproduce():
    a = sample(MetroArea(rng=random.Random(9)), 10)
    b = sample(MetroArea(rng=random.Random(9)), 10)
    assert a == b


def test_different_seeds_differ():
    a = sample(MetroArea(rng=random.Random(1)), 10)
    b = sample(MetroArea(rng=random.Random(2)), 10)
    assert a != b


def test_uniform_disc_spreads_beyond_half_radius(metro):
    # With area-uniform sampling, ~75% of points lie beyond r/2.
    points = sample(metro, 400, PlacementStyle.UNIFORM_DISC)
    outer = sum(
        1 for p in points if metro.center.distance_km(p) > metro.radius_km / 2
    )
    assert outer / len(points) > 0.6


def test_gaussian_concentrates_toward_center(metro):
    points = sample(metro, 400, PlacementStyle.GAUSSIAN)
    inner = sum(
        1 for p in points if metro.center.distance_km(p) < metro.radius_km / 2
    )
    assert inner / len(points) > 0.5


def test_validation():
    with pytest.raises(ValueError):
        MetroArea(radius_km=0.0)


def test_contains_boundary():
    metro = MetroArea(radius_km=10.0, rng=random.Random(0))
    inside = metro.center.offset_km(9.99, 0.0)
    outside = metro.center.offset_km(10.5, 0.0)
    assert metro.contains(inside)
    assert not metro.contains(outside)
