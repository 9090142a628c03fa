"""Unit tests for the AR application model, frame source and adaptive
rate controller."""

import random

import pytest

from repro.workload.adaptive import AdaptiveRateController
from repro.workload.ar import ARApplication, DEFAULT_AR_APP
from repro.workload.frames import FrameSource


# ----------------------------------------------------------------------
# ARApplication
# ----------------------------------------------------------------------
def test_default_app_matches_paper():
    assert DEFAULT_AR_APP.frame_bytes == pytest.approx(0.02e6)
    assert DEFAULT_AR_APP.max_fps == 20.0


def test_app_validation():
    with pytest.raises(ValueError):
        ARApplication(frame_bytes=0.0)
    with pytest.raises(ValueError):
        ARApplication(min_fps=25.0, max_fps=20.0)
    with pytest.raises(ValueError):
        ARApplication(target_latency_ms=0.0)
    with pytest.raises(ValueError):
        ARApplication(response_bytes=-1.0)


# ----------------------------------------------------------------------
# FrameSource
# ----------------------------------------------------------------------
def test_frames_have_unique_increasing_ids():
    source = FrameSource("u1", DEFAULT_AR_APP)
    a = source.next_frame(0.0)
    b = source.next_frame(50.0)
    assert b.frame_id > a.frame_id
    assert a.user_id == "u1"
    assert b.created_ms == 50.0


def test_frame_size_is_standard_without_jitter():
    source = FrameSource("u1", DEFAULT_AR_APP)
    assert source.next_frame(0.0).size_bytes == DEFAULT_AR_APP.frame_bytes


def test_frame_size_jitter_bounded():
    source = FrameSource("u1", DEFAULT_AR_APP, random.Random(1), size_jitter=0.2)
    for _ in range(100):
        size = source.next_frame(0.0).size_bytes
        assert 0.8 * DEFAULT_AR_APP.frame_bytes <= size <= 1.2 * DEFAULT_AR_APP.frame_bytes


def test_size_jitter_validation():
    with pytest.raises(ValueError):
        FrameSource("u1", DEFAULT_AR_APP, size_jitter=1.0)


def test_frames_created_counter():
    source = FrameSource("u1", DEFAULT_AR_APP)
    for _ in range(3):
        source.next_frame(0.0)
    assert source.frames_created == 3


# ----------------------------------------------------------------------
# AdaptiveRateController
# ----------------------------------------------------------------------
def test_controller_starts_at_max():
    controller = AdaptiveRateController(DEFAULT_AR_APP)
    assert controller.fps == DEFAULT_AR_APP.max_fps


def test_high_latency_decreases_rate():
    controller = AdaptiveRateController(DEFAULT_AR_APP)
    for _ in range(10):
        controller.observe(400.0)
    assert controller.fps < DEFAULT_AR_APP.max_fps


def test_rate_never_below_min():
    controller = AdaptiveRateController(DEFAULT_AR_APP)
    for _ in range(200):
        controller.observe(2_000.0)
    assert controller.fps == DEFAULT_AR_APP.min_fps


def test_low_latency_recovers_toward_max():
    controller = AdaptiveRateController(DEFAULT_AR_APP)
    for _ in range(50):
        controller.observe(1_000.0)
    depressed = controller.fps
    for _ in range(200):
        controller.observe(40.0)
    assert controller.fps > depressed
    assert controller.fps == DEFAULT_AR_APP.max_fps


def test_hysteresis_band_holds_rate():
    controller = AdaptiveRateController(DEFAULT_AR_APP)
    # drive down first
    for _ in range(20):
        controller.observe(400.0)
    held = controller.fps
    # observations inside (headroom*target, target) change nothing
    inside = DEFAULT_AR_APP.target_latency_ms * 0.95
    controller.smoothed_latency_ms = inside
    controller.observe(inside)
    assert controller.fps == held


def test_ewma_smooths_single_spike():
    controller = AdaptiveRateController(DEFAULT_AR_APP, ewma_alpha=0.1)
    for _ in range(20):
        controller.observe(50.0)
    controller.observe(300.0)  # one 2x-target spike
    # smoothed latency (0.1*300 + 0.9*~50 = 75) stays under target
    assert controller.fps == DEFAULT_AR_APP.max_fps


def test_observe_rejects_negative():
    controller = AdaptiveRateController(DEFAULT_AR_APP)
    with pytest.raises(ValueError):
        controller.observe(-1.0)


def test_interval_property():
    controller = AdaptiveRateController(DEFAULT_AR_APP)
    assert controller.interval_ms == pytest.approx(50.0)


def test_controller_validation():
    with pytest.raises(ValueError):
        AdaptiveRateController(DEFAULT_AR_APP, decrease_factor=1.0)
    with pytest.raises(ValueError):
        AdaptiveRateController(DEFAULT_AR_APP, increase_fps=0.0)
    with pytest.raises(ValueError):
        AdaptiveRateController(DEFAULT_AR_APP, ewma_alpha=0.0)
    with pytest.raises(ValueError):
        AdaptiveRateController(DEFAULT_AR_APP, headroom=1.5)


def test_adjustments_counter():
    controller = AdaptiveRateController(DEFAULT_AR_APP)
    for _ in range(5):
        controller.observe(2_000.0)
    assert controller.adjustments > 0
