"""Table II — hardware and per-frame processing performance.

The catalog itself encodes Table II; this benchmark *measures* each
profile's single-frame processing time on an idle simulated node and
checks it reproduces the table exactly.
"""

from conftest import run_once, show

from repro.experiments.realworld import TABLE2_PROFILES, hardware_table
from repro.nodes.processing import FrameProcessor

PAPER_TABLE2 = {
    "V1": 24.0,
    "V2": 32.0,
    "V3": 31.0,
    "V4": 45.0,
    "V5": 49.0,
    "D6": 30.0,
    "D7": 30.0,
    "D8": 30.0,
    "D9": 30.0,
    "Cloud": 30.0,
}


def measure_all():
    measured = {}
    for profile in TABLE2_PROFILES:
        processor = FrameProcessor(profile)
        frame = processor.submit(0.0)
        measured[profile.name] = (profile, frame.sojourn_ms)
    return measured


def test_table2_hardware(benchmark):
    measured = run_once(benchmark, measure_all)

    show(hardware_table())

    for name, (_, sojourn) in measured.items():
        assert sojourn == PAPER_TABLE2[name], f"{name} deviates from Table II"
