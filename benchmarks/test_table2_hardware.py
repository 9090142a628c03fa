"""Table II — hardware and per-frame processing performance.

The catalog itself encodes Table II; this benchmark checks the published
table carries the paper's per-frame times on every seed, and *measures*
each profile's single-frame processing time on an idle simulated node
to check the processing model reproduces them exactly.
"""

from conftest import published

from repro.experiments.realworld import TABLE2_PROFILES
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


def test_table2_hardware():
    for metrics in published("table2").per_seed():
        assert {
            name: metrics[f"{name} | frame ms"] for name in PAPER_TABLE2
        } == PAPER_TABLE2

    for profile in TABLE2_PROFILES:
        sojourn = FrameProcessor(profile).submit(0.0).sojourn_ms
        assert sojourn == PAPER_TABLE2[profile.name], f"{profile.name} deviates from Table II"
