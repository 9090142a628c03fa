"""Ablation — how much the contention model matters to the headline.

DESIGN.md calls out the frame-queue contention model as a key design
decision. This ablation reruns the 15-user real-world comparison with
node parallelism scaled up (lighter contention) and down (heavier) by
rebuilding the volunteer catalog, and checks the paper's qualitative
ordering (ours <= resource-aware < dedicated-only) holds across the
regime — i.e. the headline is not an artifact of one calibration point.
"""

from dataclasses import replace

from repro.core.config import SystemConfig
from repro.experiments.realworld import run_elasticity_sweep
from repro.metrics.report import format_table
from repro.nodes import hardware


def run_with_parallelism_factor(seed, factor):
    """Temporarily scale every volunteer profile's parallelism."""
    original = list(hardware.VOLUNTEER_PROFILES)
    scaled = [
        replace(p, parallelism=max(1, int(p.parallelism * factor)))
        for p in original
    ]
    hardware.VOLUNTEER_PROFILES[:] = scaled
    try:
        result = run_elasticity_sweep(
            SystemConfig(seed=seed),
            user_counts=[15],
            strategies=("client_centric", "resource_aware", "dedicated_only"),
        )
        return {s: result.series(s)[0] for s in result.averages_ms}
    finally:
        hardware.VOLUNTEER_PROFILES[:] = original


def run_sweep(seed):
    return {
        "0.5x capacity": run_with_parallelism_factor(seed, 0.5),
        "1x capacity (paper calib.)": run_with_parallelism_factor(seed, 1.0),
        "2x capacity": run_with_parallelism_factor(seed, 2.0),
    }


def test_ablation_contention():
    results = run_sweep(seed=42)

    rows = [
        [regime, values["client_centric"], values["resource_aware"],
         values["dedicated_only"]]
        for regime, values in results.items()
    ]
    print()
    print(
        format_table(
            ["volunteer capacity", "client-centric", "resource-aware",
             "dedicated-only"],
            rows,
            title="Ablation — 15-user latency (ms) across contention regimes",
        )
    )

    for regime, values in results.items():
        ours = values["client_centric"]
        # The qualitative ordering survives recalibration.
        assert ours <= values["resource_aware"] * 1.10, regime
        assert ours < values["dedicated_only"], regime
    # More volunteer capacity helps the volunteer-using strategies.
    assert (
        results["2x capacity"]["client_centric"]
        < results["0.5x capacity"]["client_centric"]
    )
