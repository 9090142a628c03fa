"""Ablation — LO (selfish) vs GO (global-average) local selection.

§IV-D argues GO optimizes the global average by charging each join the
degradation it inflicts on the candidate's existing users. This ablation
runs the crowded real-world scenario under both policies. LO and GO are
"positively correlated" in common scenarios (the paper's own caveat), so
we assert GO is never meaningfully worse and report the margin.
"""

from repro.core.config import SystemConfig
from repro.experiments.realworld import run_elasticity_sweep
from repro.metrics.report import format_table


def sweep(config):
    return run_elasticity_sweep(
        config, user_counts=[10, 15], strategies=("client_centric",)
    ).series("client_centric")


def run_both(seed):
    go = sweep(SystemConfig(seed=seed, policy_spec="go"))
    lo = sweep(SystemConfig(seed=seed, policy_spec="lo"))
    return go, lo


def test_ablation_lo_vs_go():
    go, lo = run_both(seed=42)

    print()
    print(
        format_table(
            ["policy", "10 users", "15 users"],
            [["GO (paper)", *go], ["LO (selfish)", *lo]],
            title="Ablation — average e2e latency (ms): GO vs LO ranking",
        )
    )
    for i, n in enumerate((10, 15)):
        print(f"  GO vs LO at {n} users: {(1 - go[i] / lo[i]) * 100:+.1f}%")

    # GO must not be meaningfully worse than LO anywhere.
    for go_value, lo_value in zip(go, lo):
        assert go_value <= lo_value * 1.10
