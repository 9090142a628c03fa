"""Fig. 1 — RTT from metro users to volunteers / Local Zone / cloud.

Paper: volunteer edge nodes in the same metro deliver lower RTT than the
AWS Local Zone, and both sit far below the closest cloud region.
"""

from conftest import run_once, show

from repro.experiments.network_study import run_network_study


def test_fig1_network_study(benchmark, bench_config):
    result = run_once(
        benchmark, run_network_study, bench_config, n_users=15, probes_per_pair=20
    )
    summaries = result.summaries()
    show(result.table())

    volunteer = summaries["volunteer"]
    local_zone = summaries["local_zone"]
    cloud = summaries["cloud"]
    # Shape: volunteers (class mean) at or below the Local Zone, with the
    # best volunteers far below it; cloud multiples above both.
    assert volunteer.mean_ms <= local_zone.mean_ms * 1.1
    assert volunteer.min_ms < local_zone.min_ms
    assert cloud.mean_ms > 2.0 * local_zone.mean_ms
    assert cloud.mean_ms > 2.0 * volunteer.mean_ms
