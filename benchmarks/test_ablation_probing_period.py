"""Ablation — the T_probing robustness/overhead trade-off (§IV-E).

"The smaller T_probing, the more frequent the backup edge list gets
updated, during which failed edge nodes get replaced with alive ones.
Therefore, smaller T_probing brings higher robustness. As a tradeoff,
higher TopN and smaller T_probing also bring higher overhead."
"""

from conftest import run_once

from repro.core.config import SystemConfig
from repro.experiments.churn_experiment import make_churn_trace, run_churn_once
from repro.metrics.report import format_table
from repro.sweep.aggregate import reduce_metric

PERIODS_MS = (1_000.0, 2_000.0, 4_000.0, 8_000.0)
#: One seed's uncovered-failure counts are single digits (6/4/5/5 at
#: seed 42): the direction is a statement about means, so it is asserted
#: over a population of seeds, as the "Fig. 9 across seeds" table is.
SEEDS = 5


def run_sweep(seed):
    base = SystemConfig(seed=seed, top_n=2)
    trace = make_churn_trace(base)
    rows = {}
    for period in PERIODS_MS:
        config = base.with_(probing_period_ms=period)
        result = run_churn_once(config, trace=trace)
        rows[period] = {
            "probes": result.metrics.total_probes(),
            "failures": result.metrics.total_failures(),
            "avg": result.average_latency_ms(60_000.0, 120_000.0),
        }
    return rows


def run_seeds(base_seed):
    return [run_sweep(base_seed + i) for i in range(SEEDS)]


def test_ablation_probing_period(benchmark, bench_config):
    runs = run_once(benchmark, run_seeds, bench_config.seed)
    stats = {
        period: {
            metric: reduce_metric([rows[period][metric] for rows in runs])
            for metric in ("probes", "failures", "avg")
        }
        for period in PERIODS_MS
    }
    fast, slow = PERIODS_MS[0], PERIODS_MS[-1]
    # Every seed replays one churn trace at all four periods: paired samples.
    saving = reduce_metric([rows[fast]["probes"] / rows[slow]["probes"] for rows in runs])
    gap = reduce_metric([rows[slow]["failures"] - rows[fast]["failures"] for rows in runs])

    def cell(agg):
        return f"{agg.mean:.1f} ± {agg.ci_half_width:.1f}"

    print()
    print(
        format_table(
            ["T_probing (ms)", "probes (overhead)", "uncovered failures", "avg ms"],
            [
                [int(period), *(cell(stats[period][m]) for m in ("probes", "failures", "avg"))]
                for period in PERIODS_MS
            ],
            title=f"Ablation — probing period: overhead vs robustness "
                  f"(TopN=2, mean ± ci95 over {SEEDS} seeds)",
        )
    )
    print(f"probes {int(fast)} ms / {int(slow)} ms: {cell(saving)}x; "
          f"uncovered failures {int(slow)} ms - {int(fast)} ms: {cell(gap)}")

    probes = [stats[p]["probes"].mean for p in PERIODS_MS]
    # Overhead shrinks monotonically as the period grows, on every seed and
    # by a factor whose whole confidence interval clears 2.5x...
    for rows in runs:
        per_seed = [rows[p]["probes"] for p in PERIODS_MS]
        assert per_seed == sorted(per_seed, reverse=True)
    assert probes == sorted(probes, reverse=True)
    assert saving.mean - saving.ci_half_width > 2.5
    # ...while stale backup lists at the slowest cadence cost robustness:
    # the same inequality the single-seed form asserted, on means.
    assert gap.n >= 5
    assert stats[slow]["failures"].mean >= stats[fast]["failures"].mean
