"""Cross-seed reduction of sweep run records.

A sweep produces one flat metrics dict per (parameter cell, seed);
this module reduces each cell's replicates to summary statistics —
mean, median, p95, and a 95% confidence-interval half-width (Student's
t on the sample standard deviation) — and renders strategy-comparison
tables compatible with :func:`repro.metrics.report.format_table`.

Determinism matters here as much as in the executor: cells and metric
names are processed in sorted order and nothing is rounded during
reduction, so two executions that produced identical per-run metrics
produce byte-identical aggregate serializations — the property
``benchmarks/perf/bench_sweep.py`` asserts between the serial and the
parallel executor.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.metrics.stats import mean, percentile
from repro.sweep.spec import params_token
from repro.sweep.store import RunRecord

__all__ = [
    "MetricAggregate",
    "CellAggregate",
    "aggregate_records",
    "aggregates_digest",
    "comparison_table",
    "metric_names",
    "reduce_metric",
    "t_critical",
]

#: Two-sided 95% Student's t critical values by degrees of freedom; the
#: asymptote (z = 1.96) serves df > 30. Values from standard tables.
_T_TABLE = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
    6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
    11: 2.201, 12: 2.179, 13: 2.160, 14: 2.145, 15: 2.131,
    16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093, 20: 2.086,
    21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064, 25: 2.060,
    26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
}


def t_critical(df: int) -> float:
    """Two-sided 95% t critical value for ``df`` degrees of freedom."""
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1: {df}")
    return _T_TABLE.get(df, 1.96)


def _sample_std(values: Sequence[float], m: float) -> float:
    """Sample standard deviation (ddof=1); 0.0 for a single sample."""
    n = len(values)
    if n < 2:
        return 0.0
    return math.sqrt(sum((v - m) ** 2 for v in values) / (n - 1))


@dataclass(frozen=True)
class MetricAggregate:
    """One metric reduced across a cell's seeds."""

    n: int
    mean: float
    p50: float
    p95: float
    std: float
    ci_half_width: float

    def to_dict(self) -> Dict[str, float]:
        return {
            "n": self.n,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "std": self.std,
            "ci_half_width": self.ci_half_width,
        }


def reduce_metric(values: Sequence[float]) -> MetricAggregate:
    """Reduce one metric's replicate values to a :class:`MetricAggregate`.

    The CI half-width is ``t_{0.975, n-1} * s / sqrt(n)`` (0.0 for a
    single replicate — no variance information, not infinite confidence,
    so single-seed sweeps still render).
    """
    if not values:
        raise ValueError("cannot reduce an empty metric sample")
    m = mean(values)
    s = _sample_std(values, m)
    n = len(values)
    half = t_critical(n - 1) * s / math.sqrt(n) if n > 1 else 0.0
    return MetricAggregate(
        n=n,
        mean=m,
        p50=percentile(values, 50.0),
        p95=percentile(values, 95.0),
        std=s,
        ci_half_width=half,
    )


@dataclass
class CellAggregate:
    """All metrics of one (experiment, parameter cell), across seeds."""

    experiment: str
    params: Dict[str, Any]
    n_seeds: int
    metrics: Dict[str, MetricAggregate] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "experiment": self.experiment,
            "params": self.params,
            "n_seeds": self.n_seeds,
            "metrics": {
                name: agg.to_dict() for name, agg in sorted(self.metrics.items())
            },
        }


def aggregate_records(records: Iterable[RunRecord]) -> Dict[str, CellAggregate]:
    """Group successful records by parameter cell and reduce each metric.

    Returns an insertion-ordered dict keyed by ``experiment|params``, cells in
    sorted-key order; failed/timeout records are excluded (their metrics
    are empty by construction).
    """
    samples: Dict[str, Tuple[str, Dict[str, Any], Dict[str, List[float]]]] = {}
    counts: Dict[str, int] = {}
    for record in records:
        if not record.ok:
            continue
        key = f"{record.experiment}|{params_token(record.params)}"
        if key not in samples:
            samples[key] = (record.experiment, dict(record.params), {})
        counts[key] = counts.get(key, 0) + 1
        _, _, by_metric = samples[key]
        for name, value in record.metrics.items():
            by_metric.setdefault(name, []).append(float(value))

    out: Dict[str, CellAggregate] = {}
    for key in sorted(samples):
        experiment, params, by_metric = samples[key]
        cell = CellAggregate(
            experiment=experiment, params=params, n_seeds=counts[key]
        )
        for name in sorted(by_metric):
            cell.metrics[name] = reduce_metric(by_metric[name])
        out[key] = cell
    return out


def aggregates_digest(aggregates: Dict[str, CellAggregate]) -> str:
    """Canonical JSON of a full aggregate set — the bit-identity token.

    Two executions whose per-run metrics match exactly produce equal
    digests; any numeric drift (ordering, rounding, seed assignment)
    shows up as inequality.
    """
    return json.dumps(
        {key: cell.to_dict() for key, cell in sorted(aggregates.items())},
        sort_keys=True,
        separators=(",", ":"),
    )


def comparison_table(
    aggregates: Dict[str, CellAggregate], metric: str
) -> Tuple[List[str], List[List[Any]]]:
    """A (headers, rows) pair for one metric across all cells.

    Rows are sorted by cell key; cells missing the metric are skipped.
    Feed the result to :func:`repro.metrics.report.format_table`.
    """
    headers = ["cell", "seeds", "mean", "p50", "p95", "ci95 ±"]
    rows: List[List[Any]] = []
    for key in sorted(aggregates):
        cell = aggregates[key]
        agg = cell.metrics.get(metric)
        if agg is None:
            continue
        label = ", ".join(f"{k}={v}" for k, v in sorted(cell.params.items()))
        rows.append(
            [
                label or "(default)",
                cell.n_seeds,
                f"{agg.mean:.2f}",
                f"{agg.p50:.2f}",
                f"{agg.p95:.2f}",
                f"{agg.ci_half_width:.2f}",
            ]
        )
    return headers, rows


def metric_names(aggregates: Dict[str, CellAggregate]) -> List[str]:
    """Every metric name present in any cell, sorted."""
    names = set()
    for cell in aggregates.values():
        names.update(cell.metrics)
    return sorted(names)
