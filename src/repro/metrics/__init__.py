"""Measurement: latency traces, summary statistics and report rendering.

Everything the paper's evaluation plots flows through
:class:`~repro.metrics.collector.MetricsCollector`: per-frame end-to-end
latencies (tagged by user and serving edge), probe/test-workload/switch/
failure counters, and node-population changes. The stats and timeseries
helpers then reduce those streams into exactly the quantities the figures
report — averages over windows, CDFs, per-user fairness (std-dev), and
binned time traces.
"""

from repro.metrics.collector import FrameRecord, MetricsCollector
from repro.metrics.stats import (
    Summary,
    cdf_points,
    mean,
    percentile,
    stddev,
    summarize,
)
from repro.metrics.timeseries import TimeSeries, bin_series
from repro.metrics.report import Table, cdf_quantiles, format_table, render

__all__ = [
    "MetricsCollector",
    "FrameRecord",
    "Summary",
    "mean",
    "stddev",
    "percentile",
    "cdf_points",
    "summarize",
    "TimeSeries",
    "bin_series",
    "Table",
    "format_table",
    "render",
    "cdf_quantiles",
]
