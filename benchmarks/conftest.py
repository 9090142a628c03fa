"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's
evaluation, prints the corresponding rows/series, and asserts the
*shape* of the result (who wins, by roughly what factor, where the
crossover falls) — absolute numbers depend on the simulated substrate
and are recorded in EXPERIMENTS.md.

Run with::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import pytest

from repro.core.config import SystemConfig
from repro.metrics.report import Table, render

#: One seed for the whole harness so EXPERIMENTS.md numbers reproduce.
BENCH_SEED = 42


@pytest.fixture
def bench_config() -> SystemConfig:
    return SystemConfig(seed=BENCH_SEED)


def show(table: Table):
    """Print a result's table — the one ``python -m repro <artifact>``
    prints — and return its rows."""
    print()
    print(render(table))
    return table[2]


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing.

    The experiments are multi-second simulations; statistical timing
    repetition would multiply the harness runtime for no insight.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
