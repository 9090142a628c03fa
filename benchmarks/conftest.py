"""Shared configuration for the paper-figure harness.

A test backed by a generated section of EXPERIMENTS.md calls
``published(name)`` for it. That runs the sweep the section is rendered
from, fails the calling test if the render differs from the committed
section by one byte, and returns the runs, on which the test asserts
the *shape* (who wins, by roughly what factor, where the
crossover falls): on means where the section's paragraph states a
direction, on separated 95% intervals where it says a difference holds,
on every seed where it says "every seed". The files with no section
call their functions directly.

Run with ``PYTHONPATH=src pytest benchmarks/test_*.py -s``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

from repro.sweep import (
    CellAggregate,
    MetricAggregate,
    RunRecord,
    SweepSpec,
    aggregate_records,
    get_experiment,
    render_markdown,
    run_sweep,
    update_tagged_section,
)

EXPERIMENTS_MD = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"
#: The store every generated section of EXPERIMENTS.md is rendered from.
SEEDS = 5
BASE_SEED = 42


@dataclass(frozen=True)
class Published:
    """One experiment's sweep: its runs in expansion order (cell by cell,
    seed by seed) and their aggregates. A paper artifact has one cell and
    names its metrics ``"<row> | <column>"``."""

    records: List[RunRecord]
    cells: Dict[str, CellAggregate]

    def _cell(self, params: Dict[str, object]) -> CellAggregate:
        (cell,) = [c for c in self.cells.values() if c.params == params]
        return cell

    def per_seed(self, **params: object) -> List[Dict[str, float]]:
        """The metric dict of every seed of one cell, in seed order."""
        seeds = [r.metrics for r in self.records if r.params == params]
        assert len(seeds) == self._cell(params).n_seeds == SEEDS, params
        return seeds

    def agg(self, metric: str, **params: object) -> MetricAggregate:
        """One metric of one cell, reduced across its seeds."""
        return self._cell(params).metrics[metric]

    def mean(self, metric: str, **params: object) -> float:
        return self.agg(metric, **params).mean


def below(low: MetricAggregate, high: MetricAggregate) -> bool:
    """``low``'s whole 95% interval lies below ``high``'s."""
    return low.mean + low.ci_half_width < high.mean - high.ci_half_width


def published(name: str) -> Published:
    """The sweep behind EXPERIMENTS.md's ``name`` section, checked against
    it. ``workers`` changes only the wall time."""
    spec = SweepSpec.build(
        name,
        get_experiment(name).default_grid,
        n_seeds=SEEDS,
        base_seed=BASE_SEED,
    )
    result = run_sweep(spec, workers=os.cpu_count() or 1)
    failed = [(r.params, r.seed_index, r.error) for r in result.records if not r.ok]
    assert not failed, failed
    cells = aggregate_records(result.records)
    body = render_markdown(cells)
    print(f"\n{body}")
    update_tagged_section(EXPERIMENTS_MD, name, body, check=True)
    return Published(result.records, cells)
