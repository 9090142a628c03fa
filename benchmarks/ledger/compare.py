#!/usr/bin/env python3
"""Compare two ledger files: ``compare.py A.json B.json`` (A = base).

One row per workload x end-to-end metric: both medians with their
quartiles, the ratio B/A (its base is A's median), the bound from
``BENCHMARK.json`` and a verdict:

- ``worse``       B's median is worse than A's by more than the bound;
- ``better``      B's median is better than A's by more than the bound;
- ``unresolved``  the run-to-run spread of either side (distance between
  the quartiles of its runs over their median) exceeds the bound, so a
  difference of that size cannot be told from noise;
- ``same``        otherwise.

A side's median and quartiles are taken over its runs (``run.py --runs
N``). A ledger with one run per workload has no run-to-run spread; the
quartiles of that run's own windows stand in, which overstates it.

Exits 1 on any ``worse`` and on any workload whose ``failed_share``
rose; ``unresolved`` rows exit 0 but are counted in the summary.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[2]


def samples(runs: List[Dict[str, Any]], metric: str) -> Tuple[float, List[float]]:
    """(median over runs, quartiles over runs)."""
    values = [run["metrics"][metric]["value"] for run in runs]
    if len(values) >= 2:
        # inclusive: with a handful of runs the default method extrapolates
        # past the smallest and largest run
        return statistics.median(values), statistics.quantiles(values, n=4, method="inclusive")
    own = runs[0]["detail"].get(metric)
    return values[0], own["quartiles"] if isinstance(own, dict) else values * 3


def spread(quartiles: List[float]) -> float:
    return (quartiles[2] - quartiles[0]) / quartiles[1] if quartiles[1] else 0.0


def verdict(a: float, b: float, noise: float, bound: float, better: str) -> str:
    if noise > bound:
        return "unresolved"
    change = b / a - 1.0 if a else 0.0
    worsening = change if better == "lower" else -change
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "same"


def compare(base: Dict[str, Any], other: Dict[str, Any], bench: Dict[str, Any]) -> int:
    rows = []
    status = 0
    for name in (w["name"] for w in bench["workloads"]):
        a, b = base["workloads"].get(name), other["workloads"].get(name)
        if not a or not b:
            print(f"{name}: missing from {'B' if a else 'A'}")
            status = 1
            continue
        for metric in bench["end_to_end"]:
            if metric["name"] not in a[0]["metrics"] or metric["name"] not in b[0]["metrics"]:
                continue  # a traced ledger carries no end-to-end metrics
            va, qa = samples(a, metric["name"])
            vb, qb = samples(b, metric["name"])
            result = verdict(va, vb, max(spread(qa), spread(qb)), metric["bound"],
                             metric["better"])
            status |= result == "worse"
            rows.append((name, metric["name"], metric["unit"], va, qa, vb, qb,
                         vb / va if va else float("nan"), metric["bound"], result))
        fa, fb = (max(run["detail"]["failed_share"] for run in side) for side in (a, b))
        if fb > fa:
            print(f"{name}: failed_share rose {fa:.6g} -> {fb:.6g}")
            status = 1
    print(f"{'workload':<15s} {'metric':<14s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s} {'B/A':>7s} {'bound':>6s}  verdict")
    for name, metric, unit, va, qa, vb, qb, ratio, bound, result in rows:
        left = f"{va:.5g} [{qa[0]:.4g}, {qa[2]:.4g}] {unit}"
        right = f"{vb:.5g} [{qb[0]:.4g}, {qb[2]:.4g}] {unit}"
        print(f"{name:<15s} {metric:<14s} {left:>34s} {right:>34s} {ratio:>7.3f} "
              f"{bound:>6.0%}  {result}")
    counts = {v: sum(r[-1] == v for r in rows) for v in ("better", "same", "worse", "unresolved")}
    print(f"{counts}  (ratio base: A)")
    return status


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    base, other = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return compare(base, other, bench)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
