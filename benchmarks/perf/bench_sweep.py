"""Sweep-engine throughput: per-platform wall-clock and bit-identity.

Runs a paper-artifact sweep (``fig8``, the ~1 s churn trace, x 9 seeds
= 9 independent simulation runs by default) once per execution platform
through ``repro.sweep.run_sweep``:

- **inline**     — the serial in-process reference loop.
- **pool**       — a ``ProcessPoolExecutor`` with ``--workers`` processes.
- **subprocess** — ``--workers`` long-lived worker subprocesses speaking
  the JSON-lines protocol of ``repro.sweep.worker``.

Determinism first, speed second: before timing is reported, every
platform's cross-seed aggregates must be **bit-identical** to the
inline reference (``aggregates_digest`` over every cell and metric),
and a resume pass over the pool store must re-execute **zero** runs.
The checks, per-platform wall-clock, and per-platform throughput
(runs/s) all go into the ``sweep`` section of ``BENCH_perf.json``.

The >=3x acceptance target assumes >=4 usable cores (the CI runners
have 4). On smaller machines the speedup is recorded honestly along
with ``cpu_count`` and the assertion is skipped — parallel overhead on
a 1-core box is a fact, not a regression. Pass ``--require-speedup`` to
force the assertion regardless.

Run:  PYTHONPATH=src python benchmarks/perf/bench_sweep.py --workers 4
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

from repro.metrics.bench import record_bench_section
from repro.sweep import (
    RunStore,
    SweepSpec,
    aggregates_digest,
    get_experiment,
    run_sweep,
)

#: Platforms measured, inline (the bit-identity reference) first.
BENCH_PLATFORMS = ["inline", "pool", "subprocess"]


def usable_cpus() -> int:
    """Cores this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--experiment", default="fig8",
                        help="any sweepable experiment, run on its default grid")
    parser.add_argument("--seeds", type=int, default=9)
    parser.add_argument("--base-seed", type=int, default=42)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--require-speedup", action="store_true",
                        help="assert the 3x target even on <4 cores")
    parser.add_argument("--speedup-target", type=float, default=3.0)
    parser.add_argument(
        "--output", type=Path,
        default=Path(__file__).resolve().parents[2] / "BENCH_perf.json",
    )
    args = parser.parse_args(argv)

    spec = SweepSpec.build(
        args.experiment, get_experiment(args.experiment).default_grid,
        n_seeds=args.seeds, base_seed=args.base_seed,
    )
    total_runs = spec.total_runs()
    cpus = usable_cpus()
    print(f"sweep {args.experiment}: {total_runs} runs "
          f"({len(spec.cells())} cells x {args.seeds} seeds), "
          f"{args.workers} workers on {cpus} usable cpus")

    wall: Dict[str, float] = {}
    digests: Dict[str, str] = {}
    with tempfile.TemporaryDirectory(prefix="bench_sweep.") as tmp:
        tmp_path = Path(tmp)
        stores = {name: RunStore(tmp_path / name) for name in BENCH_PLATFORMS}

        for name in BENCH_PLATFORMS:
            t0 = time.perf_counter()
            result = run_sweep(
                spec, stores[name], platform=name, workers=args.workers
            )
            wall[name] = time.perf_counter() - t0
            digests[name] = aggregates_digest(result.aggregates())
            if result.failed:
                print(f"FAILED: {result.failed} {name} runs did not complete")
                return 1

        # Determinism: every platform bit-identical to the inline
        # reference, cell by cell, metric by metric.
        reference = digests["inline"]
        for name, digest in digests.items():
            if digest != reference:
                print(f"FAILED: {name} aggregates differ from inline")
                return 1

        # Resume: a second pass over the pool store executes nothing.
        resumed = run_sweep(
            spec, stores["pool"], platform="pool", workers=args.workers
        )
        if resumed.executed != 0:
            print(f"FAILED: resume re-executed {resumed.executed} runs")
            return 1

    serial_s = wall["inline"]
    parallel_s = wall["pool"]
    speedup = serial_s / parallel_s if parallel_s > 0 else 0.0
    target_met = speedup >= args.speedup_target

    result = {
        "experiment": args.experiment,
        "runs": total_runs,
        "seeds": args.seeds,
        "workers": args.workers,
        "cpu_count": cpus,
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "speedup": round(speedup, 2),
        "speedup_target": args.speedup_target,
        "speedup_target_met": target_met,
        "platforms": {
            name: {
                "wall_s": round(wall[name], 3),
                "runs_per_s": round(total_runs / wall[name], 2)
                if wall[name] > 0 else 0.0,
            }
            for name in BENCH_PLATFORMS
        },
        "aggregates": "identical",
        "resume_reexecuted": 0,
    }
    record_bench_section(args.output, "sweep", result)

    for name in BENCH_PLATFORMS:
        rate = total_runs / wall[name] if wall[name] > 0 else 0.0
        suffix = "" if name == "inline" else f"   ({args.workers} workers)"
        print(f"  {name:<10} : {wall[name]:8.2f} s  "
              f"{rate:8.2f} runs/s{suffix}")
    print(f"  speedup    : {speedup:8.2f}x pool vs inline  "
          f"(aggregates: identical, resume re-executed: 0)")
    print(f"wrote {args.output}")

    if args.require_speedup or cpus >= 4:
        if not target_met:
            print(f"FAILED: speedup {speedup:.2f}x < "
                  f"{args.speedup_target:.1f}x target with {cpus} cpus")
            return 1
    elif not target_met:
        print(f"note: {args.speedup_target:.1f}x target not asserted "
              f"(only {cpus} usable cpu(s); CI asserts on 4)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
