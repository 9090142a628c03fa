"""BENCH_perf.json bookkeeping for the perf-benchmark harness.

``benchmarks/perf/*`` scripts each measure one axis (discovery-query
throughput, steady-state event throughput, per-platform sweep
throughput) and record their section into a single merged report at
the repo root, so the performance trajectory of the fast path is
tracked as one file across revisions. The ``sweep`` section carries a
``platforms`` sub-table — wall-clock and runs/s for each execution
platform (inline, and process at ``--workers``) at the benchmark grid.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

from repro.fsutil import atomic_write_text

#: Registered perf benchmarks: CLI name -> script under ``benchmarks/perf``.
PERF_BENCHMARKS: Dict[str, str] = {
    "discovery": "bench_discovery.py",
    "discovery_sharded": "bench_discovery_sharded.py",
    "steady_state": "bench_steady_state.py",
    "sweep": "bench_sweep.py",
    "trace_overhead": "bench_trace_overhead.py",
    "metro": "bench_metro.py",
}


def perf_bench_dir(start: Optional[Path] = None) -> Path:
    """Locate ``benchmarks/perf``: walk up from ``start`` (default cwd),
    falling back to the source checkout this module lives in."""
    here = (start if start is not None else Path.cwd()).resolve()
    for candidate in (here, *here.parents):
        perf = candidate / "benchmarks" / "perf"
        if perf.is_dir():
            return perf
    fallback = Path(__file__).resolve().parents[3] / "benchmarks" / "perf"
    if fallback.is_dir():
        return fallback
    raise FileNotFoundError(
        "benchmarks/perf not found above the working directory or the "
        "source checkout; run from a repo checkout or pass an explicit dir"
    )


def run_perf_bench(
    name: str,
    argv: Sequence[str] = (),
    *,
    perf_dir: Optional[Path] = None,
) -> int:
    """Import a registered benchmark script and invoke its ``main(argv)``.

    Benchmark scripts are plain files (not a package), so they are loaded
    by path; each exposes ``main(argv) -> int`` and accepts ``--output``.
    """
    try:
        filename = PERF_BENCHMARKS[name]
    except KeyError:
        known = ", ".join(sorted(PERF_BENCHMARKS))
        raise KeyError(f"unknown benchmark {name!r} (known: {known})") from None
    path = (perf_dir if perf_dir is not None else perf_bench_dir()) / filename
    spec = importlib.util.spec_from_file_location(f"repro_bench_{name}", path)
    if spec is None or spec.loader is None:  # pragma: no cover - loader quirk
        raise ImportError(f"cannot load benchmark script {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    result = module.main(list(argv))
    return int(result) if result is not None else 0


def record_bench_section(path: Path, section: str, payload: Dict[str, Any]) -> None:
    """Merge ``payload`` into the report at ``path`` under ``section``.

    Other sections are preserved; an unreadable/corrupt report is
    replaced rather than crashing the benchmark that produced real data.
    The merged report is written atomically (tmp file + ``os.replace``,
    the same helper the sweep run store uses) so an interrupt mid-write
    can never corrupt the accumulated perf trajectory.
    """
    report: Dict[str, Any] = {}
    if path.exists():
        try:
            loaded = json.loads(path.read_text())
            if isinstance(loaded, dict):
                report = loaded
        except (OSError, json.JSONDecodeError):
            pass
    report[section] = payload
    atomic_write_text(path, json.dumps(report, indent=2, sort_keys=True) + "\n")
