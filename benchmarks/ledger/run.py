#!/usr/bin/env python3
"""Perf ledger: seven named workloads, end-to-end and per-layer metrics.

One workload, one fresh process (the form the driver calls)::

    python3 benchmarks/ledger/run.py --workload sim_frames --seed 42 --seconds 10 --trace 0

prints every end-to-end metric by name and unit, a ``detail:`` line with
quartiles and sample counts, and as its last line the result object
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 1`` (or
``--traced``) prints the per-layer metrics instead and writes the spans
to ``out/<workload>.spans.json``.

All seven (each in its own subprocess) into one file::

    python3 benchmarks/ledger/run.py --runs 3 --out A.json   # untraced
    python3 benchmarks/ledger/run.py --traced --out A-traced.json
    python3 benchmarks/ledger/run.py --smoke                 # < 30 s, for CI
    python3 benchmarks/ledger/run.py --list

The names, units, directions and bounds live in ``BENCHMARK.json`` at
the repository root; sizes and expected movements in ``catalog.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"


def load_benchmark() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def workload_class(name: str):
    """Import lazily: ``--list`` and the fan-out need no ``repro``."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"error: no program to measure: {src / 'repro'} is missing")
    sys.path.insert(0, str(src))
    import wl_discovery, wl_live, wl_metro, wl_sim  # noqa: E401

    classes = (wl_sim.SimFrames, wl_sim.SimSelect, wl_metro.MetroCohort,
               wl_metro.MetroReselect, wl_discovery.CpDiscovery,
               wl_live.LiveFrames, wl_live.LiveDiscovery)
    return {cls.name: cls for cls in classes}[name]


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def run_one(args: argparse.Namespace, bench: Dict[str, Any]) -> int:
    import harness
    from spans import Recorder

    cls = workload_class(args.workload)
    recorder = Recorder() if args.trace else None
    workload = cls(args.seed, args.smoke, recorder)
    run = harness.measure(workload, args.seconds, bool(args.trace))

    if args.trace:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        unknown = sorted(set(run.layer) - set(units))
        if unknown:
            raise SystemExit(f"error: per-layer names not in BENCHMARK.json: {unknown}")
        metrics = {
            name: {"value": float(run.layer.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        }
        recorder.dump(OUT_DIR / f"{args.workload}.spans.json", args.workload)
        if recorder.missing:
            print(f"span boundaries the program no longer has: {recorder.missing}")
    else:
        metrics = harness.end_to_end(run)
        expected = [m["name"] for m in bench["end_to_end"]]
        if sorted(metrics) != sorted(expected):
            raise SystemExit(f"error: end-to-end names differ from BENCHMARK.json: {sorted(metrics)}")
    bad = [n for n, m in metrics.items() if not math.isfinite(m["value"])]
    if bad:
        run.problems.append(f"non-finite metric values: {bad}")

    info = harness.detail(run, workload)
    print(f"== {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}{' smoke' if args.smoke else ''}")
    for name, m in metrics.items():
        extra = ""
        if name in info and isinstance(info[name], dict):
            q = info[name]["quartiles"]
            extra = f"   n={info[name]['n']} quartiles=[{q[0]:.4g}, {q[1]:.4g}, {q[2]:.4g}]"
        if m["value"] or not args.trace:
            print(f"  {name:<44s} {m['value']:>14.6g} {m['unit']:<6s}{extra}")
    print(f"  raw cpu_us_per_op {info['raw_cpu_us_per_op']['quartiles'][1]:.6g} us, "
          f"wall_us_per_op {info['wall_us_per_op']['quartiles'][1]:.6g} us (ungated), "
          f"rounds {info['rounds']} of {info['ops_per_round']} ops in "
          f"{info['windows_per_round']} windows")
    print(f"  attempted {run.attempted} failed {run.failed} "
          f"failed_share {info['failed_share']:.6g}")
    if run.digest is not None:
        print(f"  sim_digest {json.dumps(run.digest, sort_keys=True)}")
    for problem in run.problems:
        print(f"  PROBLEM: {problem}")
    print("detail: " + json.dumps(info, sort_keys=True))
    print(harness.result_line(run, metrics))
    return 0


# ----------------------------------------------------------------------
# All workloads, one subprocess each
# ----------------------------------------------------------------------
def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_all(args: argparse.Namespace, names: List[str]) -> int:
    import numpy

    header = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "seed": args.seed,
        "seconds": args.seconds,
        "runs": args.runs,
        "trace": args.trace,
        "smoke": args.smoke,
        "loadavg_before": os.getloadavg(),
        "note": "shared box: figures are medians over windows, CPU time rescaled "
                "by a reference kernel timed beside each window (see README)",
    }
    records: Dict[str, List[Any]] = {name: [] for name in names}
    status = 0
    for name in names * args.runs:
        command = [sys.executable]
        if args.smoke and name.startswith("live_"):
            # leaked sockets and never-awaited coroutines become visible
            command += ["-X", "dev", "-W", "error::ResourceWarning"]
        command += [str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            command.append("--smoke")
        child = subprocess.run(command, capture_output=True, text=True, timeout=170)
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or len(lines) < 2:
            print(f"error: {name} exited with {child.returncode}")
            status = 1
            continue
        record = json.loads(lines[-1])
        record["detail"] = json.loads(lines[-2].removeprefix("detail: "))
        if "ResourceWarning" in child.stderr:
            record["correct"] = False
            record["detail"]["problems"].append("ResourceWarning on stderr")
        records[name].append(record)
        if not record["correct"]:
            status = 1
    header["loadavg_after"] = os.getloadavg()
    out = args.out or OUT_DIR / ("ledger-traced.json" if args.trace else "ledger.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"header": header, "workloads": records}, indent=1) + "\n",
                   encoding="utf-8")
    print(f"wrote {out}")
    return status


def list_catalogue(bench: Dict[str, Any]) -> int:
    catalog = json.loads((HERE / "catalog.json").read_text(encoding="utf-8"))
    print("workloads:")
    for w in bench["workloads"]:
        print(f"  {w['name']:<16s} {w['why']}")
    print("end-to-end metrics (bound = allowed worsening of the median):")
    for m in bench["end_to_end"]:
        print(f"  {m['name']:<44s} {m['unit']:<6s} {m['better']:<6s} bound {m['bound']:.0%}")
        print(f"  {'':<44s} {catalog['end_to_end'][m['name']]}")
    print("per-layer metrics (the end-to-end metric each should move, and where):")
    for m in bench["per_layer"]:
        c = catalog["per_layer"][m["name"]]
        moves = f"-> {c['moves']} on {','.join(c['on'])}" if c["on"] else ""
        quiet = f"; not on {','.join(c['not_on'])}" if c["not_on"] else ""
        print(f"  {m['name']:<44s} {m['unit']:<6s} {m['better']:<6s} {moves}{quiet}")
        print(f"  {'':<44s} {c['how']}")
    return 0


def main() -> int:
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [w["name"] for w in bench["workloads"]]
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per workload (default: run_seconds of "
                             "BENCHMARK.json; 1 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1)
    parser.add_argument("--smoke", action="store_true", help="small sizes, one-second runs")
    parser.add_argument("--runs", type=int, default=1,
                        help="all-workloads form: processes per workload (their spread "
                             "is what compare.py judges a difference against)")
    parser.add_argument("--out", type=Path, help="ledger file written by the all-workloads form")
    parser.add_argument("--list", action="store_true")
    args = parser.parse_args()
    if args.list:
        return list_catalogue(bench)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(bench["run_seconds"])
    if args.workload == "all":
        return run_all(args, names)
    return run_one(args, bench)


if __name__ == "__main__":
    sys.exit(main())
