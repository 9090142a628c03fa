"""Smoke test of the perf ledger (outside tier-1's ``testpaths``).

Run with ``PYTHONPATH=src python -m pytest benchmarks/ledger -q`` (about
a minute: every workload runs twice at ``--smoke`` size).
"""

from __future__ import annotations

import copy
import json
import math
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_ledger(out: Path, trace: int) -> Dict[str, Any]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", str(trace),
         "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert "ResourceWarning" not in done.stderr
    return json.loads(out.read_text(encoding="utf-8"))


def run_workload(name: str, seed: int, trace: int) -> Dict[str, Any]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--workload", name,
         "--seed", str(seed), "--trace", str(trace)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def untraced(tmp_path_factory) -> Dict[str, Any]:
    return run_ledger(tmp_path_factory.mktemp("ledger") / "untraced.json", trace=0)


@pytest.fixture(scope="module")
def traced(tmp_path_factory) -> Dict[str, Any]:
    return run_ledger(tmp_path_factory.mktemp("ledger") / "traced.json", trace=1)


def check_names_and_values(ledger: Dict[str, Any], section: str) -> None:
    expected = {m["name"]: m["unit"] for m in BENCH[section]}
    assert sorted(ledger["workloads"]) == sorted(WORKLOADS)
    for name, runs in ledger["workloads"].items():
        (record,) = runs
        assert set(record) == {"correct", "attempted", "failed", "metrics", "detail"}
        assert record["correct"] is True, record["detail"]["problems"]
        assert record["attempted"] >= 1 and record["failed"] == 0
        assert sorted(record["metrics"]) == sorted(expected), name
        for metric, got in record["metrics"].items():
            assert got["unit"] == expected[metric]
            assert math.isfinite(got["value"]), (name, metric)


def test_untraced_prints_every_end_to_end_metric(untraced) -> None:
    check_names_and_values(untraced, "end_to_end")
    for runs in untraced["workloads"].values():
        for got in runs[0]["metrics"].values():
            assert got["value"] > 0.0


def test_traced_prints_every_per_layer_metric(traced) -> None:
    check_names_and_values(traced, "per_layer")


def test_every_layer_metric_is_measured_somewhere(traced) -> None:
    for metric in (m["name"] for m in BENCH["per_layer"]):
        if metric in ("failed_share", "frames_lost", "controlplane.widened_share"):
            continue  # 0 is their good value
        assert any(
            runs[0]["metrics"][metric]["value"] != 0.0
            for runs in traced["workloads"].values()
        ), metric


def test_contrast_pairs(traced) -> None:
    def value(workload: str, metric: str) -> float:
        return traced["workloads"][workload][0]["metrics"][metric]["value"]

    assert value("metro_cohort", "metro.control_ops") == 0
    assert value("metro_reselect", "metro.control_ops") > 0
    assert value("metro_reselect", "metro.step_to.us_per_control_op") > 0
    assert value("live_discovery", "runtime.wire.connections_per_discover_direct") == 1
    assert value("live_discovery", "runtime.wire.connections_per_discover") > 1
    assert value("sim_select", "core.select_path.share") > value(
        "sim_frames", "core.select_path.share")


def test_span_self_times(traced) -> None:
    for name in WORKLOADS:
        spans = json.loads((HERE / "out" / f"{name}.spans.json").read_text(encoding="utf-8"))
        stack = [t for t in spans["totals"] if not t["free"]]
        assert all(t["self_s"] >= 0.0 and t["calls"] > 0 for t in spans["totals"])
        cpu_s = traced["workloads"][name][0]["detail"]["cpu_s"]["spans"]
        # span clocks are wall, the budget is CPU: allow the two to differ a little
        assert sum(t["self_s"] for t in stack) <= cpu_s * 1.15 + 0.01, name
        assert not spans["missing"], spans["missing"]


def test_sim_events_repeat_per_seed() -> None:
    def events(seed: int) -> float:
        return run_workload("sim_frames", seed, 1)["metrics"]["sim.events"]["value"]

    first = events(42)
    assert first > 0 and first == events(42)
    assert first != events(43)


def test_compare_verdicts(untraced, tmp_path) -> None:
    same = tmp_path / "a.json"
    same.write_text(json.dumps(untraced), encoding="utf-8")
    slower = copy.deepcopy(untraced)
    slower["workloads"]["sim_frames"][0]["metrics"]["cpu_us_per_op"]["value"] *= 2.0
    worse = tmp_path / "b.json"
    worse.write_text(json.dumps(slower), encoding="utf-8")
    compare = [sys.executable, str(HERE / "compare.py")]
    ok = subprocess.run(compare + [str(same), str(same)], capture_output=True, text=True)
    assert ok.returncode == 0 and " worse" not in ok.stdout, ok.stdout
    bad = subprocess.run(compare + [str(same), str(worse)], capture_output=True, text=True)
    # smoke windows are few and noisy, so the doubled row may read unresolved
    assert "sim_frames" in bad.stdout
    assert bad.returncode == 1 or "unresolved" in bad.stdout, bad.stdout


def test_bare_directory_exits_nonzero(tmp_path) -> None:
    """Only BENCHMARK.json and the benchmark's own files: no program, no result."""
    (tmp_path / "benchmarks").mkdir()
    target = tmp_path / "benchmarks" / "ledger"
    target.mkdir()
    for path in HERE.glob("*.py"):
        (target / path.name).write_bytes(path.read_bytes())
    (target / "catalog.json").write_bytes((HERE / "catalog.json").read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "sim_frames",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
