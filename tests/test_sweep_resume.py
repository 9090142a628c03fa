"""Crash/resume integration: a sweep killed after K of N runs resumes
with exactly N-K executions and an aggregate identical to an
uninterrupted sweep's.

The "kill" is a poisoned experiment callable: while a poison marker
file exists, it raises ``KeyboardInterrupt`` as soon as K runs have
completed — the same signal a real Ctrl-C (or an OOM-killed driver
re-raised at the executor) delivers. The callable also appends one line
per *completed* execution to a counter file, so the test can assert how
many runs each phase actually performed, independently of what the
engine reports.
"""

import json
from pathlib import Path

import pytest

from repro.sweep import (
    RunStore,
    SweepSpec,
    SweepableExperiment,
    aggregates_digest,
    register,
    run_sweep,
)
from repro.sweep.registry import _REGISTRY

N_CELLS = 3
N_SEEDS = 2
N_TOTAL = N_CELLS * N_SEEDS
K_BEFORE_KILL = 2

_STATE: dict = {}


def _poisoned_experiment(params, root_seed):
    counter: Path = _STATE["counter"]
    poison: Path = _STATE["poison"]
    done = len(counter.read_text().splitlines()) if counter.exists() else 0
    if poison.exists() and done >= K_BEFORE_KILL:
        raise KeyboardInterrupt("simulated crash mid-sweep")
    from repro.sim.random import RandomStreams

    value = RandomStreams(root_seed).get("metric").random()
    with counter.open("a") as fh:
        fh.write(f"{params}:{root_seed}\n")
    return {"value": value * float(params["scale"])}


@pytest.fixture()
def poisoned(tmp_path):
    """Register the poisoned experiment and point it at tmp state."""
    _STATE["counter"] = tmp_path / "counter.txt"
    _STATE["poison"] = tmp_path / "poison.marker"
    name = "crash_resume_probe"
    register(
        SweepableExperiment(name=name, fn=_poisoned_experiment),
        replace=True,
    )
    yield name
    _REGISTRY.pop(name, None)


def _spec(name):
    return SweepSpec.build(
        name, {"scale": [1.0, 2.0, 3.0]}, n_seeds=N_SEEDS, base_seed=11
    )


def _executions():
    counter = _STATE["counter"]
    return len(counter.read_text().splitlines()) if counter.exists() else 0


def test_killed_sweep_resumes_with_exactly_the_missing_runs(
    poisoned, tmp_path
):
    spec = _spec(poisoned)
    store = RunStore(tmp_path / "store")

    # Phase 1: poison armed — the sweep dies after K completed runs.
    _STATE["poison"].touch()
    with pytest.raises(KeyboardInterrupt):
        run_sweep(spec, store)
    assert _executions() == K_BEFORE_KILL
    assert len(store.completed_keys()) == K_BEFORE_KILL

    # Phase 2: poison removed — resume executes exactly N-K runs.
    _STATE["poison"].unlink()
    resumed = run_sweep(spec, store)
    assert _executions() == N_TOTAL
    assert resumed.executed == N_TOTAL - K_BEFORE_KILL
    assert resumed.skipped == K_BEFORE_KILL
    assert resumed.failed == 0
    interrupted_digest = aggregates_digest(resumed.aggregates())

    # Reference: the same sweep, never interrupted, in a fresh store
    # with a fresh counter — aggregates must match exactly.
    _STATE["counter"] = tmp_path / "counter2.txt"
    clean = run_sweep(spec, RunStore(tmp_path / "store2"))
    assert clean.executed == N_TOTAL
    assert aggregates_digest(clean.aggregates()) == interrupted_digest


def test_killed_parallel_sweep_resumes_identically(poisoned, tmp_path):
    """The resumed runs may execute under a 2-worker pool: the aggregate
    still matches the serial uninterrupted reference bit for bit."""
    spec = _spec(poisoned)
    store = RunStore(tmp_path / "store")

    _STATE["poison"].touch()
    with pytest.raises(KeyboardInterrupt):
        run_sweep(spec, store)
    _STATE["poison"].unlink()

    # Parallel resume (fork start method inherits the registration).
    resumed = run_sweep(spec, store, workers=2)
    assert resumed.skipped == K_BEFORE_KILL
    assert resumed.executed == N_TOTAL - K_BEFORE_KILL

    _STATE["counter"] = tmp_path / "counter2.txt"
    clean = run_sweep(spec, RunStore(tmp_path / "store2"))
    assert aggregates_digest(resumed.aggregates()) == aggregates_digest(
        clean.aggregates()
    )


def test_partial_store_survives_on_disk(poisoned, tmp_path):
    """What the interrupted phase persisted is valid, parseable JSONL."""
    spec = _spec(poisoned)
    store = RunStore(tmp_path / "store")
    _STATE["poison"].touch()
    with pytest.raises(KeyboardInterrupt):
        run_sweep(spec, store)
    files = sorted(store.runs_dir.glob("*.json"))
    assert len(files) == K_BEFORE_KILL
    for path in files:
        record = json.loads(path.read_text())
        assert record["status"] == "ok"
        assert "value" in record["metrics"]
