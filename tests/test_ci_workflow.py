"""CI jobs install what the tests they run import.

The ``test`` matrix job ran the whole tier-1 suite with ``numpy pytest``
installed, while a good dozen tier-1 modules import ``hypothesis`` at
module top: ``pytest -x`` stopped at collection. And ``metro-smoke``
listed its test files by name, so a new ``tests/test_metro_*.py`` was
silently not run there. Read straight off the workflow text (no YAML
parser in the image that job builds).

Names the repo deleted are not kept out by CI steps: they live in
``REMOVED_NAMES`` in ``tests/test_removed_names.py``, a tier-1 check.
The tests below that name a deletion pin its row there, in the order the
deletions were made, and that nothing under ``src/repro`` matches it.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, List, Set

import pytest

from tests.test_removed_names import REMOVED_NAMES, Removed, hits

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"


def jobs() -> Dict[str, str]:
    """Job name -> the text of its block."""
    body = WORKFLOW.read_text().split("\njobs:\n", 1)[1]
    parts = re.split(r"(?m)^  ([\w-]+):\n", body)
    return dict(zip(parts[1::2], parts[2::2]))


def imports_hypothesis(path: Path) -> bool:
    return re.search(r"(?m)^(from|import) hypothesis\b", path.read_text()) is not None


def runs_all_of_tests(job: str) -> bool:
    """A pytest step with options only (``-x -q --durations=15``), no paths."""
    return re.search(r"(?m)run: python -m pytest( -\S+)*$", job) is not None


def named_tests(job: str) -> Set[Path]:
    """The test files a job names, shell globs expanded as its runner would."""
    return {
        path
        for pattern in re.findall(r"tests/test_[\w*]+\.py", job)
        for path in ROOT.glob(pattern)
    }


def runs_hypothesis_tests(job: str) -> bool:
    if runs_all_of_tests(job):
        return any(imports_hypothesis(path) for path in (ROOT / "tests").glob("test_*.py"))
    return any(imports_hypothesis(path) for path in named_tests(job))


@pytest.mark.skipif(not WORKFLOW.exists(), reason="no workflow in this checkout")
def test_jobs_that_run_hypothesis_tests_install_hypothesis():
    found = jobs()
    assert "test" in found and runs_all_of_tests(found["test"])
    assert runs_hypothesis_tests(found["test"])
    for name, job in found.items():
        if runs_hypothesis_tests(job):
            (install,) = re.findall(r"pip install (.*)", job)
            assert "hypothesis" in install.split(), f"job {name!r} installs only: {install}"


@pytest.mark.skipif(not WORKFLOW.exists(), reason="no workflow in this checkout")
def test_metro_smoke_runs_every_metro_test_file():
    job = jobs()["metro-smoke"]
    on_disk = set((ROOT / "tests").glob("test_metro_*.py"))
    assert len(on_disk) >= 6
    assert on_disk <= named_tests(job), sorted(p.name for p in on_disk - named_tests(job))
    # By glob, not by name: the next metro test file is covered unasked.
    assert "tests/test_metro_*.py" in job


@pytest.mark.skipif(not WORKFLOW.exists(), reason="no workflow in this checkout")
def test_metro_suite_fails_on_a_runtime_warning():
    """The cohort path keeps arrays between ticks and compares floats by
    their bits: a NaN or an overflow in that arithmetic warns, and the
    metro suite makes the warning a failure."""
    job = jobs()["metro-smoke"]
    assert "run: python -m pytest -x -q -W error::RuntimeWarning tests/test_metro_*.py\n" in job


@pytest.mark.skipif(not WORKFLOW.exists(), reason="no workflow in this checkout")
def test_metro_smoke_uploads_the_memory_figures():
    """Each commit's metro artifact carries the attach and advance
    transients and the resident bytes per user; a failing script fails
    the step rather than vanishing into ``tee``."""
    steps = re.split(r"(?m)^      - name: ", jobs()["metro-smoke"])
    (memory,) = [s for s in steps if "tests/test_metro_memory_budget.py |" in s]
    assert "set -o pipefail" in memory
    assert "| tee metro-artifacts/memory_budget.txt" in memory
    assert steps.index(memory) < [i for i, s in enumerate(steps) if "upload-artifact" in s][0]


HARNESS = "run: python -m pytest benchmarks/test_*.py"


def harness_files() -> List[Path]:
    return sorted((ROOT / "benchmarks").glob("test_*.py"))


def published_names() -> List[str]:
    """The experiment of every ``published(...)`` call in the harness;
    the argument must be a literal name."""
    names = []
    for path in harness_files():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "published":
                (arg,) = node.args
                assert isinstance(arg, ast.Constant) and isinstance(arg.value, str), path.name
                names.append(arg.value)
    return names


@pytest.mark.skipif(not WORKFLOW.exists(), reason="no workflow in this checkout")
def test_a_job_runs_the_paper_figure_harness():
    """``benchmarks/test_*.py`` regenerates every figure EXPERIMENTS.md
    quotes; tier-1 does not collect it, so a CI job has to name it — by
    glob. It needs no pytest plugin: no test takes a fixture."""
    harness = harness_files()
    assert len(harness) >= 18
    (job,) = [job for job in jobs().values() if HARNESS in job]
    (install,) = re.findall(r"pip install (.*)", job)
    assert {"numpy", "pytest"} <= set(install.split())
    assert not any(imports_hypothesis(path) for path in harness) or "hypothesis" in install
    assert 'PYTHONPATH: src' in job
    for path in harness:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test_"):
                assert not node.args.args, (path.name, node.name)


@pytest.mark.skipif(not WORKFLOW.exists(), reason="no workflow in this checkout")
def test_paper_figures_regenerates_every_generated_table_in_experiments_md():
    """Each ``sweep-report`` section of EXPERIMENTS.md but the selftest
    one is checked from a fresh 5-seed sweep of the experiment it is
    named after, by exactly one harness test calling ``published`` for
    it: a new section nobody asks for, a name asked for twice, or a
    name with no section fails here."""
    tags = re.findall(r"<!-- sweep-report:([\w-]+) -->", (ROOT / "EXPERIMENTS.md").read_text())
    asked = published_names()
    assert sorted(asked) == sorted(t for t in tags if t != "sweep-selftest")
    assert len(set(asked)) == len(asked)
    conftest = (ROOT / "benchmarks" / "conftest.py").read_text()
    assert "SEEDS = 5\nBASE_SEED = 42\n" in conftest
    assert "update_tagged_section(EXPERIMENTS_MD, name, body, check=True)" in conftest
    steps = re.split(r"(?m)^      - name: ", jobs()["paper-figures"])
    assert "for tag in" not in "".join(steps)
    (harness,) = [i for i, s in enumerate(steps) if HARNESS in s]
    assert "run: git diff --exit-code EXPERIMENTS.md" in steps[harness + 1]


@pytest.mark.skipif(not WORKFLOW.exists(), reason="no workflow in this checkout")
def test_the_stop_race_test_runs_under_the_leak_flags():
    """A connection that outlives ``stop_serving`` shows as an unclosed
    socket at collection time: the file holding its regression test must
    sit in a step that runs ``-X dev`` with ResourceWarning an error."""
    name = "test_connection_accepted_while_stopping_is_hung_up_not_served"
    (home,) = [p for p in (ROOT / "tests").glob("test_*.py") if f"def {name}(" in p.read_text()]
    steps = re.split(r"(?m)^      - name: ", WORKFLOW.read_text())
    strict = [s for s in steps if "python -X dev -m pytest" in s
              and "-W error::ResourceWarning" in s and f"tests/{home.name}" in s]
    assert strict, f"tests/{home.name} is in no -W error::ResourceWarning step"


@pytest.mark.skipif(not WORKFLOW.exists(), reason="no workflow in this checkout")
def test_live_bringup_runs_under_the_leak_flags():
    """The bring-up tests start and stop clusters, routers and an edge
    facing a refused port: chaos-smoke runs them with a leaked socket or
    an unraisable exception an error."""
    steps = re.split(r"(?m)^      - name: ", jobs()["chaos-smoke"])
    (strict,) = [s for s in steps if "tests/test_live_bringup.py" in s]
    assert "python -X dev -m pytest" in strict
    assert "-W error::ResourceWarning" in strict
    assert "-W error::pytest.PytestUnraisableExceptionWarning" in strict


def removed_row(pattern: str, reason: str, pr: int, after: str) -> None:
    """``pattern``'s row spans ``src/repro``, follows ``after``'s and matches nothing."""
    patterns = [row.pattern for row in REMOVED_NAMES]
    row = REMOVED_NAMES[patterns.index(pattern)]
    assert row == Removed(pattern, "src/repro", None, pr, reason)
    assert patterns.index(pattern) == 1 + patterns.index(after)
    assert hits(ROOT, row) == []


KERNEL_PLUMBING = "SimClock|EventQueue|EventPool|push_pooled|advance_to"
NET_PLUMBING = (
    r"\bRttModel\b|MatrixRttModel|HashedPairRttModel|NetworkEndpoint|EndpointInfo"
    r"|jitter_decomposable|cacheable_expected|LinkState|repro\.net\.link"
)
METRO_KNOBS = (
    r"cohort_tick_ms|boundary_epoch_ms|trace_capacity|frame_transfer_ms"
    r"|effective_(cell|shard)_precision|with_shard"
)
CONTROL_PLANE_EXITS = (
    r"apply_shard_map|shard_map\.epoch|\.derive\(|NodeForgotten|forget_node"
    r"|gray_factor|from_config"
)
CORE_KNOBS = (
    r"rtt_probe_samples|common_rtt_ms|perf_monitor_(period_ms|threshold)"
    r"|max_discovery_retries|idle_refresh_factor|backlog_limit|selection_config"
    r"|breaker_failure_threshold|request_timeout_s"
)
POLICY_WAYS_IN = (
    r"CallableRankingPolicy|\bas_policy\b|RankingCallable|PolicySpec"
    r"|local_policy|selection_policy_params|self\.selection_policy\b"
    r"|_live_policy|policy_params"
)


def test_the_kernel_keeps_one_clock_and_one_heap():
    """The deleted kernel classes and their methods stay out."""
    removed_row(KERNEL_PLUMBING, "the per-event kernel keeps one clock and one heap",
                29, after="asyncio.sleep")


def test_the_network_keeps_one_rtt_model_and_one_endpoint_record():
    """The deleted RTT models, endpoint records and link module stay out."""
    removed_row(NET_PLUMBING, "the network keeps one RTT model and one endpoint record",
                38, after=KERNEL_PLUMBING)


def test_metro_keeps_only_the_settings_its_callers_set():
    """The metro's deleted tick, epoch, transfer, ring and precision settings stay out."""
    removed_row(METRO_KNOBS, "metro keeps only the settings its callers set",
                39, after=NET_PLUMBING)


def test_the_control_plane_keeps_one_shard_map_and_one_way_out_of_the_registry():
    """The shard-map epoch, live resharding and administrative forget stay out."""
    removed_row(CONTROL_PLANE_EXITS,
                "the control plane keeps one shard map and one way out of the registry",
                41, after=METRO_KNOBS)


def test_the_core_keeps_only_the_settings_its_callers_set():
    """The sim config's and constructors' deleted settings stay out."""
    removed_row(CORE_KNOBS, "the core keeps only the settings its callers set",
                42, after=CONTROL_PLANE_EXITS)


def test_a_client_policy_is_chosen_by_name():
    """The ranking-callable adapter, params ways in and policy setters stay out."""
    removed_row(POLICY_WAYS_IN, "a client policy is chosen by name", 45, after=CORE_KNOBS)


@pytest.mark.skipif(not WORKFLOW.exists(), reason="no workflow in this checkout")
def test_a_dropped_sim_world_frees_itself():
    """chaos-smoke, right after the fault-injection and hardening tests,
    runs the world lifecycle tests with an exception raised in
    ``__del__`` an error (otherwise it is only printed)."""
    steps = re.split(r"(?m)^      - name: ", jobs()["chaos-smoke"])
    (step,) = [s for s in steps if "tests/test_world_lifecycle.py" in s]
    assert step.startswith("A dropped sim world frees itself\n")
    assert "python -m pytest" in step
    assert "-W error::pytest.PytestUnraisableExceptionWarning" in step
    assert steps.index(step) == 1 + next(
        i for i, s in enumerate(steps) if s.startswith("Fault-injection + hardening tests")
    )
    assert (ROOT / "tests" / "test_world_lifecycle.py").exists()


@pytest.mark.skipif(not WORKFLOW.exists(), reason="no workflow in this checkout")
def test_the_wire_schema_tests_run_under_the_leak_flags():
    """The hostile-input tests boot servers, a router cluster and fake
    peers, and send frames that used to end in a handler exception:
    chaos-smoke runs them with a leaked socket or an unraisable exception
    an error, and installs the hypothesis their strategies need."""
    job = jobs()["chaos-smoke"]
    (strict,) = [s for s in re.split(r"(?m)^      - name: ", job) if "tests/test_wire_schema.py" in s]
    assert "python -X dev -m pytest" in strict
    assert "-W error::ResourceWarning" in strict
    assert "-W error::pytest.PytestUnraisableExceptionWarning" in strict
    (install,) = re.findall(r"pip install (.*)", job)
    assert "hypothesis" in install.split()


@pytest.mark.skipif(not WORKFLOW.exists(), reason="no workflow in this checkout")
def test_the_world_tests_run_under_the_leak_flags():
    """``tests/test_world.py`` boots a loopback cluster from a world and
    refuses others before a socket opens: chaos-smoke runs it with a
    leaked socket or an unraisable exception an error."""
    steps = re.split(r"(?m)^      - name: ", jobs()["chaos-smoke"])
    (strict,) = [s for s in steps if "tests/test_world.py" in s]
    assert "python -X dev -m pytest" in strict
    assert "-W error::ResourceWarning" in strict
    assert "-W error::pytest.PytestUnraisableExceptionWarning" in strict


@pytest.mark.skipif(not WORKFLOW.exists(), reason="no workflow in this checkout")
def test_the_discovery_memo_differential_runs_with_every_warning_an_error():
    """The stateful differential between a long-lived index, a fresh one
    and the brute-force oracle, and the availability shortlist's
    property, run in a ``-X dev -W error`` step of a job that installs
    hypothesis: a warning out of numpy or hypothesis on that path (a NaN
    or an overflow in the shortlist's floor) is a failure, not a line in
    a log."""
    home = ROOT / "tests" / "test_discovery_memo.py"
    shortlist = ROOT / "tests" / "test_discovery_exactness.py"
    assert "RuleBasedStateMachine" in home.read_text() and imports_hypothesis(home)
    assert "def test_the_shortlisted_top_n_is_" in shortlist.read_text()
    assert imports_hypothesis(shortlist)
    (job,) = [job for job in jobs().values() if f"tests/{home.name}" in job]
    steps = re.split(r"(?m)^      - name: ", job)
    command = f"python -X dev -W error -m pytest -x -q tests/{home.name} tests/{shortlist.name}"
    assert [s for s in steps if command in s]
    (install,) = re.findall(r"pip install (.*)", job)
    assert {"numpy", "pytest", "hypothesis"} <= set(install.split())


@pytest.mark.skipif(not WORKFLOW.exists(), reason="no workflow in this checkout")
def test_controlplane_smoke_checks_that_the_registry_is_stored_once():
    """The sim parity step of controlplane-smoke runs the stored-once
    test beside the oracle: one leaf per node, the registry a view of
    the index, the slotted messages pickled and deep-copied (on 3.12;
    the ``test`` matrix runs it on every other Python)."""
    steps = re.split(r"(?m)^      - name: ", jobs()["controlplane-smoke"])
    (parity,) = [s for s in steps if s.startswith("Sim parity + sharding + replication tests")]
    assert "python -m pytest -x -q" in parity
    assert "tests/test_discovery_oracle.py" in parity
    assert "tests/test_registry_stored_once.py" in parity
    assert (ROOT / "tests" / "test_registry_stored_once.py").exists()


@pytest.mark.skipif(not WORKFLOW.exists(), reason="no workflow in this checkout")
def test_controlplane_smoke_gates_the_sweep_on_invariant_violations():
    """The 1x1 ``controlplane_chaos`` cell reported a violation on every
    seed for as long as nothing looked: one step sweeps the default grid
    and fails on any non-zero ``invariant_violations`` (on the default
    ``--workers 1``, which is in-process). The job calls the canonical
    spelling of the chaos run, and the alias exactly once."""
    job = jobs()["controlplane-smoke"]
    sweep = (
        "python -m repro sweep run --experiment controlplane_chaos --seeds 1 \\\n"
        '            --store "$store"'
    )
    assert sweep in job
    (step,) = [s for s in re.split(r"(?m)^      - name: ", job) if sweep in s]
    assert 'r["metrics"]["invariant_violations"] != 0' in step
    assert "assert not red" in step
    assert "-m repro chaos --plan controlplane" in job
    assert len(re.findall(r"-m repro controlplane\b", job)) == 1
    hunt = jobs()["chaos-hunt-smoke"]
    assert "-m repro chaos --plan controlplane" in hunt
    assert not re.search(r"-m repro controlplane\b", hunt)


@pytest.mark.skipif(not WORKFLOW.exists(), reason="no workflow in this checkout")
def test_sweep_platform_smoke_drills_the_process_platform():
    """The kill drill, its resume and the ``sweep-selftest`` check each
    run with ``--workers 2`` (one forked child per run), and the trace
    step looks for the scheduler's retry of the killed run. No step
    names a platform: ``--workers`` is the only switch there is."""
    job = jobs()["sweep-platform-smoke"]
    steps = re.split(r"(?m)^      - name: ", job)
    (drill,) = [s for s in steps if "--limit 2" in s]
    (resume,) = [s for s in steps if 'grep "executed=2 skipped(cached)=2"' in s]
    (check,) = [s for s in steps if "--tag sweep-selftest --check" in s]
    for step in (drill, resume, check):
        assert "python -m repro sweep run --experiment selftest" in step
        assert "--workers 2" in step
    assert "--param crash_marker=smoke-artifacts/crash.marker" in drill
    assert "--trace-out smoke-artifacts/trace_interrupted.jsonl" in drill
    (trace,) = [s for s in steps if "trace_interrupted.jsonl" in s and s is not drill]
    assert "grep '\"sweep_run_retried\"' smoke-artifacts/trace_interrupted.jsonl" in trace
    assert not re.search(r"--platform|--serial", WORKFLOW.read_text())


@pytest.mark.skipif(not WORKFLOW.exists(), reason="no workflow in this checkout")
def test_the_live_client_tests_run_under_the_leak_flags():
    """The live client runs each exchange as a task it tracks and drops
    the links it prunes: chaos-smoke runs its tests with a leaked socket
    or an unraisable exception an error."""
    steps = re.split(r"(?m)^      - name: ", jobs()["chaos-smoke"])
    for name in ("tests/test_runtime.py", "tests/test_protocol_parity.py"):
        (strict,) = [s for s in steps if name in s]
        assert "python -X dev -m pytest" in strict
        assert "-W error::ResourceWarning" in strict
        assert "-W error::pytest.PytestUnraisableExceptionWarning" in strict


@pytest.mark.skipif(not WORKFLOW.exists(), reason="no workflow in this checkout")
def test_the_live_runtime_tests_run_under_the_leak_flags_on_every_python():
    """chaos-smoke and controlplane-smoke run the live runtime's tests
    under the leak flags on 3.12 only; the ``test`` matrix job runs them
    that way on 3.10 and 3.11 as well, a leaked task or socket an
    error. The hostile-peer tests run under the flags here only."""
    steps = re.split(r"(?m)^      - name: ", jobs()["test"])
    names = (
        "tests/test_live_bringup.py", "tests/test_controlplane_live.py",
        "tests/test_runtime.py", "tests/test_runtime_hardening.py",
        "tests/test_runtime_protocol_edge.py", "tests/test_wire_hostile_peers.py",
    )
    (strict,) = [s for s in steps if all(name in s for name in names)]
    assert "python -X dev -W error::ResourceWarning -m pytest -x -q" in strict
    assert "-W error::pytest.PytestUnraisableExceptionWarning" in strict
