"""CI jobs install what the tests they run import.

The ``test`` matrix job ran the whole tier-1 suite with ``numpy pytest``
installed, while a good dozen tier-1 modules import ``hypothesis`` at
module top: ``pytest -x`` stopped at collection. And ``metro-smoke``
listed its test files by name, so a new ``tests/test_metro_*.py`` was
silently not run there. Read straight off the workflow text (no YAML
parser in the image that job builds).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, List, Set

import pytest

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
def test_live_bringup_runs_under_the_leak_flags_and_bringup_has_no_timer():
    """The bring-up tests start and stop clusters, routers and an edge
    facing a refused port: chaos-smoke runs them with a leaked socket or
    an unraisable exception an error. A step beside the ``wait_for``
    grep fails on any ``asyncio.sleep`` back in the launcher."""
    steps = re.split(r"(?m)^      - name: ", jobs()["chaos-smoke"])
    (strict,) = [s for s in steps if "tests/test_live_bringup.py" in s]
    assert "python -X dev -m pytest" in strict
    assert "-W error::ResourceWarning" in strict
    assert "-W error::pytest.PytestUnraisableExceptionWarning" in strict
    (grep,) = [s for s in steps if "src/repro/runtime/launcher.py" in s]
    assert "run: \"! grep -n 'asyncio.sleep' src/repro/runtime/launcher.py\"" in grep
    assert steps.index(grep) == 1 + next(
        i for i, s in enumerate(steps) if "wait_for|asyncio" in s
    )
    assert "asyncio.sleep" not in (ROOT / "src/repro/runtime/launcher.py").read_text()


KERNEL_PLUMBING = "SimClock|EventQueue|EventPool|push_pooled|advance_to"


@pytest.mark.skipif(not WORKFLOW.exists(), reason="no workflow in this checkout")
def test_the_kernel_keeps_one_clock_and_one_heap():
    """The simulator owns its clock and its heap: chaos-smoke, right after
    the bring-up grep, fails on any of the deleted kernel classes or
    their methods back under ``src/repro``."""
    steps = re.split(r"(?m)^      - name: ", jobs()["chaos-smoke"])
    (grep,) = [s for s in steps if KERNEL_PLUMBING in s]
    assert grep.startswith("The per-event kernel keeps one clock and one heap\n")
    assert f"run: \"! grep -rnE '{KERNEL_PLUMBING}' src/repro\"" in grep
    assert steps.index(grep) == 1 + next(
        i for i, s in enumerate(steps) if "src/repro/runtime/launcher.py" in s
    )
    found = [
        str(path.relative_to(ROOT))
        for path in (ROOT / "src" / "repro").rglob("*.py")
        if re.search(KERNEL_PLUMBING, path.read_text())
    ]
    assert found == []


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
    and the brute-force oracle runs in a ``-X dev -W error`` step of a
    job that installs hypothesis: a warning out of numpy or hypothesis
    on that path is a failure, not a line in a log."""
    home = ROOT / "tests" / "test_discovery_memo.py"
    assert "RuleBasedStateMachine" in home.read_text() and imports_hypothesis(home)
    (job,) = [job for job in jobs().values() if f"tests/{home.name}" in job]
    steps = re.split(r"(?m)^      - name: ", job)
    assert [s for s in steps if f"python -X dev -W error -m pytest -x -q tests/{home.name}" in s]
    (install,) = re.findall(r"pip install (.*)", job)
    assert {"numpy", "pytest", "hypothesis"} <= set(install.split())


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
