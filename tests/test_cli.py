"""Tests for the command-line interface."""

import json
import re
from pathlib import Path

import pytest

from repro.cli import COMMANDS, build_parser, main

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_no_command_prints_help_and_exits_2(capsys):
    assert main([]) == 2
    assert "Regenerate" in capsys.readouterr().out


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in COMMANDS:
        assert name in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_table2_command(capsys):
    assert main(["table2"]) == 0
    out = capsys.readouterr().out
    assert "V1" in out and "24.0" in out
    assert "Cloud" in out


def test_fig1_command_with_options(capsys):
    assert main(["fig1", "--seed", "7", "--probes", "2"]) == 0
    out = capsys.readouterr().out
    assert "volunteer" in out and "cloud" in out


def test_fig4_command(capsys):
    assert main(["fig4", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "proactive switch" in out
    assert "re-connect" in out


def test_fig3_command_cdf_flag(capsys):
    assert main(["fig3", "--seed", "7", "--cdf"]) == 0
    out = capsys.readouterr().out
    assert "CDF of" in out
    assert "p50" in out


def test_fig9_command_restricted_topn(capsys):
    assert main(["fig9", "--seed", "5", "--top-n", "1", "2"]) == 0
    out = capsys.readouterr().out
    assert "TopN" in out
    # only the requested rows
    lines = [l for l in out.splitlines() if l.strip().startswith(("1 ", "2 "))]
    assert len(lines) == 2


def test_parser_seed_default():
    parser = build_parser()
    args = parser.parse_args(["fig4"])
    assert args.seed == 42


def test_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    for name in COMMANDS:
        assert name in out, f"{name!r} missing from --help"
    # the two newest subsystems must be advertised explicitly
    assert "sweep" in out and "trace" in out


def test_module_and_console_entry_points_expose_same_commands(capsys):
    """`python -m repro` and the `repro` console script must be the same
    program: the script target in pyproject.toml is repro.cli:main, and
    the parser built from it accepts exactly the COMMANDS set."""
    pyproject = (REPO_ROOT / "pyproject.toml").read_text()
    match = re.search(
        r"^\[project\.scripts\]\s*\nrepro\s*=\s*\"([^\"]+)\"",
        pyproject,
        re.MULTILINE,
    )
    assert match, "pyproject.toml must declare a [project.scripts] repro entry"
    assert match.group(1) == "repro.cli:main"

    main_py = (REPO_ROOT / "src" / "repro" / "__main__.py").read_text()
    assert "from repro.cli import main" in main_py
    assert "sys.exit(main())" in main_py

    parser = build_parser()
    actions = [a for a in parser._subparsers._group_actions][0]
    assert set(actions.choices) == set(COMMANDS) | {"list"}


def test_sweep_cli_roundtrip(tmp_path, capsys):
    store = tmp_path / "store"
    run_args = [
        "sweep", "run", "--experiment", "selftest",
        "--param", "scale=1.0,2.0", "--seeds", "2",
        "--store", str(store), "--serial",
    ]
    assert main(run_args) == 0
    out = capsys.readouterr().out
    assert "executed=4" in out and "failed=0" in out

    # Re-running resumes: everything is cached.
    assert main(run_args) == 0
    out = capsys.readouterr().out
    assert "executed=0" in out and "skipped(cached)=4" in out

    assert main(["sweep", "status", "--store", str(store)]) == 0
    out = capsys.readouterr().out
    assert "completed: 4/4" in out

    jsonl = tmp_path / "runs.jsonl"
    assert main([
        "sweep", "report", "--store", str(store), "--jsonl", str(jsonl),
    ]) == 0
    out = capsys.readouterr().out
    assert "value" in out
    assert len(jsonl.read_text().splitlines()) == 4


def test_sweep_list_names_builtin_experiments(capsys):
    from repro.experiments import ARTIFACTS

    assert main(["sweep", "list"]) == 0
    table = capsys.readouterr().out.split("\nparameters")[0].splitlines()[3:]
    listed = {line.split("|")[0].strip() for line in table}
    builtins = {"chaos_matrix", "policy_matrix", "controlplane_chaos",
                "chaos_hunt", "selftest"}
    # The paper artifacts are listed under their own names only.
    assert listed == set(ARTIFACTS) | builtins


def test_policy_list_command(capsys):
    assert main(["policy", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("lo", "go", "ewma", "reliability", "churn"):
        assert name in out


def test_sweep_run_policy_flag_overrides_grid(tmp_path, capsys):
    store = tmp_path / "store"
    assert main([
        "sweep", "run", "--experiment", "policy_matrix",
        "--policy", "lo,reliability",
        "--param", "churn_rate=2.0", "--param", "fault_family=node_crash",
        "--param", "horizon_ms=20000.0",
        "--seeds", "1", "--store", str(store), "--serial",
    ]) == 0
    out = capsys.readouterr().out
    assert "executed=2" in out and "failed=0" in out
    assert "failover_gap_p95_ms" in out


def test_sweep_run_unknown_policy_fails_fast(tmp_path):
    with pytest.raises(KeyError, match="nope"):
        main([
            "sweep", "run", "--experiment", "policy_matrix",
            "--policy", "nope",
            "--seeds", "1", "--store", str(tmp_path / "s"), "--serial",
        ])


def test_chaos_command_runs_sim_and_dumps_trace(tmp_path, capsys):
    out_path = tmp_path / "chaos.jsonl"
    assert main(["chaos", "--seed", "0", "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "scenario=canonical backend=sim seed=0" in out
    assert "all recovery invariants hold" in out
    assert f"-> {out_path}" in out
    lines = out_path.read_text().splitlines()
    assert lines, "trace dump must not be empty"
    import json

    assert all("type" in json.loads(line) for line in lines[:10])


@pytest.mark.parametrize(
    "arguments",
    [["--seed", "0"], ["--seed", "0", "--shards", "1", "--replicas", "1"]],
)
def test_controlplane_is_an_alias_of_chaos_plan_controlplane(
    arguments, tmp_path, capsys
):
    outputs = []
    for spelling in (["controlplane"], ["chaos", "--plan", "controlplane"]):
        trace = tmp_path / f"{spelling[0]}.jsonl"
        code = main(spelling + arguments + ["--out", str(trace)])
        out = capsys.readouterr().out.replace(str(trace), "TRACE")
        outputs.append((code, out, trace.read_bytes()))
    assert outputs[0] == outputs[1]
    code, out, _ = outputs[0]
    assert code == 0
    assert "scenario=controlplane backend=sim seed=0" in out
    assert "control plane: shard_route=" in out
    assert "all recovery invariants hold" in out
    assert "not a sharded control plane" not in out


def test_both_chaos_spellings_fail_on_a_streaming_violation(monkeypatch, capsys):
    """``report.ok`` only covers the end state; a violation in the trace
    fails the run under either spelling (``repro controlplane`` used to
    exit 0 on it)."""
    from repro.faults import scenarios
    from repro.verify import Violation

    violation = Violation("seq_monotonic", "went backwards", 3, 10.0, "user-01")

    def violating_run(scenario, **kwargs):
        report = scenarios.ChaosReport(scenario.name, kwargs["backend"], kwargs["seed"])
        report.violations = [violation]
        assert report.ok
        return report, []

    monkeypatch.setattr(scenarios, "run_chaos", violating_run)
    for spelling in (["controlplane"], ["chaos", "--plan", "controlplane"], ["chaos"]):
        assert main(spelling + ["--seed", "0"]) == 1
        captured = capsys.readouterr()
        assert "STREAMING VIOLATIONS" in captured.out
        assert "seq_monotonic" in captured.err


def test_chaos_refusal_is_a_clean_exit(capsys):
    with pytest.raises(SystemExit, match="sim backend only"):
        main(["chaos", "--plan", "controlplane", "--run", "live"])


def test_chaos_check_passes_on_canonical_trace(tmp_path, capsys):
    trace = tmp_path / "chaos.jsonl"
    assert main(["chaos", "--seed", "0", "--out", str(trace)]) == 0
    capsys.readouterr()
    assert main(["chaos", "check", str(trace)]) == 0
    assert "all streaming invariants hold" in capsys.readouterr().out


def test_chaos_check_reports_violations_with_exit_1(tmp_path, capsys):
    import json

    from repro.obs.events import FrameStart

    trace = tmp_path / "bad.jsonl"
    events = [
        FrameStart(0.0, "user-01", "edge-a", 2),
        FrameStart(10.0, "user-01", "edge-a", 1),
    ]
    trace.write_text(
        "".join(json.dumps(e.to_dict()) + "\n" for e in events)
    )
    assert main(["chaos", "check", str(trace)]) == 1
    err = capsys.readouterr().err
    assert "invariant violation" in err
    assert "seq_monotonic" in err


def test_chaos_hunt_replay_cycle(tmp_path, capsys):
    artifact = tmp_path / "repro.json"
    code = main([
        "chaos", "hunt",
        "--scenario", "controlplane",
        "--seed", "0",
        "--attempts", "10",
        "--config", "failure_detection_ms=4000",
        "--out", str(artifact),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "found=True" in out
    assert artifact.exists()

    import json

    plan = json.loads(artifact.read_text())["plan"]
    n_rules = sum(len(v) for v in plan.values())
    assert n_rules <= 3

    assert main(["chaos", "replay", str(artifact)]) == 0
    out = capsys.readouterr().out
    assert "reproduced: identical violation" in out


def test_chaos_hunt_not_found_exits_1(tmp_path, capsys):
    code = main([
        "chaos", "hunt", "--seed", "0", "--attempts", "0",
        "--out", str(tmp_path / "repro.json"),
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert "no violation found" in captured.err
    assert not (tmp_path / "repro.json").exists()


def test_trace_summary_of_existing_file(tmp_path, capsys):
    from repro.obs import (
        FrameDone,
        FrameStart,
        JoinAccept,
        JoinAttempt,
        PhaseSpan,
        Tracer,
    )

    path = tmp_path / "trace.jsonl"
    tracer = Tracer(sink=path)
    tracer.emit(JoinAttempt(0.0, "u1", "V1"))
    tracer.emit(JoinAccept(0.0, "u1", "V1"))
    tracer.emit(FrameStart(1.0, "u1", "V1", 1))
    tracer.emit(PhaseSpan(41.0, "u1", 1, "rtt", 10.0))
    tracer.emit(PhaseSpan(41.0, "u1", 1, "queue", 2.0))
    tracer.emit(PhaseSpan(41.0, "u1", 1, "process", 28.0))
    tracer.emit(FrameDone(41.0, "u1", "V1", 1, 1.0, 40.0))
    tracer.close()

    assert main(["trace", "--summary", str(path), "--timeline", "u1"]) == 0
    out = capsys.readouterr().out
    assert "frame_done" in out
    assert "Latency-phase breakdown" in out
    assert "phase reconciliation + event ordering: OK" in out
    assert "timeline for u1" in out


def test_bench_list_names_registered_benchmarks(capsys):
    assert main(["bench", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("discovery", "steady_state", "metro"):
        assert name in out
    assert "bench_metro.py" in out


def test_bench_run_unknown_name_fails():
    with pytest.raises(KeyError, match="unknown benchmark"):
        main(["bench", "run", "nope"])


def test_bench_run_writes_scratch_not_baseline(tmp_path, capsys, monkeypatch):
    out_path = tmp_path / "bench.json"
    assert main([
        "bench", "run", "metro", "--",
        "--nodes", "200", "--users", "500", "--sim-seconds", "1",
        "--skip-compare", "--output", str(out_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "wall-s per simulated second" in out
    payload = json.loads(out_path.read_text())
    assert "metro" in payload
    assert payload["metro"]["wall_s_per_sim_s"] > 0


def test_sweep_cli_subprocess_platform_roundtrip(tmp_path, capsys):
    store = tmp_path / "store"
    run_args = [
        "sweep", "run", "--experiment", "selftest",
        "--param", "scale=1.0,2.0", "--seeds", "2",
        "--store", str(store), "--platform", "subprocess", "--workers", "2",
    ]
    assert main(run_args) == 0
    out = capsys.readouterr().out
    assert "platform=subprocess" in out
    assert "executed=4" in out and "failed=0" in out

    # Resume is platform-independent: the serial rerun is fully cached.
    assert main(run_args[:-4] + ["--serial"]) == 0
    out = capsys.readouterr().out
    assert "executed=0" in out and "skipped(cached)=4" in out


def test_sweep_status_summary_line(tmp_path, capsys):
    store = tmp_path / "store"
    assert main([
        "sweep", "run", "--experiment", "selftest",
        "--param", "scale=1.0", "--param", "fail=0,1", "--seeds", "1",
        "--store", str(store), "--serial",
    ]) == 0
    capsys.readouterr()
    assert main(["sweep", "status", "--store", str(store)]) == 0
    out = capsys.readouterr().out
    assert "completed: 1/2" in out
    assert "summary: failed=1 ok=1" in out
    assert "attempts=2" in out and "run-wall=" in out


def test_sweep_report_markdown_and_tagged_update(tmp_path, capsys):
    store = tmp_path / "store"
    assert main([
        "sweep", "run", "--experiment", "selftest",
        "--param", "scale=1.0,2.0", "--seeds", "2",
        "--store", str(store), "--serial",
    ]) == 0
    capsys.readouterr()

    assert main(["sweep", "report", "--store", str(store), "--markdown"]) == 0
    markdown = capsys.readouterr().out
    assert "#### `selftest`" in markdown and "±" in markdown

    doc = tmp_path / "EXPERIMENTS.md"
    doc.write_text("# Results\n")
    assert main([
        "sweep", "report", "--store", str(store),
        "--update", str(doc), "--tag", "selftest-demo",
    ]) == 0
    capsys.readouterr()
    text = doc.read_text()
    assert "<!-- sweep-report:selftest-demo -->" in text
    assert "#### `selftest`" in text

    # The committed section is current: --check passes...
    assert main([
        "sweep", "report", "--store", str(store),
        "--update", str(doc), "--tag", "selftest-demo", "--check",
    ]) == 0
    capsys.readouterr()

    # ...and a doctored section fails the byte-for-byte gate.
    doc.write_text(text.replace("scale=1.0", "scale=1.5"))
    with pytest.raises(SystemExit, match="report check failed"):
        main([
            "sweep", "report", "--store", str(store),
            "--update", str(doc), "--tag", "selftest-demo", "--check",
        ])


def test_sweep_list_shows_param_schema(capsys):
    assert main(["sweep", "list"]) == 0
    out = capsys.readouterr().out
    assert "controlplane_chaos" in out
    assert "parameters (pass as --param" in out
    for param in ("fault_family", "crash_marker", "shards", "qos_latency_ms",
                  "probes_per_pair"):
        assert param in out
