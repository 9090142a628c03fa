"""Command-line interface: regenerate any paper artifact from a shell.

Usage::

    python -m repro list                 # all available experiments
    python -m repro fig5 --seed 7        # Fig. 5 with a custom seed
    python -m repro fig9 --top-n 1 2 3   # restrict the TopN sweep
    python -m repro table3
    python -m repro qos --qos-ms 80
    python -m repro chaos --run sim --seed 0 --out chaos.jsonl
    python -m repro chaos --plan controlplane --shards 2 --replicas 2
    python -m repro controlplane         # alias: chaos --plan controlplane
    python -m repro chaos hunt --scenario controlplane --config failure_detection_ms=4000 --out repro.json
    python -m repro chaos replay repro.json
    python -m repro chaos check chaos.jsonl
    python -m repro sweep run --experiment fig9 --seeds 5 --workers 4
    python -m repro sweep status --store .sweeps/fig9
    python -m repro sweep report --store .sweeps/fig9

The paper-artifact commands are one handler over
:data:`repro.experiments.ARTIFACTS`: each prints the table its result
type defines, the same one the benchmark harness prints and, swept over
seeds, the one EXPERIMENTS.md renders; seeds make runs reproducible.
This is deliberately thin plumbing — anything the CLI prints, library
users can compute programmatically.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from typing import Dict, List, Optional, Sequence

from repro.core.config import SystemConfig
from repro.experiments import ARTIFACTS
from repro.metrics.report import format_table, render


def cmd_artifact(args: argparse.Namespace) -> None:
    artifact = ARTIFACTS[args.command]
    result = artifact.run(
        SystemConfig(seed=args.seed),
        **{keyword: getattr(args, keyword) for _, keyword, _ in artifact.options},
    )
    tables = [artifact.table] + [
        table for name, _, table in artifact.switches if getattr(args, name)
    ]
    for table in tables:
        print(render(table(result)))


def _write_trace(events: Sequence[object], path: str) -> None:
    from repro.obs.tracer import JsonlSink

    sink = JsonlSink(path)
    try:
        for event in events:
            sink.write(event)
    finally:
        sink.close()
    print(f"trace: {len(events)} events -> {path}")


def _print_violations(violations: Sequence[object]) -> None:
    """Violations go to stderr: a failing chaos exit names its reasons."""
    print(f"{len(violations)} invariant violation(s):", file=sys.stderr)
    for violation in violations:
        print(f"  {violation}", file=sys.stderr)


def _parse_config_overrides(pairs: Sequence[str]) -> Dict[str, object]:
    overrides: Dict[str, object] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--config expects KEY=VALUE, got {pair!r}")
        key, raw = pair.split("=", 1)
        if raw.lower() in ("true", "false"):
            overrides[key] = raw.lower() == "true"
        else:
            overrides[key] = _parse_param_value(raw)
    return overrides


def cmd_group(args: argparse.Namespace) -> Optional[int]:
    """``chaos``, ``sweep``, ``bench`` and ``policy`` are groups: each
    (sub)parser names its own handler."""
    return args.handler(args)


def _cmd_chaos_run(args: argparse.Namespace) -> int:
    from repro.faults.scenarios import SCENARIOS, run_chaos

    try:
        report, events = run_chaos(
            SCENARIOS[args.plan](args.shards, args.replicas),
            backend=args.run,
            seed=args.seed,
            horizon_ms=args.horizon_ms,
        )
    except ValueError as refused:  # a plan the backend cannot honour
        raise SystemExit(str(refused)) from None
    if args.out:
        _write_trace(events, args.out)
    for line in report.summary_lines():
        print(line)
    if report.violations:
        _print_violations(report.violations)
    if not report.ok or report.violations:
        return 1
    return 0


def _cmd_chaos_hunt(args: argparse.Namespace) -> int:
    from repro.faults.search import HuntConfig, hunt
    from repro.obs.tracer import JsonlSink, Tracer

    config = HuntConfig(
        scenario=args.scenario,
        attempts=args.attempts,
        horizon_ms=args.horizon_ms,
        shards=args.shards,
        replicas=args.replicas,
        max_rules=args.max_rules,
        config_overrides=tuple(
            sorted(_parse_config_overrides(args.config or []).items())
        ),
    )
    sink = JsonlSink(args.trace_out) if args.trace_out else None
    tracer = Tracer(sink=sink)
    try:
        result = hunt(config, hunt_seed=args.seed, tracer=tracer)
    finally:
        if sink is not None:
            sink.close()
    for line in result.summary_lines():
        print(line)
    if not result.found:
        print("no violation found", file=sys.stderr)
        return 1
    if args.out and result.artifact is not None:
        result.artifact.save(args.out)
        print(f"repro artifact -> {args.out}")
    return 0


def _cmd_chaos_replay(args: argparse.Namespace) -> int:
    from repro.faults.search import ReproArtifact, replay_artifact

    artifact = ReproArtifact.load(args.artifact)
    print(f"replaying {args.artifact}: scenario={artifact.scenario} "
          f"seed={artifact.seed} rules={len(artifact.plan)}")
    for line in artifact.plan.describe():
        print("  " + line)
    report, events, reproduced = replay_artifact(artifact)
    if args.out:
        _write_trace(events, args.out)
    print(f"expected: {artifact.violation}")
    if report.violations:
        _print_violations(report.violations)
    if reproduced:
        print("reproduced: identical violation")
        return 0
    print("NOT reproduced", file=sys.stderr)
    return 1


def _cmd_chaos_check(args: argparse.Namespace) -> int:
    from repro.obs.analyze import load_trace
    from repro.verify import check_events

    events = load_trace(args.trace)
    expect_promotion = {"auto": None, "yes": True, "no": False}[
        args.expect_promotion
    ]
    violations = check_events(
        events,
        time_scale=args.time_scale,
        expect_promotion=expect_promotion,
    )
    print(f"{args.trace}: {len(events)} events, "
          f"{len(violations)} violation(s)")
    if violations:
        _print_violations(violations)
        return 1
    print("all streaming invariants hold")
    return 0


def cmd_trace(args: argparse.Namespace) -> None:
    from repro.obs.analyze import TraceAnalyzer, load_trace, validate_event_order

    if args.summary is not None:
        events = load_trace(args.summary)
        source = args.summary
    else:
        if args.run == "live":
            from repro.obs.scenarios import run_live_trace_scenario_sync

            events = run_live_trace_scenario_sync(sink_path=args.out)
        else:
            from repro.obs.scenarios import run_sim_trace_scenario

            events = run_sim_trace_scenario(seed=args.seed, sink_path=args.out)
        source = args.out
        print(f"trace: {len(events)} events from {args.run} run -> {args.out}")

    analyzer = TraceAnalyzer(events)
    print(
        format_table(
            ["event type", "count"],
            [[kind, count] for kind, count in analyzer.event_type_counts().items()],
            title=f"Trace summary — {source}",
        )
    )
    breakdown = analyzer.phase_breakdown()
    rows = [entry.row(user) for user, entry in breakdown.items()]
    rows.append(analyzer.total_breakdown().row("(all)"))
    print(
        format_table(
            ["user", "frames", "lost", "rtt ms", "queue ms", "process ms",
             "e2e ms"],
            rows,
            title="Latency-phase breakdown (means over completed frames)",
        )
    )
    decisions = analyzer.policy_decision_summary()
    if decisions:
        print(
            format_table(
                ["winner", "wins", "mean margin ms"],
                [[node, int(stats["wins"]), f"{stats['mean_margin_ms']:.2f}"]
                 for node, stats in decisions.items()],
                title="Policy decisions (ranked-first counts)",
            )
        )
    histogram = analyzer.failover_gap_histogram(bin_ms=args.bin_ms)
    if histogram:
        print(
            format_table(
                ["gap bin (ms)", "recoveries"],
                [[f"{start:.0f}-{start + args.bin_ms:.0f}", count]
                 for start, count in histogram],
                title="Failover recovery gaps (node_fail -> re-serve)",
            )
        )
    if args.timeline:
        print(f"timeline for {args.timeline}:")
        for event in analyzer.per_user_timeline(args.timeline, limit=args.limit):
            fields = {
                k: v for k, v in event.items() if k not in ("type", "t_ms")
            }
            print(f"  {event['t_ms']:10.2f} ms  {event['type']:<20s} {fields}")
    errors = analyzer.reconciliation_errors()
    violations = validate_event_order(events)
    for problem in [*errors, *violations]:
        print(f"WARNING: {problem}")
    if not errors and not violations:
        print("phase reconciliation + event ordering: OK")


# ----------------------------------------------------------------------
# Sweep engine (repro.sweep)
# ----------------------------------------------------------------------
def _parse_param_value(raw: str):
    """``--param`` / ``--config`` value coercion: int, then float, then
    bare string."""
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


def _parse_grid(pairs: Optional[List[str]]) -> Optional[dict]:
    if not pairs:
        return None
    grid = {}
    for pair in pairs:
        name, sep, values = pair.partition("=")
        if not sep or not name or not values:
            raise SystemExit(
                f"--param must look like name=v1,v2,...: got {pair!r}"
            )
        grid[name] = [_parse_param_value(v) for v in values.split(",")]
    return grid


def _sweep_store(args: argparse.Namespace, experiment: str):
    from pathlib import Path

    from repro.sweep import RunStore

    root = args.store or str(Path(".sweeps") / experiment)
    return RunStore(root)


def cmd_sweep_run(args: argparse.Namespace) -> None:
    from repro.obs import Tracer
    from repro.sweep import (
        SweepInterrupted,
        SweepSpec,
        get_experiment,
        run_sweep,
    )

    experiment = get_experiment(args.experiment)
    grid = _parse_grid(args.param) or dict(experiment.default_grid)
    if getattr(args, "policy", None):
        from repro.policy import get as get_policy

        names = [p.strip() for p in args.policy.split(",") if p.strip()]
        for name in names:
            get_policy(name)  # fail fast on unknown policies
        grid["policy"] = names
    spec = SweepSpec.build(
        experiment.name,
        grid,
        n_seeds=args.seeds,
        base_seed=args.base_seed,
        salt=args.salt,
    )
    store = _sweep_store(args, experiment.name)
    tracer = Tracer(sink=args.trace_out) if args.trace_out else None
    where = "serial" if args.workers == 1 else f"{args.workers} workers"
    print(
        f"sweep {experiment.name}: {spec.total_runs()} runs "
        f"({where}) -> {store.root}"
    )
    try:
        result = run_sweep(
            spec,
            store,
            workers=args.workers,
            timeout_s=args.timeout_s,
            retries=args.retries,
            limit=args.limit,
            tracer=tracer,
        )
    except SweepInterrupted as interrupted:
        print(f"sweep interrupted by --limit: {interrupted}")
        print(f"resume with the same command; store: {store.root}")
        return
    finally:
        if tracer is not None:
            tracer.close()
    print(
        f"executed={result.executed} skipped(cached)={result.skipped} "
        f"failed={result.failed} retried={result.retried} "
        f"wall={result.wall_s:.2f}s"
    )
    _print_sweep_report(store, metric=None)


def cmd_sweep_status(args: argparse.Namespace) -> None:
    from repro.sweep import RunStore

    store = RunStore(args.store)
    spec = store.load_manifest()
    if spec is None:
        print(f"no sweep manifest in {store.root}")
        return
    records = {r.run_key: r for r in store.records()}
    runs = spec.expand()
    done = sum(1 for r in runs if records.get(r.run_key) and records[r.run_key].ok)
    failed = [
        records[r.run_key]
        for r in runs
        if records.get(r.run_key) and not records[r.run_key].ok
    ]
    print(f"sweep: {spec.experiment}  (store: {store.root})")
    print(f"completed: {done}/{len(runs)}")
    print(f"failed: {len(failed)}")
    print(f"pending: {len(runs) - done - len(failed)}")
    present = [records[r.run_key] for r in runs if r.run_key in records]
    by_status: Dict[str, int] = {}
    for record in present:
        by_status[record.status] = by_status.get(record.status, 0) + 1
    counts = " ".join(f"{s}={n}" for s, n in sorted(by_status.items()))
    wall = sum(r.duration_s for r in present)
    attempts = sum(r.attempts for r in present)
    print(
        f"summary: {counts or 'no records'} | attempts={attempts} "
        f"run-wall={wall:.2f}s"
    )
    if failed:
        print(
            format_table(
                ["run key", "params", "seed", "status", "error"],
                [
                    [f.run_key, str(f.params), f.seed_index, f.status,
                     (f.error or "")[:60]]
                    for f in failed
                ],
                title="failed runs (re-executed on next sweep run)",
            )
        )


def _print_sweep_report(store, metric: Optional[str]) -> None:
    from repro.sweep import aggregate_records, comparison_table, metric_names

    aggregates = aggregate_records(store.records())
    if not aggregates:
        print("no successful runs recorded yet")
        return
    names = [metric] if metric else metric_names(aggregates)
    for name in names:
        headers, rows = comparison_table(aggregates, name)
        if rows:
            print(format_table(headers, rows, title=f"metric: {name}"))


def cmd_sweep_report(args: argparse.Namespace) -> None:
    from repro.sweep import (
        RunStore,
        SectionCheckFailed,
        render_store_markdown,
        update_tagged_section,
    )

    store = RunStore(args.store)
    if args.update:
        body = render_store_markdown(store)
        try:
            changed = update_tagged_section(
                args.update, args.tag, body, check=args.check
            )
        except SectionCheckFailed as stale:
            raise SystemExit(f"report check failed: {stale}") from None
        if args.check:
            print(f"report section {args.tag!r} in {args.update} is current")
        elif changed:
            print(f"updated section {args.tag!r} in {args.update}")
        else:
            print(f"section {args.tag!r} in {args.update} already current")
    elif args.markdown:
        print(render_store_markdown(store), end="")
    else:
        _print_sweep_report(store, metric=args.metric)
    if args.jsonl:
        count = store.export_jsonl(args.jsonl)
        print(f"exported {count} run records -> {args.jsonl}")


def cmd_sweep_list(args: argparse.Namespace) -> None:
    from repro.sweep import experiment_names, get_experiment

    rows = []
    for name in experiment_names():
        exp = get_experiment(name)
        grid = ", ".join(
            f"{k}={list(v)}" for k, v in sorted(exp.default_grid.items())
        )
        rows.append([name, exp.description, grid])
    print(
        format_table(
            ["experiment", "description", "default grid"],
            rows,
            title="sweepable experiments",
        )
    )
    print("\nparameters (pass as --param NAME=V1,V2,...):")
    for name in experiment_names():
        exp = get_experiment(name)
        print(f"  {name}:")
        if not exp.param_help:
            print("    (no documented parameters)")
            continue
        width = max(len(p) for p in exp.param_help)
        for param in sorted(exp.param_help):
            print(f"    {param.ljust(width)}  {exp.param_help[param]}")


# ----------------------------------------------------------------------
# Perf benchmarks (benchmarks/perf via repro.metrics.bench)
# ----------------------------------------------------------------------
def cmd_bench_list(args: argparse.Namespace) -> None:
    from repro.metrics.bench import PERF_BENCHMARKS

    print(
        format_table(
            ["name", "script"],
            [[name, script] for name, script in sorted(PERF_BENCHMARKS.items())],
            title="Registered perf benchmarks (benchmarks/perf)",
        )
    )


def cmd_bench_run(args: argparse.Namespace) -> None:
    import tempfile
    from pathlib import Path

    from repro.metrics.bench import perf_bench_dir, run_perf_bench

    extra = list(args.bench_args or [])
    if extra and extra[0] == "--":
        extra = extra[1:]
    if "--output" not in extra:
        if args.update_baseline:
            baseline = perf_bench_dir().parents[1] / "BENCH_perf.json"
            extra += ["--output", str(baseline)]
        else:
            scratch = Path(tempfile.gettempdir()) / "repro_bench_scratch.json"
            extra += ["--output", str(scratch)]
            print(f"(dry run: writing {scratch}; pass --update-baseline "
                  f"to record into the repo BENCH_perf.json)")
    rc = run_perf_bench(args.bench_name, extra)
    if rc != 0:
        raise SystemExit(rc)


# ----------------------------------------------------------------------
# Selection policies (repro.policy)
# ----------------------------------------------------------------------
def cmd_policy_list(args: argparse.Namespace) -> None:
    from repro.policy import describe, policy_names

    print(
        format_table(
            ["name", "description"],
            [[name, describe(name)] for name in policy_names()],
            title="Registered selection policies",
        )
    )


COMMANDS = {
    **{name: (cmd_artifact, a.help) for name, a in ARTIFACTS.items()},
    "chaos": (cmd_group, "seeded fault-injection run with recovery checks"),
    "controlplane": (cmd_group,
                     "alias of `chaos --plan controlplane`: kill shard "
                     "primaries, check promotion + recovery"),
    "trace": (cmd_trace, "capture/summarize a structured trace"),
    "sweep": (cmd_group, "parallel, resumable experiment sweeps"),
    "policy": (cmd_group, "inspect the selection-policy registry"),
    "bench": (cmd_group, "run the registered perf benchmarks"),
}


def _add_bench_subparsers(parser: argparse.ArgumentParser) -> None:
    sub = parser.add_subparsers(dest="bench_command", required=True)

    run = sub.add_parser("run", help="run one registered benchmark")
    run.set_defaults(handler=cmd_bench_run)
    run.add_argument("bench_name", metavar="NAME",
                     help="benchmark name (see `bench list`)")
    run.add_argument(
        "--update-baseline", action="store_true",
        help="record into the repo-root BENCH_perf.json "
             "(default: a scratch file, so baselines never move by accident)",
    )
    run.add_argument(
        "bench_args", nargs=argparse.REMAINDER, metavar="ARGS",
        help="extra arguments passed through to the benchmark script "
             "(prefix with `--`)",
    )

    sub.add_parser("list", help="list registered perf benchmarks").set_defaults(
        handler=cmd_bench_list
    )


def _add_sweep_subparsers(parser: argparse.ArgumentParser) -> None:
    sub = parser.add_subparsers(dest="sweep_command", required=True)

    run = sub.add_parser("run", help="execute (or resume) a sweep")
    run.set_defaults(handler=cmd_sweep_run)
    run.add_argument("--experiment", required=True,
                     help="registered experiment name (see `sweep list`)")
    run.add_argument(
        "--param", action="append", default=None, metavar="NAME=V1,V2,...",
        help="one grid axis; repeatable. Default: the experiment's own grid",
    )
    run.add_argument(
        "--policy", default=None, metavar="NAME[,NAME...]",
        help="override the grid's policy axis with these registry names "
             "(see `repro policy list`)",
    )
    run.add_argument("--seeds", type=int, default=5,
                     help="replicates per parameter cell")
    run.add_argument("--base-seed", type=int, default=42,
                     help="sweep-level seed replicates derive from")
    run.add_argument("--salt", default="",
                     help="code-version salt mixed into every run key")
    run.add_argument("--store", default=None, metavar="DIR",
                     help="run-store directory (default .sweeps/<experiment>)")
    run.add_argument("--workers", type=int, default=1,
                     help="runs at once: 1 = in this process, in order; "
                          "N > 1 = one forked child per run, N alive")
    run.add_argument("--timeout-s", type=float, default=None,
                     help="coarse per-run wall-clock bound")
    run.add_argument("--retries", type=int, default=1,
                     help="retries after a run's process dies / times out")
    run.add_argument("--limit", type=int, default=None,
                     help="execute at most N runs, then stop (resumable)")
    run.add_argument("--trace-out", default=None, metavar="PATH",
                     help="JSONL sink for sweep lifecycle trace events")

    status = sub.add_parser("status", help="completed/failed/pending counts")
    status.set_defaults(handler=cmd_sweep_status)
    status.add_argument("--store", required=True, metavar="DIR")

    report = sub.add_parser("report", help="cross-seed aggregate tables")
    report.set_defaults(handler=cmd_sweep_report)
    report.add_argument("--store", required=True, metavar="DIR")
    report.add_argument("--metric", default=None,
                        help="report one metric (default: all)")
    report.add_argument("--jsonl", default=None, metavar="PATH",
                        help="also export merged run records as JSONL")
    report.add_argument(
        "--markdown", action="store_true",
        help="emit Markdown tables (mean ± ci95 per cell) instead of "
             "the ASCII report",
    )
    report.add_argument(
        "--update", default=None, metavar="DOC",
        help="splice the Markdown report into DOC between "
             "<!-- sweep-report:TAG --> markers (atomic write)",
    )
    report.add_argument(
        "--tag", default="all", metavar="TAG",
        help="tagged-section name used with --update (default: all)",
    )
    report.add_argument(
        "--check", action="store_true",
        help="with --update: verify the section is already "
             "byte-identical; exit non-zero if stale (CI gate)",
    )

    sub.add_parser("list", help="list sweepable experiments").set_defaults(
        handler=cmd_sweep_list
    )


def _add_chaos_arguments(parser: argparse.ArgumentParser, *, plan: str) -> None:
    """``repro chaos`` and its alias ``repro controlplane`` (which only
    defaults ``--plan`` differently)."""
    from repro.faults.scenarios import SCENARIOS

    # Single-run flags live on the parent parser; the hunt / replay /
    # check subcommands are optional, so a bare `repro chaos --seed 0`
    # still means "run the canonical plan once".
    parser.set_defaults(handler=_cmd_chaos_run)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--run", choices=("sim", "live"), default="sim",
        help="which backend to drive through the plan",
    )
    parser.add_argument(
        "--plan", choices=tuple(SCENARIOS), default=plan,
        help="which scenario's schedule to replay: the all-families plan "
             "or the shard-targeted control-plane plan (sim only)",
    )
    parser.add_argument(
        "--shards", type=int, default=2,
        help="control-plane shard count (controlplane plan)",
    )
    parser.add_argument(
        "--replicas", type=int, default=2,
        help="replicas per shard (controlplane plan; 2+ exercises promotion)",
    )
    parser.add_argument(
        "--horizon-ms", type=float, default=20_000.0,
        help="scenario length in application milliseconds",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="also dump the full trace as JSONL",
    )
    sub = parser.add_subparsers(dest="chaos_command", required=False)

    hunt = sub.add_parser(
        "hunt",
        help="search seeded fault schedules for invariant violations "
             "and shrink the first find to a minimal reproducer",
    )
    hunt.set_defaults(handler=_cmd_chaos_hunt)
    hunt.add_argument("--seed", type=int, default=0, help="hunt seed")
    hunt.add_argument(
        "--scenario", choices=tuple(SCENARIOS),
        default="canonical", help="scenario family to replay plans on",
    )
    hunt.add_argument("--attempts", type=int, default=25,
                      help="max schedules to sample before giving up")
    hunt.add_argument("--horizon-ms", type=float, default=20_000.0)
    hunt.add_argument("--shards", type=int, default=2,
                      help="control-plane shards (controlplane scenario)")
    hunt.add_argument("--replicas", type=int, default=2,
                      help="replicas per shard (controlplane scenario)")
    hunt.add_argument("--max-rules", type=int, default=5,
                      help="max rules per sampled schedule")
    hunt.add_argument(
        "--config", action="append", default=None, metavar="KEY=VALUE",
        help="SystemConfig field override, repeatable (e.g. "
             "failure_detection_ms=4000) — hunt against a weakened config",
    )
    hunt.add_argument("--out", default=None, metavar="PATH",
                      help="write the shrunk repro artifact as JSON")
    hunt.add_argument("--trace-out", default=None, metavar="PATH",
                      help="JSONL sink for hunt_attempt/shrink_step events")

    replay = sub.add_parser(
        "replay", help="re-execute a repro artifact bit-identically"
    )
    replay.set_defaults(handler=_cmd_chaos_replay)
    replay.add_argument("artifact", metavar="ARTIFACT.json",
                        help="artifact written by `chaos hunt --out`")
    replay.add_argument("--out", default=None, metavar="PATH",
                        help="also dump the replay trace as JSONL")

    check = sub.add_parser(
        "check", help="run the streaming invariant suite over a trace JSONL"
    )
    check.set_defaults(handler=_cmd_chaos_check)
    check.add_argument("trace", metavar="TRACE.jsonl",
                       help="obs trace from either backend")
    check.add_argument(
        "--time-scale", type=float, default=1.0,
        help="budget scale for wall-clock traces: 1000/plan_ms_per_s "
             "(0.2 for the live chaos default)",
    )
    check.add_argument(
        "--expect-promotion", choices=("auto", "yes", "no"), default="auto",
        help="require manager_promote after shard outages (auto: only "
             "if the trace contains any promotion)",
    )


def _add_policy_subparsers(parser: argparse.ArgumentParser) -> None:
    sub = parser.add_subparsers(dest="policy_command", required=True)
    sub.add_parser("list", help="list registered selection policies").set_defaults(
        handler=cmd_policy_list
    )


def _add_trace_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--run", choices=("sim", "live"), default="sim",
        help="which backend to capture from",
    )
    parser.add_argument(
        "--out", default="trace.jsonl",
        help="JSONL sink path for a fresh capture",
    )
    parser.add_argument(
        "--summary", default=None, metavar="PATH",
        help="summarize an existing JSONL trace instead of running",
    )
    parser.add_argument(
        "--timeline", default=None, metavar="USER",
        help="also print one user's event timeline",
    )
    parser.add_argument("--limit", type=int, default=40,
                        help="max timeline rows")
    parser.add_argument("--bin-ms", type=float, default=100.0,
                        help="failover-gap histogram bin width")


#: Commands that are not paper artifacts bring their own arguments.
_ARGUMENTS = {
    "chaos": partial(_add_chaos_arguments, plan="canonical"),
    "controlplane": partial(_add_chaos_arguments, plan="controlplane"),
    "trace": _add_trace_arguments,
    "sweep": _add_sweep_subparsers,
    "policy": _add_policy_subparsers,
    "bench": _add_bench_subparsers,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's tables and figures.",
    )
    subparsers = parser.add_subparsers(dest="command")

    subparsers.add_parser("list", help="list available experiments")

    for name, (_, help_text) in COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        if name in _ARGUMENTS:
            _ARGUMENTS[name](sub)
            continue
        sub.add_argument("--seed", type=int, default=42)
        for flag, keyword, kwargs in ARTIFACTS[name].options:
            sub.add_argument(flag, dest=keyword, **kwargs)
        for switch, help_text, _ in ARTIFACTS[name].switches:
            sub.add_argument(f"--{switch}", action="store_true", help=help_text)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    if args.command == "list":
        rows: List[List[str]] = [[name, help_] for name, (_, help_) in COMMANDS.items()]
        print(format_table(["command", "regenerates"], rows))
        return 0
    handler, _ = COMMANDS[args.command]
    # Handlers may return an exit code; bare `None` means success.
    return int(handler(args) or 0)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
