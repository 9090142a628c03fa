"""Names this repo deleted, and the one check that keeps them out.

Each row of ``REMOVED_NAMES`` is a regex, the scope it is searched in
(a directory or a single file under the repo root, with an optional
file-name filter), the PR that deleted what the regex names, and why.
``test_no_removed_name_is_back`` reads every source file in each row's
scope and fails on any line the regex matches, naming the file, the line
and the row's PR. A deletion that should stay deleted adds a row here.

The first eight rows were once CI ``! grep`` steps; each regex and scope
is the step's, byte for byte (``--include='*.py'`` is the ``*.py``
filter). Running on the tier-1 suite, the check runs on every Python the
``test`` job runs.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import List, NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent


class Removed(NamedTuple):
    pattern: str
    #: A directory searched recursively, or one file; relative to the root.
    scope: str
    #: A file-name glob the directory search keeps, or None for every file.
    include: Optional[str]
    pr: int
    reason: str


REMOVED_NAMES = (
    Removed(
        r"wait_for|asyncio\.timeout", "src/repro/runtime", "*.py", 16,
        "the live exchange creates no task: one deadline watchdog per link",
    ),
    Removed(
        r"asyncio.sleep", "src/repro/runtime/launcher.py", None, 25,
        "cluster bring-up waits on registration, not a sleep",
    ),
    Removed(
        r"SimClock|EventQueue|EventPool|push_pooled|advance_to", "src/repro", None, 29,
        "the per-event kernel keeps one clock and one heap",
    ),
    Removed(
        r"\bRttModel\b|MatrixRttModel|HashedPairRttModel|NetworkEndpoint|EndpointInfo"
        r"|jitter_decomposable|cacheable_expected|LinkState|repro\.net\.link",
        "src/repro", None, 38,
        "the network keeps one RTT model and one endpoint record",
    ),
    Removed(
        r"cohort_tick_ms|boundary_epoch_ms|trace_capacity|frame_transfer_ms"
        r"|effective_(cell|shard)_precision|with_shard",
        "src/repro", None, 39,
        "metro keeps only the settings its callers set",
    ),
    Removed(
        r"apply_shard_map|shard_map\.epoch|\.derive\(|NodeForgotten|forget_node"
        r"|gray_factor|from_config",
        "src/repro", None, 41,
        "the control plane keeps one shard map and one way out of the registry",
    ),
    Removed(
        r"rtt_probe_samples|common_rtt_ms|perf_monitor_(period_ms|threshold)"
        r"|max_discovery_retries|idle_refresh_factor|backlog_limit|selection_config"
        r"|breaker_failure_threshold|request_timeout_s",
        "src/repro", None, 42,
        "the core keeps only the settings its callers set",
    ),
    Removed(
        r"CallableRankingPolicy|\bas_policy\b|RankingCallable|PolicySpec"
        r"|local_policy|selection_policy_params|self\.selection_policy\b"
        r"|_live_policy|policy_params",
        "src/repro", None, 45,
        "a client policy is chosen by name",
    ),
    Removed(
        r"RandomSelect|random_select|random-select", "src/repro", None, 49,
        "no figure runs a random baseline; only its own tests reached it",
    ),
    Removed(
        r"\bkind\b", "src/repro/churn", "*.py", 49,
        "an episode is a restart when restart_ms is set; only a test read NodeEpisode.kind",
    ),
    Removed(
        r"def params\(|__repr__", "src/repro/policy", "*.py", 49,
        "a policy's params() fed only its __repr__, and nothing printed one",
    ),
    Removed(
        r"ReputationTracker|reputation_sort_key|sort_key_factory", "src/repro", None, 50,
        "the manager ranks by availability_sort_key alone; no run set another key",
    ),
    Removed(
        r"_node_online", "src/repro", None, 50,
        "the manager driver's node-online hook fed only the reputation tracker",
    ),
    Removed(
        r"min_candidates", "src/repro", None, 50,
        "the geo filter widens below the query's TopN, which every caller passes",
    ),
    Removed(
        r"_admit_migrant|include_ghosts", "src/repro/metro", None, 51,
        "every metro re-selection, a migrant's included, is one routine over ghosts too",
    ),
    Removed(
        r"_dwell_ticks|u_join_tick", "src/repro/metro", None, 51,
        "metro's dwell is SelectionConfig.settled over join times in ms",
    ),
)


def scope_files(root: Path, row: Removed) -> List[Path]:
    scope = root / row.scope
    if scope.is_file():
        return [scope]
    return sorted(
        path for path in scope.rglob(row.include or "*")
        if path.is_file() and "__pycache__" not in path.parts
    )


def hits(root: Path, row: Removed) -> List[str]:
    """``path:line: text`` for every line in the row's scope that the
    regex matches."""
    regex = re.compile(row.pattern)
    return [
        f"{path.relative_to(root)}:{number}: {line.strip()}"
        for path in scope_files(root, row)
        for number, line in enumerate(
            path.read_text(encoding="utf-8", errors="replace").splitlines(), 1
        )
        if regex.search(line)
    ]


def test_no_removed_name_is_back():
    found = [
        f"{hit}  (deleted in PR {row.pr}: {row.reason})"
        for row in REMOVED_NAMES
        for hit in hits(ROOT, row)
    ]
    assert found == [], "\n".join(found)


def test_every_row_compiles_and_searches_something():
    for row in REMOVED_NAMES:
        re.compile(row.pattern)
        assert (ROOT / row.scope).exists(), row.scope
        assert scope_files(ROOT, row), row.scope


def test_a_planted_name_is_found_with_its_path_and_line(tmp_path):
    (network,) = [row for row in REMOVED_NAMES if "RttModel" in row.pattern]
    planted = tmp_path / network.scope / "net" / "model.py"
    planted.parent.mkdir(parents=True)
    planted.write_text('"""RTT."""\n\n\nclass RttModel:\n    pass\n')
    (tmp_path / network.scope / "net" / "latency.py").write_text("class LatencyModel:\n    pass\n")
    assert hits(tmp_path, network) == [f"{network.scope}/net/model.py:4: class RttModel:"]
