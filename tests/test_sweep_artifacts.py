"""Every paper artifact is a sweepable experiment, derived, not restated.

``repro.sweep.registry`` resolves an ``ARTIFACTS`` name to a run of that
artifact whose metrics are the numeric cells of its own table, named
``"<row label> | <column header>"``. These tests hold the derivation to
the table (spelled out per artifact, not re-derived), the platforms to
each other, and the tables' rows to a shape that does not depend on the
seed — without which a cross-seed aggregate has nothing to line up.
"""

import pytest

from repro.core.config import SystemConfig
from repro.experiments import ARTIFACTS
from repro.sweep import (
    RunStore,
    SweepSpec,
    experiment_names,
    get_experiment,
    run_sweep,
    store_digest,
)


def test_every_artifact_is_a_sweepable_experiment():
    names = experiment_names()
    assert set(ARTIFACTS) <= set(names)
    for builtin in ("chaos_matrix", "policy_matrix", "controlplane_chaos",
                    "chaos_hunt", "selftest"):
        assert builtin in names


@pytest.mark.parametrize(
    "name", ["fig9_topn", "churn_trace", "network_study", "qos_admission"]
)
def test_the_hand_written_wrappers_are_gone(name):
    with pytest.raises(KeyError, match="unknown sweepable experiment"):
        get_experiment(name)


def test_fig1_metrics_are_its_table_cells():
    result = ARTIFACTS["fig1"].run(SystemConfig(seed=11), probes_per_pair=3)
    expected = {}
    for group, summary in result.summaries().items():
        expected[f"{group} | mean"] = summary.mean_ms
        expected[f"{group} | p50"] = summary.p50_ms
        expected[f"{group} | p90"] = summary.p90_ms
        expected[f"{group} | min"] = summary.min_ms
        expected[f"{group} | max"] = summary.max_ms
    assert get_experiment("fig1").fn({"probes_per_pair": 3}, 11) == expected


def test_fig4_metrics_are_its_table_cells():
    result = ARTIFACTS["fig4"].run(SystemConfig(seed=11))
    peak, frames = "peak latency after failure (ms)", "frames completed"
    assert get_experiment("fig4").fn({}, 11) == {
        f"proactive switch (ours) | {peak}": result.proactive_peak_ms,
        f"proactive switch (ours) | {frames}": float(len(result.proactive)),
        f"re-connect | {peak}": result.reactive_peak_ms,
        f"re-connect | {frames}": float(len(result.reactive)),
    }


def test_derived_experiment_is_bit_identical_across_platforms(tmp_path):
    spec = SweepSpec.build("fig1", {}, n_seeds=2, base_seed=42)
    digests = []
    for workers in (1, 2):  # inline, then one forked child per run
        store = RunStore(tmp_path / str(workers))
        result = run_sweep(spec, store, workers=workers)
        assert result.failed == 0
        digests.append(store_digest(store))
    assert digests[0] == digests[1]


@pytest.mark.parametrize("name", ["fig1", "table2", "fig3", "table3", "fig4", "fig8"])
def test_table_rows_do_not_depend_on_the_seed(name):
    artifact = ARTIFACTS[name]

    def labels(seed):
        _, _, rows = artifact.table(artifact.run(SystemConfig(seed=seed)))
        return [row[0] for row in rows]

    assert labels(42) == labels(43)
