"""Report-pipeline tests: Markdown rendering and tagged-section refresh.

The property under test is byte-reproducibility: equal stores render
equal Markdown, and ``update_tagged_section(..., check=True)`` is a
faithful is-it-stale oracle — that pair is what the CI job leans on
when it regenerates the committed EXPERIMENTS.md section and diffs.
"""

import pytest

from repro.sweep import (
    RunStore,
    SectionCheckFailed,
    SweepSpec,
    render_markdown,
    render_store_markdown,
    run_sweep,
    store_digest,
    tagged_section,
    update_tagged_section,
)
from repro.sweep.aggregate import aggregate_records
from repro.sweep.store import STATUS_FAILED, RunRecord

SPEC = SweepSpec.build("selftest", {"scale": [1.0, 2.0]}, n_seeds=3, base_seed=7)


def _filled_store(tmp_path, name="s"):
    store = RunStore(tmp_path / name)
    run_sweep(SPEC, store, serial=True)
    return store


# ----------------------------------------------------------------------
# Markdown rendering
# ----------------------------------------------------------------------
def test_markdown_has_table_per_experiment_with_ci(tmp_path):
    text = render_store_markdown(_filled_store(tmp_path))
    assert "#### `selftest`" in text
    assert "| cell | seeds | draws | value |" in text
    assert "scale=1.0" in text and "scale=2.0" in text
    assert "±" in text  # multi-seed cells render mean ± ci95


def test_markdown_is_deterministic_across_stores(tmp_path):
    a = _filled_store(tmp_path, "a")
    b = _filled_store(tmp_path, "b")
    assert store_digest(a) == store_digest(b)
    assert render_store_markdown(a) == render_store_markdown(b)


def test_markdown_single_seed_cell_renders_bare_mean(tmp_path):
    spec = SweepSpec.build("selftest", {"scale": [1.0]}, n_seeds=1, base_seed=7)
    store = RunStore(tmp_path / "s")
    run_sweep(spec, store, serial=True)
    text = render_store_markdown(store)
    assert "±" not in text
    assert "1 seed per cell" in text


def test_markdown_excludes_failed_runs(tmp_path):
    store = _filled_store(tmp_path)
    store.put(
        RunRecord(
            run_key="deadbeef",
            experiment="selftest",
            params={"scale": 9.0},
            seed_index=0,
            root_seed=1,
            status=STATUS_FAILED,
            metrics={},
            error="boom",
        )
    )
    assert "scale=9.0" not in render_store_markdown(store)


def test_markdown_experiment_filter(tmp_path):
    store = _filled_store(tmp_path)
    assert "selftest" in render_store_markdown(store, experiments=["selftest"])
    assert render_store_markdown(store, experiments=["other"]).startswith(
        "_no successful runs"
    )


def test_markdown_empty_store(tmp_path):
    assert render_store_markdown(RunStore(tmp_path / "s")).startswith(
        "_no successful runs"
    )


def test_plain_metrics_render_one_cells_by_metrics_table(tmp_path):
    """No ``row | column`` names: one cells x metrics table, byte for
    byte (EXPERIMENTS.md's ``sweep-selftest`` section depends on it)."""
    assert render_store_markdown(_filled_store(tmp_path)) == (
        "#### `selftest` — 2 cells, 3 seeds per cell\n\n"
        "| cell | seeds | draws | value |\n"
        "|---|---|---|---|\n"
        "| scale=1.0 | 3 | 1 ± 0 | 0.514715 ± 0.460781 |\n"
        "| scale=2.0 | 3 | 1 ± 0 | 0.939636 ± 1.67136 |\n"
    )


def _records(experiment, params, per_seed):
    return [
        RunRecord(
            run_key=f"{experiment}-{params}-{seed}",
            experiment=experiment,
            params=params,
            seed_index=seed,
            root_seed=seed,
            status="ok",
            metrics=metrics,
        )
        for seed, metrics in enumerate(per_seed)
    ]


def test_row_column_metrics_pivot_into_the_tables_shape():
    records = _records(
        "fig", {}, [{"a | x": 1.0, "a | y": 2.0, "b | x": 3.0, "b | y": 4.0}] * 2
    )
    assert render_markdown(aggregate_records(records)) == (
        "#### `fig` — 1 cell, 2 seeds per cell\n\n"
        "| (default) | x | y |\n"
        "|---|---|---|\n"
        "| a | 1 ± 0 | 2 ± 0 |\n"
        "| b | 3 ± 0 | 4 ± 0 |\n"
    )


def test_pivot_orders_rows_and_columns_numerically():
    names = [f"{row} | {column}" for row in ("10s", "5s", "0s") for column in ("10", "2")]
    records = _records("fig", {}, [{name: 1.0 for name in names}])
    lines = render_markdown(aggregate_records(records)).splitlines()
    assert lines[2] == "| (default) | 2 | 10 |"
    assert [line.split(" | ")[0] for line in lines[4:]] == ["| 0s", "| 5s", "| 10s"]


def test_pivot_renders_a_missing_cell_as_a_dash_and_a_short_one_with_its_n():
    records = _records(
        "fig", {}, [{"a | x": 1.0, "b | y": 2.0}, {"a | x": 3.0}]
    )
    text = render_markdown(aggregate_records(records))
    assert "| a | 2 ± 12.706 | — |" in text
    assert "| b | — | 2 (n=1) |" in text


def test_pivot_renders_one_table_per_parameter_cell():
    records = _records("fig", {"k": 1}, [{"a | x": 1.0}]) + _records(
        "fig", {"k": 2}, [{"a | x": 2.0}]
    )
    text = render_markdown(aggregate_records(records))
    assert "| k=1 | x |" in text and "| k=2 | x |" in text
    assert text.count("#### `fig`") == 1


def test_markdown_escapes_pipes_in_cell_labels():
    records = [
        RunRecord(
            run_key="k1",
            experiment="e",
            params={"label": "a|b"},
            seed_index=0,
            root_seed=1,
            status="ok",
            metrics={"m": 1.0},
        )
    ]
    text = render_markdown(aggregate_records(records))
    assert "a\\|b" in text


# ----------------------------------------------------------------------
# Tagged-section splicing
# ----------------------------------------------------------------------
def test_update_appends_section_to_existing_document(tmp_path):
    doc = tmp_path / "EXPERIMENTS.md"
    doc.write_text("# Experiments\n\nprose.\n")
    assert update_tagged_section(doc, "demo", "body\n") is True
    text = doc.read_text()
    assert text.startswith("# Experiments")
    assert "<!-- sweep-report:demo -->" in text
    assert "<!-- /sweep-report:demo -->" in text
    assert "do not edit by hand" in text


def test_update_replaces_between_markers_preserving_surroundings(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "before\n\n<!-- sweep-report:t -->\nold\n<!-- /sweep-report:t -->\n\nafter\n"
    )
    update_tagged_section(doc, "t", "new body\n")
    text = doc.read_text()
    assert "old" not in text and "new body" in text
    assert text.startswith("before\n") and text.endswith("after\n")


def test_update_is_idempotent(tmp_path):
    doc = tmp_path / "doc.md"
    update_tagged_section(doc, "t", "body\n")
    first = doc.read_text()
    assert update_tagged_section(doc, "t", "body\n") is False
    assert doc.read_text() == first


def test_check_passes_on_current_section_and_fails_on_stale(tmp_path):
    doc = tmp_path / "doc.md"
    update_tagged_section(doc, "t", "body\n")
    assert update_tagged_section(doc, "t", "body\n", check=True) is False
    with pytest.raises(SectionCheckFailed, match="stale"):
        update_tagged_section(doc, "t", "different\n", check=True)
    # check never writes
    assert "body" in doc.read_text() and "different" not in doc.read_text()


def test_check_fails_on_missing_document(tmp_path):
    with pytest.raises(SectionCheckFailed):
        update_tagged_section(tmp_path / "absent.md", "t", "x\n", check=True)


def test_unclosed_marker_is_an_error(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text("<!-- sweep-report:t -->\nno closing marker\n")
    with pytest.raises(ValueError, match="no closing marker"):
        update_tagged_section(doc, "t", "x\n")


def test_invalid_tag_rejected(tmp_path):
    with pytest.raises(ValueError, match="invalid section tag"):
        tagged_section("bad tag -->", "x")


def test_two_tags_coexist(tmp_path):
    doc = tmp_path / "doc.md"
    update_tagged_section(doc, "one", "first\n")
    update_tagged_section(doc, "two", "second\n")
    update_tagged_section(doc, "one", "first revised\n")
    text = doc.read_text()
    assert "first revised" in text and "second" in text
    assert text.count("<!-- sweep-report:one -->") == 1
    assert text.count("<!-- sweep-report:two -->") == 1
