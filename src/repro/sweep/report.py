"""The sweep report pipeline: run store -> Markdown -> EXPERIMENTS.md.

The third layer of the sweep engine. The store holds bit-reproducible
per-run records, the aggregator reduces them canonically, and this
module renders the result as Markdown tables (one table per experiment;
rows are parameter cells in sorted cell-key order; values are
``mean ± ci95``) and splices them into tagged sections of a document.
An experiment whose metrics are all named ``"<row> | <column>"`` — every
paper artifact (:mod:`repro.sweep.registry`) — renders instead as its
own table, one per parameter cell, rows and columns in numeric-aware
order (``2`` before ``10``, ``5s`` before ``10s``)::

    <!-- sweep-report:fig9 -->
    ...generated — do not edit by hand...
    <!-- /sweep-report:fig9 -->

Everything here is deterministic on purpose: cells, metrics, and
experiments are sorted; floats render via ``format(value, ".6g")``
(shortest-round-trip within six significant digits, no locale, no
platform drift); and the section body contains nothing time- or
host-dependent. Two stores with equal :func:`aggregates_digest` render
byte-identical Markdown — which is what lets CI regenerate a committed
report section and ``diff`` it (:func:`update_tagged_section` with
``check=True``) as an end-to-end bit-reproducibility gate, the same
property ``bench_sweep`` asserts on the digest itself.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.fsutil import atomic_write_text
from repro.sweep.aggregate import (
    CellAggregate,
    MetricAggregate,
    aggregate_records,
    aggregates_digest,
)
from repro.sweep.store import RunRecord, RunStore

__all__ = [
    "render_markdown",
    "render_store_markdown",
    "tagged_section",
    "update_tagged_section",
    "SectionCheckFailed",
    "store_digest",
]


def _fmt(value: float) -> str:
    """Canonical float rendering: 6 significant digits, trailing-zero
    free — stable across platforms for bit-identical inputs."""
    return format(value, ".6g")


def _cell_label(cell: CellAggregate) -> str:
    pairs = [f"{k}={v}" for k, v in sorted(cell.params.items())]
    return ", ".join(pairs) or "(default)"


def _escape(text: str) -> str:
    return text.replace("|", "\\|")


#: Separates the row label from the column header in a metric name.
PIVOT = " | "


def _value(agg: Optional[MetricAggregate]) -> str:
    if agg is None:
        return "—"
    if agg.n > 1:
        return f"{_fmt(agg.mean)} ± {_fmt(agg.ci_half_width)}"
    return _fmt(agg.mean)


def _markdown(header: List[str], rows: List[List[str]]) -> List[str]:
    return [
        "| " + " | ".join(header) + " |",
        "|" + "|".join(["---"] * len(header)) + "|",
        *("| " + " | ".join(row) + " |" for row in rows),
    ]


def _numeric_order(label: str) -> Tuple[object, ...]:
    """Sort key that compares digit runs as numbers: ``5s`` < ``10s``."""
    return tuple(
        int(part) if i % 2 else part
        for i, part in enumerate(re.split(r"(\d+)", label))
    )


def _experiment_table(cells: List[CellAggregate]) -> List[str]:
    """One GitHub-flavored Markdown table: cells x metrics, mean ± ci95."""
    metrics: List[str] = sorted({m for c in cells for m in c.metrics})
    return _markdown(
        ["cell", "seeds"] + metrics,
        [
            [_escape(_cell_label(cell)), str(cell.n_seeds)]
            + [_value(cell.metrics.get(name)) for name in metrics]
            for cell in cells
        ],
    )


def _pivot_tables(cells: List[CellAggregate]) -> List[str]:
    """Per cell, ``row | column`` metrics back in their table's shape.

    The first header names the cell. A value aggregated over fewer seeds
    than the cell ran (that row had no number on some seeds) says so."""
    lines: List[str] = []
    for cell in cells:
        split = {
            tuple(name.split(PIVOT, 1)): agg for name, agg in cell.metrics.items()
        }
        rows = sorted({row for row, _ in split}, key=_numeric_order)
        columns = sorted({column for _, column in split}, key=_numeric_order)
        body = []
        for row in rows:
            values = [_escape(row)]
            for column in columns:
                agg = split.get((row, column))
                short = agg is not None and agg.n < cell.n_seeds
                values.append(_value(agg) + (f" (n={agg.n})" if short else ""))
            body.append(values)
        if lines:
            lines.append("")
        lines += _markdown(
            [_escape(_cell_label(cell))] + [_escape(c) for c in columns], body
        )
    return lines


def render_markdown(
    aggregates: Dict[str, CellAggregate], *, heading_level: int = 4
) -> str:
    """Render aggregates as Markdown: one table per experiment.

    Experiments and cells appear in sorted order; metric columns are the
    sorted union of the experiment's metric names; each value is
    ``mean ± ci95`` (bare mean for single-seed cells, where the CI
    half-width is zero by construction). Deterministic: equal aggregate
    digests render byte-identical text.
    """
    by_experiment: Dict[str, List[CellAggregate]] = {}
    for key in sorted(aggregates):
        cell = aggregates[key]
        by_experiment.setdefault(cell.experiment, []).append(cell)

    if not by_experiment:
        return "_no successful runs in the store_\n"

    mark = "#" * heading_level
    blocks: List[str] = []
    for experiment in sorted(by_experiment):
        cells = by_experiment[experiment]
        seeds = sorted({c.n_seeds for c in cells})
        seeds_note = (
            f"{seeds[0]}" if len(seeds) == 1 else f"{seeds[0]}–{seeds[-1]}"
        )
        pivot = all(PIVOT in m for c in cells for m in c.metrics)
        table = _pivot_tables(cells) if pivot else _experiment_table(cells)
        blocks.append(
            f"{mark} `{experiment}` — {len(cells)} cell"
            f"{'s' if len(cells) != 1 else ''}, {seeds_note} seed"
            f"{'s' if seeds != [1] else ''} per cell\n\n"
            + "\n".join(table)
        )
    return "\n\n".join(blocks) + "\n"


def render_store_markdown(
    store: Union[RunStore, Iterable[RunRecord]],
    *,
    experiments: Optional[List[str]] = None,
    heading_level: int = 4,
) -> str:
    """Render a run store (or record iterable) as Markdown tables.

    ``experiments`` optionally restricts the report to those experiment
    names (unknown names simply match nothing — the store is the source
    of truth, not the registry).
    """
    records = store.records() if isinstance(store, RunStore) else list(store)
    if experiments is not None:
        wanted = set(experiments)
        records = [r for r in records if r.experiment in wanted]
    return render_markdown(
        aggregate_records(records), heading_level=heading_level
    )


# ----------------------------------------------------------------------
# Tagged-section splicing
# ----------------------------------------------------------------------
def _markers(tag: str) -> "tuple[str, str]":
    if not tag or "--" in tag or any(c in tag for c in "<> \n"):
        raise ValueError(f"invalid section tag: {tag!r}")
    return f"<!-- sweep-report:{tag} -->", f"<!-- /sweep-report:{tag} -->"


def tagged_section(tag: str, body: str) -> str:
    """The full replacement text between (and including) the markers."""
    begin, end = _markers(tag)
    note = "<!-- generated by `repro sweep report`; do not edit by hand -->"
    return f"{begin}\n{note}\n{body.rstrip()}\n{end}"


class SectionCheckFailed(RuntimeError):
    """``check=True`` found the on-disk section differs from the render."""


def update_tagged_section(
    path: Union[str, Path],
    tag: str,
    body: str,
    *,
    check: bool = False,
) -> bool:
    """Write (or verify) one tagged report section of a document.

    If the document contains the ``<!-- sweep-report:tag -->`` markers,
    the text between them is replaced; otherwise the whole section is
    appended at the end. The write is atomic (crash leaves the old
    document intact). With ``check=True`` nothing is written: returns
    normally if the on-disk section already equals the render
    byte-for-byte and raises :class:`SectionCheckFailed` otherwise —
    the CI reproducibility gate.

    Returns True if the document changed (or would change, under
    ``check``).
    """
    path = Path(path)
    begin, end = _markers(tag)
    section = tagged_section(tag, body)
    text = path.read_text(encoding="utf-8") if path.exists() else ""

    begin_at = text.find(begin)
    if begin_at != -1:
        end_at = text.find(end, begin_at)
        if end_at == -1:
            raise ValueError(
                f"{path}: opening marker for {tag!r} has no closing marker"
            )
        new_text = text[:begin_at] + section + text[end_at + len(end):]
    elif text:
        new_text = text.rstrip("\n") + "\n\n" + section + "\n"
    else:
        new_text = section + "\n"

    changed = new_text != text
    if check:
        if changed:
            raise SectionCheckFailed(
                f"{path}: section {tag!r} is stale — regenerate with "
                f"`repro sweep report --update {path} --tag {tag}`"
            )
        return False
    if changed:
        atomic_write_text(path, new_text)
    return changed


def store_digest(store: Union[RunStore, Iterable[RunRecord]]) -> str:
    """The canonical aggregates digest of a store's successful records."""
    records = store.records() if isinstance(store, RunStore) else list(store)
    return aggregates_digest(aggregate_records(records))
