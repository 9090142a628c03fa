"""Experiment builders — one per figure/table of the paper's evaluation.

Each module exposes pure functions that construct a system, run it, and
return plain result objects whose ``table()`` method gives the paper's
rows, holding numbers, not formatted strings. :data:`ARTIFACTS` lists
them all and is the only table of paper experiments: the CLI prints each
artifact's table, the ``benchmarks/`` harness asserts on it, and
:mod:`repro.sweep.registry` derives one sweepable experiment per
artifact whose metrics are that table's numeric cells — which is what
the generated sections of ``EXPERIMENTS.md`` render.
"""

from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

from repro.experiments import (
    churn_experiment as churn,
    emulation,
    network_study,
    qos_admission,
    realworld,
)
from repro.experiments.scenario import emulation_world, real_world
from repro.metrics.report import Table

__all__ = [
    "ARTIFACTS",
    "PaperArtifact",
    "real_world",
    "emulation_world",
]

TableFn = Callable[[Any], Table]


@dataclass(frozen=True)
class PaperArtifact:
    """One table or figure of the paper, and how to regenerate it."""

    name: str
    help: str
    #: ``run(config, **options)`` -> the experiment's result object.
    run: Callable[..., Any]
    #: What it reports: ``result -> (title, headers, rows)``.
    table: TableFn
    #: ``(flag, run keyword, argparse kwargs)`` per command-line option.
    options: Tuple[Tuple[str, str, Dict[str, Any]], ...] = ()
    #: ``(name, help, table)``: ``--name`` prints one more table.
    switches: Tuple[Tuple[str, str, TableFn], ...] = ()


#: Every artifact by name — what ``python -m repro <name>`` runs, the
#: benchmark harness prints and ``repro sweep run --experiment <name>``
#: sweeps.
ARTIFACTS = {
    artifact.name: artifact
    for artifact in (
        PaperArtifact(
            "fig1", "Fig. 1 network study",
            network_study.run_network_study, network_study.NetworkStudyResult.table,
            options=(("--probes", "probes_per_pair", dict(type=int, default=20)),),
        ),
        PaperArtifact(
            "table2", "Table II hardware catalog",
            lambda config: realworld.TABLE2_PROFILES, realworld.hardware_table,
        ),
        PaperArtifact(
            "fig3", "Fig. 3 single-user latency CDFs",
            realworld.run_single_user_cdf, realworld.SingleUserCdfResult.table,
            switches=(("cdf", "print full CDFs", realworld.SingleUserCdfResult.cdf_table),),
        ),
        PaperArtifact(
            "table3", "Table III pairwise latency + selection",
            realworld.run_pairwise_selection, realworld.PairwiseSelectionResult.table,
        ),
        PaperArtifact(
            "fig4", "Fig. 4 failover trace",
            realworld.run_failover_trace, realworld.FailoverTraceResult.table,
        ),
        PaperArtifact(
            "fig5", "Fig. 5 elasticity sweep",
            realworld.run_elasticity_sweep, realworld.ElasticityResult.table,
            options=(
                ("--users", "user_counts",
                 dict(type=int, nargs="+", default=[1, 3, 5, 7, 9, 11, 13, 15])),
            ),
        ),
        PaperArtifact(
            "fig6", "Fig. 6 per-user traces",
            emulation.run_user_traces, emulation.UserTraceResult.table,
        ),
        PaperArtifact(
            "fig7", "Fig. 7 vs optimal assignment",
            emulation.run_vs_optimal, emulation.VsOptimalResult.table,
        ),
        PaperArtifact(
            "fig8", "Fig. 8 churn trace",
            churn.run_churn_trace, churn.ChurnTraceResult.table,
        ),
        PaperArtifact(
            "fig9", "Fig. 9 TopN sweep",
            churn.run_topn_sweep, churn.TopNSweepResult.table,
            options=(
                ("--top-n", "top_ns",
                 dict(type=int, nargs="+", default=[1, 2, 3, 4, 5])),
            ),
        ),
        PaperArtifact(
            "fig10", "Fig. 10 fault tolerance",
            churn.run_fault_tolerance, churn.FaultToleranceResult.table,
        ),
        PaperArtifact(
            "qos", "QoS admission extension",
            qos_admission.run_qos_admission, qos_admission.QosAdmissionResult.table,
            options=(("--qos-ms", "qos_latency_ms", dict(type=float, default=90.0)),),
        ),
    )
}
