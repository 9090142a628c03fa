"""Metro-scale simulation: cohort-batched, geohash-sharded kernels.

The fast path for population-scale questions (10^5 nodes, 10^6 users):

- :mod:`repro.metro.spec` — typed :class:`MetroSpec`/:class:`ShardSpec`
  scenario values + deterministic population generation.
- :mod:`repro.metro.kernel` — the tick-quantized shard kernel; each
  tick's frames advance as one numpy cohort.
- :mod:`repro.metro.reference` — :class:`PerFrameKernel`, one simulator
  event per frame: the reference the cohort path is tested and timed
  against, never reached by a config value.
- :mod:`repro.metro.shard` — geohash prefix partitioning, ghost/export
  planning.
- :mod:`repro.metro.runner` — :class:`MetroSimulation`: the epoch loop,
  boundary-channel routing, optional forked shard workers, reporting.

See DESIGN.md §11 for the determinism contract and the divergences from
the high-fidelity :class:`~repro.core.system.EdgeSystem` kernel.
"""

from repro.metro.kernel import MetroKernel, MetroShardReport
from repro.metro.runner import MetroReport, MetroSimulation
from repro.metro.shard import ShardPlan, plan_shards
from repro.metro.spec import MetroPopulation, MetroSpec, ShardSpec, build_population

__all__ = [
    "MetroKernel",
    "MetroShardReport",
    "MetroReport",
    "MetroSimulation",
    "MetroSpec",
    "ShardSpec",
    "MetroPopulation",
    "ShardPlan",
    "build_population",
    "plan_shards",
]
