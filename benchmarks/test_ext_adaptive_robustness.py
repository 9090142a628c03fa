"""Extension — churn-adaptive TopN / T_probing (§IV-E, closed-loop).

The paper leaves the robustness knobs to the operator. This bench runs
the §V-D2 churn workload with (a) the paper's fixed TopN=3, (b) a cheap
fixed TopN=2 with slow probing, and (c) the adaptive controller starting
from the cheap configuration — showing the controller buys back fixed-3
robustness while idling at the cheap settings whenever churn allows.
"""

from repro.core.adaptive_robustness import AdaptiveRobustness
from repro.core.client import EdgeClient
from repro.core.config import SystemConfig
from repro.core.system import EdgeSystem
from repro.experiments.churn_experiment import make_churn_trace
from repro.experiments.scenario import (
    CHURN_NODE_MIX,
    emulation_node_profiles,
    emulation_topology,
    emulation_world,
)
from repro.churn.injector import ChurnInjector
from repro.geo.region import MSP_CENTER
from repro.metrics.report import format_table


def run_variant(seed, *, top_n, period_ms, adaptive, trace):
    config = SystemConfig(seed=seed, top_n=top_n, probing_period_ms=period_ms)
    world = emulation_world(seed, n_users=10, spawn_nodes=False)
    system = EdgeSystem(config, world=world, topology=emulation_topology())
    ChurnInjector(
        system,
        emulation_node_profiles(CHURN_NODE_MIX),
        center=MSP_CENTER,
        placement_radius_km=80.0,
    ).install(trace)
    for user_id in world.user_ids:
        client = EdgeClient(system, user_id)
        system.clients[user_id] = client
        client.start()
        if adaptive:
            AdaptiveRobustness(quiet_window_ms=20_000.0).attach(client)
    system.run_for(180_000.0)
    return {
        "probes": system.metrics.total_probes(),
        "failures": system.metrics.total_failures(),
        "covered": sum(system.metrics.covered_failovers.values()),
    }


def run_all(seed):
    trace = make_churn_trace(SystemConfig(seed=seed))
    return {
        "fixed TopN=3, 2s": run_variant(
            seed, top_n=3, period_ms=2_000.0, adaptive=False, trace=trace
        ),
        "fixed TopN=2, 4s": run_variant(
            seed, top_n=2, period_ms=4_000.0, adaptive=False, trace=trace
        ),
        "adaptive (from 2, 4s)": run_variant(
            seed, top_n=2, period_ms=4_000.0, adaptive=True, trace=trace
        ),
    }


def test_ext_adaptive_robustness():
    results = run_all(seed=42)

    rows = [
        [name, values["probes"], values["covered"], values["failures"]]
        for name, values in results.items()
    ]
    print()
    print(
        format_table(
            ["configuration", "probes (overhead)", "covered failovers",
             "uncovered failures"],
            rows,
            title="Extension — adaptive robustness under the §V-D2 churn",
        )
    )

    fixed3 = results["fixed TopN=3, 2s"]
    cheap = results["fixed TopN=2, 4s"]
    adaptive = results["adaptive (from 2, 4s)"]
    # The controller must not exceed the heavyweight config's overhead...
    assert adaptive["probes"] < fixed3["probes"]
    # ...while matching (or beating) the cheap config's robustness.
    assert adaptive["failures"] <= cheap["failures"]
