"""repro — reproduction of "Towards Elasticity in Heterogeneous Edge-dense
Environments" (Huang et al., ICDCS 2022).

A client-centric distributed edge selection system over volunteer edge
resources, plus every substrate it needs: a deterministic discrete-event
simulator, geographic/network/compute models, churn generators, the
paper's baselines, an offline optimal-assignment oracle, experiment
builders for every figure and table, and a live asyncio TCP runtime
speaking the same protocol.

Quickstart::

    from repro import ScenarioBuilder, SystemConfig
    from repro.geo import GeoPoint
    from repro.nodes import profile_by_name

    system = (
        ScenarioBuilder(SystemConfig(top_n=3, seed=7))
        .node("V1", profile_by_name("V1"), point=GeoPoint(44.98, -93.26))
        .node("V2", profile_by_name("V2"), point=GeoPoint(44.95, -93.20))
        .client("u1", point=GeoPoint(44.97, -93.25))
        .build()
    )
    system.run_for(30_000)                     # 30 simulated seconds
    print(system.clients["u1"].stats.mean_latency_ms)
"""

from repro.api import ScenarioBuilder
from repro.core.adaptive_robustness import AdaptiveRobustness
from repro.core.client import ClientLike, ClientStats, EdgeClient
from repro.core.config import SystemConfig
from repro.core.edge_server import EdgeServer
from repro.core.manager import CentralManager
from repro.core.multiapp import ApplicationSpec, MultiAppDeployment
from repro.core.system import EdgeSystem
from repro.metrics.collector import MetricsCollector
from repro.net.topology import EndpointSpec
from repro.obs import TraceAnalyzer, Tracer

__version__ = "1.0.0"

__all__ = [
    "EdgeSystem",
    "EdgeClient",
    "EdgeServer",
    "CentralManager",
    "SystemConfig",
    "ScenarioBuilder",
    "EndpointSpec",
    "ClientLike",
    "ClientStats",
    "MetricsCollector",
    "Tracer",
    "TraceAnalyzer",
    "AdaptiveRobustness",
    "MultiAppDeployment",
    "ApplicationSpec",
    "__version__",
]
