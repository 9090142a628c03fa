"""Formal coverage for the deprecation surface.

Policy: a shim ships for one release with a :class:`DeprecationWarning`,
then is removed. Nothing is in its warning release today: the PR 2
metrics mutators (``record_*``) and the PR 1 construction/config shims
(``spawn_node``, ``register_client_endpoint``, ``with_top_n``,
``use_global_overhead``) have completed the cycle and must be gone, and
``pyproject.toml`` turns any ``DeprecationWarning`` raised from a
``repro`` module into a tier-1 failure.
"""

import warnings

import pytest

from repro.core.config import SystemConfig
from repro.core.system import EdgeSystem
from repro.geo.point import GeoPoint
from repro.metrics.collector import MetricsCollector
from repro.nodes.hardware import profile_by_name


def make_system() -> EdgeSystem:
    return EdgeSystem(SystemConfig(seed=3))


def test_modern_construction_api_does_not_warn():
    from repro.net.topology import EndpointSpec

    system = make_system()
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        system.add_node(
            "V1", profile_by_name("V1"), EndpointSpec(GeoPoint(44.98, -93.26))
        )
        system.add_client_endpoint("alice", EndpointSpec(GeoPoint(44.97, -93.25)))


def test_policy_spec_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        config = SystemConfig(policy_spec="reliability")
    assert config.policy_spec == "reliability"
    assert SystemConfig().policy_spec == "go"


def test_policy_spec_and_legacy_flag_together_rejected():
    with pytest.raises(TypeError, match="use_global_overhead"):
        SystemConfig(policy_spec="lo", use_global_overhead=True)


def test_construction_and_config_shims_are_removed():
    system = make_system()
    for name in ("spawn_node", "register_client_endpoint"):
        assert not hasattr(system, name), name
    config = SystemConfig()
    for name in ("with_top_n", "use_global_overhead", "selection_policy_spec"):
        assert not hasattr(config, name), name
    with pytest.raises(TypeError, match="use_global_overhead"):
        SystemConfig(use_global_overhead=True)


def test_the_three_chaos_runners_are_removed():
    """One ``run_chaos(scenario, backend=...)`` replaced them outright —
    no wrappers: a deprecation from ``repro`` is a tier-1 error anyway."""
    from repro.faults import scenarios

    for name in (
        "run_sim_chaos",
        "run_sim_controlplane_chaos",
        "run_live_chaos",
        "_controlplane_layout",
    ):
        assert not hasattr(scenarios, name), name
    assert callable(scenarios.run_chaos)


def test_metrics_record_shims_are_removed():
    collector = MetricsCollector()
    for name in (
        "record_frame",
        "record_probe",
        "record_discovery",
        "record_test_invocation",
        "record_join",
        "record_failure",
        "record_covered_failover",
        "record_switch",
        "record_alive_nodes",
    ):
        assert not hasattr(collector, name), name


def test_with_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        assert SystemConfig().with_(top_n=5).top_n == 5
