"""String-keyed policy registry: the one way a client's policy is chosen.

A client names its selection policy (``SystemConfig.policy_spec`` on the
sim, ``LiveClient(policy=...)`` live; sweeps and the CLI pass the same
strings), and :func:`build_policy` resolves that name once per client
into a fresh, seeded instance, so policy state is never shared. A custom
or re-tuned policy is registered under a name of its own::

    register("ewma-fast", lambda: EwmaRttPolicy(alpha=0.6))
    SystemConfig(policy_spec="ewma-fast")

Built-ins register at import time so worker processes resolve the same
names (spawn-safe, like the sweep experiment registry).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.policy.base import SelectionPolicy
from repro.policy.baselines import (
    GlobalOverheadPolicy,
    LocalOverheadPolicy,
    QosGatedPolicy,
)
from repro.policy.predictive import (
    ChurnAwarePolicy,
    EwmaRttPolicy,
    ReliabilityPolicy,
)

__all__ = [
    "PolicyFactory",
    "build_policy",
    "get",
    "make",
    "policy_names",
    "register",
]

PolicyFactory = Callable[..., SelectionPolicy]

_REGISTRY: Dict[str, PolicyFactory] = {}
_DESCRIPTIONS: Dict[str, str] = {}


def register(
    name: str,
    factory: PolicyFactory,
    *,
    description: str = "",
    replace: bool = False,
) -> None:
    """Add a policy factory under ``name``.

    Re-registering is refused unless ``replace=True`` — silently
    shadowing a built-in would change what a ``policy_spec`` means.
    """
    if name in _REGISTRY and not replace:
        raise ValueError(f"policy already registered: {name!r}")
    _REGISTRY[name] = factory
    _DESCRIPTIONS[name] = description


def get(name: str) -> PolicyFactory:
    """The factory registered under ``name`` (``repro.policy.get("reliability")``)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise KeyError(
            f"unknown selection policy {name!r}; registered: {known}"
        ) from None


def make(name: str, **params: object) -> SelectionPolicy:
    """A fresh configured instance of the policy named ``name``."""
    return get(name)(**params)


def describe(name: str) -> str:
    """The one-line description registered with ``name``."""
    get(name)
    return _DESCRIPTIONS.get(name, "")


def policy_names() -> List[str]:
    return sorted(_REGISTRY)


def build_policy(
    name: str,
    *,
    qos_latency_ms: Optional[float] = None,
    seed: Optional[int] = None,
) -> SelectionPolicy:
    """A fresh instance of the policy registered under ``name``, ready
    for one client.

    ``qos_latency_ms`` wraps it in QoS admission (the
    ``SystemConfig.qos_latency_ms`` semantics); ``seed`` hands the
    policy its private random universe.
    """
    if not isinstance(name, str):
        raise TypeError(
            f"a selection policy is chosen by registry name, not {name!r}; "
            "register a factory with repro.policy.register(name, factory)"
        )
    policy = make(name)
    if qos_latency_ms is not None:
        policy = QosGatedPolicy(policy, qos_latency_ms)
    if seed is not None:
        policy.bind_seed(seed)
    return policy


# ----------------------------------------------------------------------
# Built-ins
# ----------------------------------------------------------------------
register(
    "lo",
    LocalOverheadPolicy,
    description="paper baseline: rank by local overhead LO_j (selfish latency)",
)
register(
    "go",
    GlobalOverheadPolicy,
    description="paper default: rank by global overhead GO_j (average-optimizing)",
)
register(
    "ewma",
    EwmaRttPolicy,
    description="Holt EWMA/trend RTT forecast: rank on predicted RTT-at-join",
)
register(
    "reliability",
    ReliabilityPolicy,
    description="GO with decaying multiplicative penalty for failures/gray behaviour",
)
register(
    "churn",
    ChurnAwarePolicy,
    description="GO ranking with stability-ordered backups (churn-aware failover)",
)
