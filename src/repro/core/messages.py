"""Re-export stub: ``benchmarks/ledger`` is the only permitted importer
(only a ``benchmark`` PR may edit it; ROADMAP item 2 re-points the
ledger at :mod:`repro.messages` and deletes this file)."""

from repro.messages import DiscoveryQuery, NodeStatus, from_wire, to_wire  # noqa: F401
