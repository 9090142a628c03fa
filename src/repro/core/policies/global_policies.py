"""Re-export stub: ``benchmarks/ledger`` is the only permitted importer
(only a ``benchmark`` PR may edit it; ROADMAP item 2 re-points the
ledger at :mod:`repro.policy` and deletes this file)."""

from repro.policy.global_policy import GeoProximityFilter, GlobalSelectionPolicy  # noqa: F401
