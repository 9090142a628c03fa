"""Empty: the selection policies, both steps, live in :mod:`repro.policy`.

This package exists only to hold ``global_policies.py``, a re-export
stub pinned by ``benchmarks/ledger`` until ROADMAP item 2 deletes both.
"""
