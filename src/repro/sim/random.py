"""Named, independently seeded random streams.

A simulation with a single shared RNG is fragile: adding one extra draw in
any component shifts every subsequent draw everywhere, so results change
for unrelated reasons. ``RandomStreams`` derives an independent
``random.Random`` per *named* stream from a root seed, so each subsystem
(network jitter, churn arrivals, workload timing, ...) consumes its own
sequence.

Derivation hashes the (root_seed, name) pair with a stable digest so that
stream assignment is deterministic across Python processes and versions
(``hash()`` is salted per-process and must not be used).
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from a root seed and a stream name."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RandomStreams:
    """A factory of named, reproducible ``random.Random`` streams.

    >>> streams = RandomStreams(42)
    >>> a = streams.get("network").random()
    >>> b = RandomStreams(42).get("network").random()
    >>> a == b
    True
    """

    def __init__(self, root_seed: int = 0) -> None:
        self.root_seed = int(root_seed)
        self._streams: Dict[str, random.Random] = {}

    def get(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(derive_seed(self.root_seed, name))
            self._streams[name] = stream
        return stream

    def for_run(self, run_index: int) -> "RandomStreams":
        """Create the child ``RandomStreams`` for the ``run_index``-th run.

        A thin, *indexed* wrapper over :func:`derive_seed` — the seeding
        primitive of :mod:`repro.sweep`: a sweep replicates an experiment
        across runs, and each run must consume a random universe that is
        (a) disjoint from every other run's and (b) a pure function of
        ``(root_seed, run_index)``, so results do not depend on execution
        order or on which worker process a run lands on.

        >>> RandomStreams(42).for_run(3).root_seed == \
            RandomStreams(42).for_run(3).root_seed
        True
        """
        if run_index < 0:
            raise ValueError(f"run_index must be >= 0: {run_index}")
        return RandomStreams(derive_seed(self.root_seed, f"run:{run_index}"))

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __repr__(self) -> str:
        return f"RandomStreams(root_seed={self.root_seed}, streams={sorted(self._streams)})"
