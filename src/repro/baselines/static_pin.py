"""Statically pinned client — the "closest cloud" baseline.

"The offloading performance on the closest AWS cloud is used as a
baseline reference in our real-world experiments" (§V-B): every user
offloads to the fixed cloud node, full stop. Also useful for pinning a
user to any specific node in unit tests and single-node studies (Fig. 3
probes each server with a pinned client).
"""

from __future__ import annotations

from functools import partial
from typing import Any

from repro.baselines.reactive import ReactiveClient


class StaticPinClient(ReactiveClient):
    """Offloads to one fixed node forever.

    Args:
        target_node_id: the pinned node (keyword-only, required).
    """

    def __init__(self, *args: Any, target_node_id: str, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.target_node_id = target_node_id

    def _select(self) -> None:
        # Pinned target unavailable: retry until it returns.
        self._attach(
            self.target_node_id,
            f"{self.user_id}.pin",
            partial(self._retry_round, 1000.0),
        )
