"""The plain-sort ranking references the policy tests compare against.

:class:`SortReference` ranks by the sort it is given and reports each
candidate's LO as its score, so dwell and hysteresis compare LO, as the
selection machine did before policies had scores of their own.
:func:`register_for_test` puts a factory in the policy registry for one
test only, so every other test still sees exactly the built-ins.
"""

from repro.policy import Ranking, SelectionPolicy
from repro.policy import registry


def sort_by_local_overhead(outcomes):
    return sorted(outcomes, key=lambda o: (o.local_overhead_ms, o.node_id))


def sort_by_global_overhead(outcomes):
    return sorted(outcomes, key=lambda o: (o.global_overhead_ms, o.node_id))


class SortReference(SelectionPolicy):
    name = "sort-reference"

    def __init__(self, sort):
        self.sort = sort

    def rank(self, outcomes, ctx):
        ranked = tuple(self.sort(outcomes))
        return Ranking(ranked, {o.node_id: o.local_overhead_ms for o in ranked})


def register_for_test(monkeypatch, name, factory):
    monkeypatch.setitem(registry._REGISTRY, name, factory)
    monkeypatch.setitem(registry._DESCRIPTIONS, name, "")
