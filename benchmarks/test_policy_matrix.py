"""Selection policies under the trap scenario (beyond the paper).

The ``policy_matrix`` sweep compares the five built-in selection
policies, among them Burbano et al.'s reliability-aware predictive
selection, on a scenario that traps memoryless rankers: the two best
machines share a failure domain that faults on the churn cadence. At
churn 2.0 under node crashes the reliability policy's failure memory
keeps the whole domain demoted after the warmup burn, while every other
policy re-joins the restarted trap nodes and pays a covered-failover gap
each time. The gray-node tails are not separated on five seeds, so
nothing is asserted about them.
"""

from conftest import published

MEMORYLESS = ("lo", "go", "ewma", "churn")
TRAP = dict(churn_rate=2.0, fault_family="node_crash")


def test_policy_matrix():
    matrix = published("policy_matrix")

    for metrics in matrix.per_seed(policy="reliability", **TRAP):
        assert metrics["trap_joins"] == 0
        assert metrics["failover_gaps"] == 0
    for policy in MEMORYLESS:
        for metrics in matrix.per_seed(policy=policy, **TRAP):
            assert metrics["trap_joins"] > 0, policy
        assert matrix.mean("failover_gap_p95_ms", policy=policy, **TRAP) > 200.0, policy
