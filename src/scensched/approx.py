"""Approximation algorithms with certified ratios.

Two-machine max objective: putting every job on one machine costs at most
twice the optimum, because the single-machine cost of a scenario is at most
twice its two-machine optimum.

Sum objective: assigning every job uniformly at random is a
(3/2 - 1/(2m))-approximation per scenario, hence overall by linearity.  The
derandomization is a greedy pass in canonical order placing each job where
its immediate cost increment is smallest: under uniform placement of the
remaining jobs their expected increments do not depend on the current
decision (each later job expects (rank-1)/m earlier scenario jobs on its
machine regardless), so the greedy choice minimizes the conditional
expectation and the final cost never exceeds the uniform expectation.
"""

from __future__ import annotations

from .model import Instance, Schedule


def minmax_all_on_one(inst: Instance) -> Schedule:
    """All jobs on machine 0; a 2-approximation for the max objective, m=2."""
    if inst.m != 2:
        raise ValueError("the all-on-one guarantee is stated for two machines only")
    return Schedule((0,) * inst.n)


def minavg_derandomized(inst: Instance) -> Schedule:
    """Greedy conditional-expectation schedule for the sum objective.

    Job j goes to a machine minimizing the count of earlier scenario-mates,
    ties to the lowest machine index; the resulting sum is at most
    (3/2 - 1/(2m)) times the optimum and never exceeds the exact uniform
    expectation from the oracle module.
    """
    return Schedule(_greedy(inst)[0])


def _greedy(inst: Instance) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The derandomized assignment and its per-scenario totals.

    An empty machine scores 0, so no job goes past the first empty machine:
    the scan keeps a count row for each machine used so far and for the
    first unused one, opened when the row before it takes its first job
    (the oracle's first-use rule).  It gives the same assignment as a scan
    of all m machines, at a cost that grows with the machines used.
    """
    w = inst.weights
    counts = [[0] * inst.K]
    totals = [0] * inst.K
    assign = []
    for j, ks in enumerate(inst.job_scenarios):
        best = min(range(len(counts)), key=lambda i: sum(counts[i][k] for k in ks))
        row = counts[best]
        for k in ks:
            row[k] += 1
            totals[k] += w[j] * row[k]
        if best == len(counts) - 1 and len(counts) < inst.m:
            counts.append([0] * inst.K)
        assign.append(best)
    return tuple(assign), tuple(totals)
