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

from heapq import heappop, heappush

from .model import Instance, Schedule, _scenario_cost


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


def _place_jobs(inst: Instance, choose) -> tuple:
    """``(assign, pool)``: each job in canonical order goes on a machine
    picked by count row, the one rule of the greedy and of the walk's replay.

    Machines are identical, so a machine is known by its count row, per
    scenario the jobs it holds.  ``pool`` maps each row to a min-heap of the
    machines that hold it, and starts as the all-zero row over the min(m, n)
    machines a schedule can use.  For job j, ``choose(j, ks, pool)`` names a
    row of the pool; the job goes on the lowest-index machine holding that
    row, and the machine moves to the row with one more job in each scenario
    of ``ks``.
    """
    pool = {(0,) * inst.K: list(range(min(inst.m, inst.n)))}
    assign = []
    for j, ks in enumerate(inst.job_scenarios):
        row = choose(j, ks, pool)
        machines = pool[row]
        i = heappop(machines)
        if not machines:
            del pool[row]
        counts = list(row)
        for k in ks:
            counts[k] += 1
        heappush(pool.setdefault(tuple(counts), []), i)
        assign.append(i)
    return tuple(assign), pool


def _greedy(inst: Instance) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The derandomized assignment and its per-scenario totals.

    A machine scores the jobs of the job's scenarios it already holds, which
    its count row alone fixes, so machines with equal rows tie.  Each job
    therefore scans the distinct rows of :func:`_place_jobs`' pool, O(distinct
    rows) per job, for the least score, ties to the row whose lowest machine
    has the lowest index.  That is the assignment of a scan of all machines.
    """

    def cheapest(j: int, ks: tuple, pool: dict) -> tuple:
        return min(pool, key=lambda row: (sum(row[k] for k in ks), pool[row][0]))

    assign, _ = _place_jobs(inst, cheapest)
    return assign, tuple(_scenario_cost(inst, assign, k) for k in range(inst.K))
