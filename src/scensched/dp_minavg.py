"""Exact solver for the scenario-sum objectives, and the count-matrix search
that every exact solver in the package runs.

After the first j jobs are placed, the m x K count matrix Y holds per
machine and scenario the number of placed scenario jobs.  Placing job j on a
machine with row y costs ``w_j * (y_k + 1)`` in each scenario k that holds
j, so future costs depend on Y alone.  Y is kept with its rows sorted, since
machines are interchangeable; a placement is tried once per distinct row,
because identical rows lead to the same next state; and only min(m, n)
machines are kept, because the rest stay empty.

Every objective is ``agg(C_k - offsets_k)`` over the per-scenario totals C
(``model._objective``), and never decreases as a total grows.  The search
(``_walk``) adds scenario k's costs into coordinate ``dims[k]`` of a cost
vector and minimizes max_d(C_d - opts_d).  When agg is max (min-max,
max-regret) there is one coordinate per scenario and opts are the offsets.
When agg is sum (the sum, sum-regret) one coordinate holds all scenarios and
its offset is the sum of the offsets: a constant that shifts every cap,
bound and value alike, so sum-regret visits the sum's nodes in the sum's
order and returns the sum's witness.

One scenario alone is solved by round-robin in weight order; started from a
state's column of counts, the same rule gives lb_k, the least cost of
scenario k's jobs still to come (``_bounds``), so the bound
max_d(C_d + lb_d - opts_d), with lb folded like the costs, never decreases
along a placement and equals the value at a leaf.  At the empty count matrix
lb is the vector of scenario optima opt_k, and the bound there, the root
bound, is below every schedule: max_k opt_k for min-max, the sum of the
opt_k for the sum, 0 for both regrets.  The incumbent is the objective value
of the derandomized greedy schedule of :mod:`.approx`.  When it equals the
root bound the greedy schedule is optimal and is returned at once.

Otherwise the optimum is found by decision.  ``search(cap)`` is an
iterative depth-first search (n reaches thousands, so it does not recurse)
over nodes (j, Y, C); it enters a child only while the child's bound is at
most cap, tries the children least bound first (ties to the lower sorted
row), and returns its first leaf, whose value is at most cap.  A node whose
subtree it has exhausted without a leaf is dead for the rest of that call:
the subtree depends on (j, Y, C) and cap alone, so it holds no leaf
wherever it is reached again.  A "no" is therefore a proof that no schedule
has value at most cap.  Up to the order of identical rows, a schedule is a
root-to-leaf path of placements, and the bound never decreases along it and
ends at the schedule's value; so a schedule within the cap keeps every node
of its path within the cap, and the search, which leaves a path only at a
child above the cap or at a dead node, would have reached its leaf.  A node
is entered at most once per call, since it either leads to the leaf that
ends the call or is proved dead.  The ``model.MAX_STATES`` guard, read when
a search runs, bounds the nodes one call proves dead, and with them the
nodes it enters.

Bisection keeps lo <= optimum <= ub, where ub is the value of a known
schedule: lo starts at the root bound, ub at the greedy value.  The first
cap is the root bound, and each later one lies in [lo, ub - 1].  A leaf
lowers ub to its value, which is at most cap; a "no" raises lo to cap + 1.
Either way the gap shrinks, and the loop ends when lo == ub, at the optimum.
Its witness is the last leaf found, whose value is ub, replayed forward from
the leaf's sorted-row digits; if no search found a leaf, it is the greedy
schedule.
"""

from __future__ import annotations

from heapq import heapreplace
from operator import add, sub

from .approx import _greedy, _place_jobs
from .model import (
    MAX_STATES, GuardExceeded, Instance, ObjectiveKind, Schedule, SolveResult, _objective,
)


def _start(inst: Instance) -> tuple:
    """The empty count matrix on the min(m, n) machines a schedule can use."""
    return ((0,) * inst.K,) * min(inst.m, inst.n)


def _bounds(inst: Instance) -> tuple:
    """``(assign, totals, lb)``: the derandomized greedy assignment and its
    per-scenario totals, whose objective value is the incumbent, and
    ``lb(state)``, per scenario the least cost of its jobs not yet placed in
    ``state``.

    Scenario k's remaining jobs are the heaviest first and each costs its
    weight times its rank, so the least cost gives each next job the
    smallest free rank, one more than the least count in column k.  That is
    the single-scenario round-robin optimum, started from the column; it
    depends only on the column's counts (whose sum is the number t of placed
    scenario jobs), and is cached per (k, column).
    """
    cache: dict = {}

    def remaining(k: int, column: tuple) -> int:
        cost = cache.get((k, column))
        if cost is None:
            free = sorted(column)  # a heap of per-machine counts
            cost = 0
            for j in inst.scenario_jobs[k][sum(column):]:
                rank = free[0] + 1
                cost += inst.weights[j] * rank
                heapreplace(free, rank)
            cache[k, column] = cost
        return cost

    def lb(state: tuple) -> tuple:
        return tuple(map(remaining, range(inst.K), zip(*state)))

    return (*_greedy(inst), lb)


def _replay(inst: Instance, digits: list, state: tuple) -> Schedule:
    """Places job j on the row at sorted position ``digits[j]``, through
    :func:`.approx._place_jobs`, on that row's lowest-index machine; the row
    is found by walking the pool's distinct rows in sorted order, each
    covering as many positions as it has machines.  The sorted rows must end
    at ``state``."""

    def at_digit(j: int, ks: tuple, pool: dict) -> tuple:
        r = digits[j]
        for row in sorted(pool):
            r -= len(pool[row])
            if r < 0:
                return row

    assign, pool = _place_jobs(inst, at_digit)
    rows = sorted(row for row, machines in pool.items() for _ in machines)
    assert rows == list(state), "replay ended off the search's final state"
    return Schedule(assign)


def _meets_root(ub: int, root: int) -> bool:
    """Whether the incumbent ub equals the root bound, the objective of the
    scenario optima, which no schedule beats: then the greedy schedule is
    optimal and no search runs."""
    return ub == root


def _walk(inst: Instance, kind: ObjectiveKind) -> SolveResult:
    """The least objective value of ``kind`` over all schedules, and a
    schedule attaining it: the least max_d(C_d - opts_d), where scenario k's
    costs add into coordinate ``dims[k]`` of C."""
    agg, offsets = _objective(inst, kind)
    if agg is max:
        dims, opts = range(inst.K), offsets
    else:
        dims, opts = (0,) * inst.K, (sum(offsets),)

    def fold(per_scenario) -> list:
        c = [0] * len(opts)
        for d, x in zip(dims, per_scenario):
            c[d] += x
        return c

    def value(c) -> int:
        return max(map(sub, c, opts))

    assign, totals, lb = _bounds(inst)
    ub = value(fold(totals))
    lo = value(fold(lb(_start(inst))))
    if _meets_root(ub, lo):
        return SolveResult(value=ub, schedule=Schedule(assign))

    def children(node: tuple, cap: int) -> list:
        """(bound, row, child) for each child of node whose bound is at most
        cap, the least bound and then the lowest sorted row last."""
        j, state, c = node
        ks, wj = inst.job_scenarios[j], inst.weights[j]
        kept = []
        for r, row in enumerate(state):
            if r and row == state[r - 1]:
                continue
            counts, c2 = list(row), list(c)
            for k in ks:
                counts[k] += 1
                c2[dims[k]] += wj * counts[k]
            child = tuple(sorted(state[:r] + (tuple(counts),) + state[r + 1:]))
            bound = value(map(add, c2, fold(lb(child))))
            if bound <= cap:
                kept.append((bound, r, (j + 1, child, tuple(c2))))
        return sorted(kept, reverse=True)

    def search(cap: int):
        """``(value, digits, state)`` of the first leaf of value at most cap,
        where digit j is the sorted row that received job j, or None when no
        schedule has value at most cap."""
        dead, digits = set(), []
        root = (0, _start(inst), (0,) * len(opts))
        stack = [(root, children(root, cap))]  # (node, untried children), root first
        while stack:
            node, todo = stack[-1]
            if not todo:
                dead.add(node)
                if len(dead) > MAX_STATES:
                    raise GuardExceeded(f"count-matrix search guard: more than MAX_STATES="
                                        f"{MAX_STATES} states proved dead at cap {cap}")
                stack.pop()
                del digits[-1:]
                continue
            _, r, child = todo.pop()
            if child[0] == inst.n:
                return value(child[2]), digits + [r], child[1]
            if child not in dead:
                digits.append(r)
                stack.append((child, children(child, cap)))
        return None

    schedule, cap = Schedule(assign), lo
    while True:
        found = search(cap)
        if found:
            ub, digits, state = found
            schedule = _replay(inst, digits, state)
        else:
            lo = cap + 1
        if lo == ub:
            return SolveResult(value=ub, schedule=schedule)
        cap = (lo + ub - 1) // 2


def solve_minavg(inst: Instance) -> SolveResult:
    """Exact optimum of the scenario-sum objective."""
    return _walk(inst, ObjectiveKind.MINAVG)


def solve_regret_sum(inst: Instance) -> SolveResult:
    """Exact optimum of the sum-regret objective, with the witness of
    :func:`solve_minavg`: the two differ by a constant."""
    return _walk(inst, ObjectiveKind.REGRET_SUM)
