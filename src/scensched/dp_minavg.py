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
of the derandomized greedy schedule of :mod:`.approx`.

The optimum is found by one descent: an iterative depth-first search (n
reaches thousands, so it does not recurse) over nodes (j, Y, C) under a cap
that only falls, starting at the greedy value less one.  It enters a child
only while the child's bound is at most the cap, tries the children least
bound first (ties to the lower row), and drops a pending child whose bound
the cap has fallen below.  A leaf is a schedule within the cap; it becomes
the witness, the cap falls to its value less one, and the descent goes on
from where it is.  A node whose subtree the descent has exhausted is dead:
the subtree depends on (j, Y, C) alone and holds no leaf within the cap of
that moment, nor within any later, lower cap, so one dead set serves the
whole solve and a dead node is never entered again.  Up to the order of
identical rows, a schedule is a root-to-leaf path of placements, and the
bound never decreases along it and ends at the schedule's value; so a
schedule within the final cap keeps every node of its path within every cap,
and the descent, which leaves a path only at a child above the cap or at a
dead node, would have reached its leaf.  When the stack is empty, then, no
schedule beats the last leaf, which is optimal.  Past the start node, each
stack frame holds the count row that the last job on its path went on, so
the frames' rows and the leaf's own spell the leaf's path, and the witness
is replayed forward by placing each job on a machine holding its row; if
there was no leaf, the greedy schedule is optimal.  Every bound is at least
the root bound, so once the cap falls below it no child fits, and the
descent stops at once: after a leaf that meets it, or before its first step
when the greedy value meets it.  A node is entered at most once, since it
stays on the stack until it is proved dead or the descent stops; the
``model.MAX_STATES`` guard, read when the descent runs, bounds the nodes
proved dead in the whole solve, and with them the nodes it enters.
"""

from __future__ import annotations

from heapq import heapreplace
from operator import add, sub

from .approx import _greedy, _place_jobs
from .model import (
    MAX_STATES, GuardExceeded, Instance, ObjectiveKind, Schedule, SolveResult, _objective,
    _scenario_cost,
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

    assign = _greedy(inst)
    return assign, tuple(_scenario_cost(inst, assign, k) for k in range(inst.K)), lb


def _replay(inst: Instance, rows: list, state: tuple) -> Schedule:
    """Places job j, through :func:`.approx._place_jobs`, on the
    lowest-index machine holding the count row ``rows[j]``.  The sorted rows
    must end at ``state``."""
    assign, pool = _place_jobs(inst, lambda j, ks, pool: rows[j])
    ended = sorted(row for row, machines in pool.items() for _ in machines)
    assert ended == list(state), "replay ended off the search's final state"
    return Schedule(assign)


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
    ub, root = value(fold(totals)), value(fold(lb(_start(inst))))

    def children(node: tuple, cap: int) -> list:
        """(bound, row, child) for each child of node whose bound is at most
        cap, where row is the count row the job goes on, the least bound and
        then the lowest row last."""
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
                kept.append((bound, row, (j + 1, child, tuple(c2))))
        return sorted(kept, reverse=True)

    # the descent: each frame holds a node, the row its job went on and the
    # node's untried children, so the stack past the start spells the path
    cap, dead, leaf = ub - 1, set(), None
    start = (0, _start(inst), (0,) * len(opts))
    stack = [(start, None, children(start, cap))]
    while stack and cap >= root:
        node, _, todo = stack[-1]
        if not todo:
            dead.add(node)
            if len(dead) > MAX_STATES:
                raise GuardExceeded(f"count-matrix search guard: more than MAX_STATES="
                                    f"{MAX_STATES} states proved dead at cap {cap}")
            stack.pop()
            continue
        bound, row, child = todo.pop()
        if bound > cap:
            continue
        if child[0] == inst.n:  # a leaf, whose bound is its value
            cap, leaf = bound - 1, ([frame[1] for frame in stack[1:]] + [row], child[1])
        elif child not in dead:
            stack.append((child, row, children(child, cap)))
    schedule = _replay(inst, *leaf) if leaf else Schedule(assign)
    return SolveResult(value=cap + 1, schedule=schedule)


def solve_minavg(inst: Instance) -> SolveResult:
    """Exact optimum of the scenario-sum objective."""
    return _walk(inst, ObjectiveKind.MINAVG)


def solve_regret_sum(inst: Instance) -> SolveResult:
    """Exact optimum of the sum-regret objective, with the witness of
    :func:`solve_minavg`: the two differ by a constant."""
    return _walk(inst, ObjectiveKind.REGRET_SUM)
