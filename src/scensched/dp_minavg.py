"""Exact solver for the scenario-sum objective, and the count-matrix state
space that every exact DP in the package shares.

After the first j jobs are placed, the m x K count matrix Y holds per
machine and scenario the number of placed scenario jobs.  Placing job j on a
machine with row y costs ``sum over k with j in S_k of w_j * (y_k + 1)``, so
future costs depend on Y alone.  Y is kept with its rows sorted, since
machines are interchangeable; a placement is tried once per distinct row,
because identical rows lead to the same next state; and only min(m, n)
machines are kept, because the rest stay empty.  Each stored state links to
its lexicographically least predecessor (previous state, receiving row), and
one optimal assignment is rebuilt by forward replay of those links.

The walk is bound-and-prune.  One scenario alone is solved by round-robin in
weight order; started from a state's column of counts, the same rule gives
lb_k, the least cost of scenario k's jobs still to come (``_bounds``), so
the cost so far plus lb_k never decreases along a placement.  The incumbent
ub is the objective value of the derandomized greedy schedule of
:mod:`.approx`.  A state is dropped only when its bound is strictly greater
than ub; a bound equal to ub stays, since the greedy schedule may itself be
optimal.  A state on a path to an optimum has a bound of at most the
optimum, hence at most ub, and so have all its least-cost predecessors; such
a state therefore keeps the least cost and the least link it has in the
unpruned walk, and the final tie-break and the replay return the same
witness.  The ``max_states`` guard counts the states that survive.

For the sum objective the least total cost per Y is the whole payload, and
Y is dropped when that cost plus the sum of its lb_k exceeds ub.
Sum-regret needs no separate machinery: its minimizers coincide with the
plain sum's, shifted by the constant sum of the standalone scenario optima.
"""

from __future__ import annotations

from heapq import heapreplace

from .approx import _greedy
from .model import GuardExceeded, Instance, Schedule, SolveResult, scenario_optima

DEFAULT_MAX_STATES = 2_000_000


def _start(inst: Instance) -> tuple:
    """The empty count matrix on the min(m, n) machines a schedule can use."""
    return ((0,) * inst.K,) * min(inst.m, inst.n)


def _guard(size: int, max_states: int, j: int, what: str) -> None:
    if size > max_states:
        raise GuardExceeded(f"{what} state layer grew past {max_states} states at job {j + 1}")


def _bounds(inst: Instance) -> tuple:
    """``(totals, lb)``: the derandomized greedy schedule's per-scenario
    totals, whose objective value is the incumbent, and ``lb(state)``, per
    scenario the least cost of its jobs not yet placed in ``state``.

    Scenario k's remaining jobs are the heaviest first and each costs its
    weight times its rank, so the least cost gives each next job the
    smallest free rank, one more than the least count in column k.  That is
    the single-scenario round-robin optimum, started from the column; it
    depends only on the sorted column (whose sum is the number t of placed
    scenario jobs), and is cached per (k, column).
    """
    w = inst.weights
    cache: dict = {}

    def remaining(k: int, column: tuple) -> int:
        key = (k, column)
        cost = cache.get(key)
        if cost is None:
            free = list(column)  # sorted, hence a heap of per-machine counts
            cost = 0
            for j in inst.scenario_jobs[k][sum(column):]:
                rank = free[0] + 1
                cost += w[j] * rank
                heapreplace(free, rank)
            cache[key] = cost
        return cost

    def lb(state: tuple) -> tuple:
        return tuple(remaining(k, tuple(sorted(col))) for k, col in enumerate(zip(*state)))

    return _greedy(inst)[1], lb


def _replay(inst: Instance, chain: list) -> Schedule:
    """Follow ``chain[j] = (count matrix before job j, receiving row)``,
    putting each job on the lowest-index machine whose counts equal the row."""
    machine_rows = list(_start(inst))
    assign = []
    for ks, (prev, r) in zip(inst.job_scenarios, chain):
        assert tuple(sorted(machine_rows)) == prev, "replay drifted off the stored chain"
        i = machine_rows.index(prev[r])
        counts = list(prev[r])
        for k in ks:
            counts[k] += 1
        machine_rows[i] = tuple(counts)
        assign.append(i)
    return Schedule(tuple(assign))


def solve_minavg(inst: Instance, *, max_states: int = DEFAULT_MAX_STATES) -> SolveResult:
    """Exact optimum of the scenario-sum objective."""
    w = inst.weights
    totals, lb = _bounds(inst)
    ub = sum(totals)
    # layers[j]: canonical Y -> (least total cost, previous Y, receiving row).
    layers: list[dict] = [{_start(inst): (0, None, None)}]
    for j, ks in enumerate(inst.job_scenarios):
        wj = w[j]
        nxt: dict = {}
        for state, (value, _, _) in layers[-1].items():
            rows = list(state)
            for r, row in enumerate(state):
                if r and row == state[r - 1]:
                    continue
                cost = value
                counts = list(row)
                for k in ks:
                    counts[k] += 1
                    cost += wj * counts[k]
                rows[r] = tuple(counts)
                new_state = tuple(sorted(rows))
                rows[r] = row
                entry = (cost, state, r)
                old = nxt.get(new_state)
                if old is None or entry < old:
                    nxt[new_state] = entry
        nxt = {y: entry for y, entry in nxt.items() if entry[0] + sum(lb(y)) <= ub}
        _guard(len(nxt), max_states, j, "count-matrix")
        layers.append(nxt)

    state = min(layers[-1], key=lambda s: (layers[-1][s][0], s))
    value = layers[-1][state][0]
    chain = []
    for layer in reversed(layers[1:]):
        _, prev, r = layer[state]
        chain.append((prev, r))
        state = prev
    chain.reverse()
    return SolveResult(value=value, schedule=_replay(inst, chain))


def solve_regret_sum(inst: Instance, *, max_states: int = DEFAULT_MAX_STATES) -> SolveResult:
    """Sum-regret optimum: the scenario-sum optimum shifted by a constant."""
    res = solve_minavg(inst, max_states=max_states)
    return SolveResult(
        value=res.value - sum(scenario_optima(inst)), schedule=res.schedule
    )
