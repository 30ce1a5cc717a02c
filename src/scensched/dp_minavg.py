"""Exact solver for the scenario-sum objective, and the count-matrix walk that
every exact DP in the package runs.

After the first j jobs are placed, the m x K count matrix Y holds per
machine and scenario the number of placed scenario jobs.  Placing job j on a
machine with row y costs ``w_j * (y_k + 1)`` in each scenario k that holds
j, so future costs depend on Y alone.  Y is kept with its rows sorted, since
machines are interchangeable; a placement is tried once per distinct row,
because identical rows lead to the same next state; and only min(m, n)
machines are kept, because the rest stay empty.

Every objective reads only the per-scenario totals and never decreases as a
total grows.  The walk (``_walk``) adds scenario k's costs into coordinate
``dims[k]`` of a cost vector C and minimizes max_d(C_d - opts_d): min-max is
one coordinate per scenario with offsets 0, max-regret the same with the
scenario optima as offsets, and the sum one coordinate with offset 0.  A
state (Y, C) is useless when another state with the same Y has a
componentwise smaller or equal C, so each Y keeps its Pareto front of C
vectors (on one coordinate, the least total; with unit weights Y fixes C).
Each vector keeps its lexicographically least link (previous Y, previous C,
receiving row), and one optimal assignment is rebuilt by forward replay.

The walk is bound-and-prune.  One scenario alone is solved by round-robin in
weight order; started from a state's column of counts, the same rule gives
lb_k, the least cost of scenario k's jobs still to come (``_bounds``), so
max_d(C_d + lb_d - opts_d), with lb folded like the costs, never decreases
along a placement.  The incumbent ub is the objective value of the
derandomized greedy schedule of :mod:`.approx`.  A vector is dropped only
when its bound is strictly greater than ub; a bound equal to ub stays, since
the greedy schedule may itself be optimal.  A vector that survives has all
its predecessors surviving, and a vector that dominated it would have
survived too.  Each front is therefore the unpruned walk's front less the
vectors above ub, each kept vector has the same least link, and the optimum,
at most ub, keeps its witness.  The ``max_states`` guard counts the vectors
that survive.

Sum-regret needs no walk of its own: its minimizers coincide with the plain
sum's, shifted by the constant sum of the standalone scenario optima.
"""

from __future__ import annotations

from heapq import heapreplace
from operator import add, le, sub

from .approx import _greedy
from .model import GuardExceeded, Instance, Schedule, SolveResult, scenario_optima

DEFAULT_MAX_STATES = 2_000_000


def _start(inst: Instance) -> tuple:
    """The empty count matrix on the min(m, n) machines a schedule can use."""
    return ((0,) * inst.K,) * min(inst.m, inst.n)


def _bounds(inst: Instance) -> tuple:
    """``(totals, lb)``: the derandomized greedy schedule's per-scenario
    totals, whose objective value is the incumbent, and ``lb(state)``, per
    scenario the least cost of its jobs not yet placed in ``state``.

    Scenario k's remaining jobs are the heaviest first and each costs its
    weight times its rank, so the least cost gives each next job the
    smallest free rank, one more than the least count in column k.  That is
    the single-scenario round-robin optimum, started from the column; it
    depends only on the column's counts (whose sum is the number t of placed
    scenario jobs), and is cached per (k, column).
    """
    w = inst.weights
    scenarios = range(inst.K)
    cache: dict = {}

    def remaining(k: int, column: tuple) -> int:
        key = (k, column)
        cost = cache.get(key)
        if cost is None:
            free = sorted(column)  # a heap of per-machine counts
            cost = 0
            for j in inst.scenario_jobs[k][sum(column):]:
                rank = free[0] + 1
                cost += w[j] * rank
                heapreplace(free, rank)
            cache[key] = cost
        return cost

    def lb(state: tuple) -> tuple:
        return tuple(map(remaining, scenarios, zip(*state)))

    return _greedy(inst)[1], lb


def _pareto(bucket: dict) -> dict:
    """The entries whose keys no other key dominates componentwise."""
    front: list = []
    for c in sorted(bucket):
        # a dominating vector sorts first, so it is already in the front
        if not any(all(map(le, f, c)) for f in front):
            front.append(c)
    return {c: bucket[c] for c in front}


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


def _walk(inst: Instance, dims, opts: tuple, max_states: int) -> SolveResult:
    """The least max_d(C_d - opts_d) over all schedules, where scenario k's
    costs add into coordinate ``dims[k]`` of C, and a schedule attaining it."""
    D = len(opts)

    def fold(per_scenario) -> list:
        c = [0] * D
        for d, x in zip(dims, per_scenario):
            c[d] += x
        return c

    w = inst.weights
    totals, lb = _bounds(inst)
    ub = max(map(sub, fold(totals), opts))
    # layers[j]: canonical Y -> {C on Y's front: (previous Y, previous C, row)}.
    layers: list[dict] = [{_start(inst): {(0,) * D: None}}]
    for j, ks in enumerate(inst.job_scenarios):
        wj = w[j]
        nxt: dict = {}
        for state, front in layers[-1].items():
            rows = list(state)
            for r, row in enumerate(state):
                if r and row == state[r - 1]:
                    continue
                inc = [0] * D
                counts = list(row)
                for k in ks:
                    counts[k] += 1
                    inc[dims[k]] += wj * counts[k]
                rows[r] = tuple(counts)
                new_state = tuple(sorted(rows))
                rows[r] = row
                bucket = nxt.setdefault(new_state, {})
                for c in front:
                    c2 = tuple(map(add, c, inc))
                    link = (state, c, r)
                    old = bucket.get(c2)
                    if old is None or link < old:
                        bucket[c2] = link
        kept: dict = {}
        for state, bucket in nxt.items():
            # C survives while C_d + lb_d - opts_d <= ub in every coordinate d
            room = [ub + o - b for o, b in zip(opts, fold(lb(state)))]
            bucket = {c: link for c, link in bucket.items() if all(map(le, c, room))}
            if bucket:
                kept[state] = _pareto(bucket) if len(bucket) > 1 else bucket
        if sum(map(len, kept.values())) > max_states:
            raise GuardExceeded(f"count-matrix state layer grew past {max_states} states "
                                f"at job {j + 1}")
        layers.append(kept)

    value, state, c = min(
        (max(map(sub, c, opts)), state, c)
        for state, front in layers[-1].items()
        for c in front
    )
    chain = []
    for layer in reversed(layers[1:]):
        prev, c, r = layer[state][c]
        chain.append((prev, r))
        state = prev
    chain.reverse()
    return SolveResult(value=value, schedule=_replay(inst, chain))


def solve_minavg(inst: Instance, *, max_states: int = DEFAULT_MAX_STATES) -> SolveResult:
    """Exact optimum of the scenario-sum objective."""
    return _walk(inst, (0,) * inst.K, (0,), max_states)


def solve_regret_sum(inst: Instance, *, max_states: int = DEFAULT_MAX_STATES) -> SolveResult:
    """Sum-regret optimum: the scenario-sum optimum shifted by a constant."""
    res = solve_minavg(inst, max_states=max_states)
    return SolveResult(
        value=res.value - sum(scenario_optima(inst)), schedule=res.schedule
    )
