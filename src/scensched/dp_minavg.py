"""Exact solver for the scenario-sum objectives, and the count-matrix walk
that every exact DP in the package runs.

After the first j jobs are placed, the m x K count matrix Y holds per
machine and scenario the number of placed scenario jobs.  Placing job j on a
machine with row y costs ``w_j * (y_k + 1)`` in each scenario k that holds
j, so future costs depend on Y alone.  Y is kept with its rows sorted, since
machines are interchangeable; a placement is tried once per distinct row,
because identical rows lead to the same next state; and only min(m, n)
machines are kept, because the rest stay empty.

Every objective is ``agg(C_k - offsets_k)`` over the per-scenario totals C
(``model._objective``), and never decreases as a total grows.  The walk
(``_walk``) adds scenario k's costs into coordinate ``dims[k]`` of a cost
vector and minimizes max_d(C_d - opts_d).  When agg is max (min-max,
max-regret) there is one coordinate per scenario and opts are the offsets.
When agg is sum (the sum, sum-regret) one coordinate holds all scenarios and
its offset is the sum of the offsets: a constant that shifts the incumbent,
every bound and the final minimum alike, so sum-regret keeps the sum's
states and paths and returns the sum's witness.  A state (Y, C) is
useless when another state with the same Y has a componentwise smaller or
equal C, so each Y keeps its Pareto front of C vectors (on one coordinate,
the least total; with unit weights Y fixes C).  Only the live layer is
kept.  Each vector carries one int path, whose digit j in base min(m, n) is
the sorted row that received job j, along its lexicographically least link
(previous Y, previous C, receiving row).  States are read in sorted order,
each front is sorted (``_pareto`` builds it so), and from one state two
distinct rows lead to distinct next states (unless the job is in no
scenario, when every row gives the same vector and row 0 comes first), so
the first link found into a vector is its least.  The optimum's path is
replayed forward into one optimal assignment.

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
vectors above ub, each kept vector has the same least link and path, and
the optimum, at most ub, keeps its witness.  The ``model.MAX_STATES``
guard, read when the walk is called, counts the vectors that survive.

The walk starts with a root check.  At the empty count matrix lb is the
vector of scenario optima opt_k, so max_d(fold(opt)_d - opts_d) bounds every
schedule from below: max_k opt_k for min-max, the sum of the opt_k for the
sum, 0 for both regrets.  When ub equals this root bound the greedy schedule
is optimal, and it is returned without walking any layer.  The value is the
walk's; the witness is the greedy assignment rather than the walk's path,
and the guard is not reached.
"""

from __future__ import annotations

from heapq import heapreplace
from operator import add, le, sub

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

    return (*_greedy(inst), lb)


def _pareto(bucket: dict) -> dict:
    """The entries whose keys no other key dominates componentwise."""
    front: list = []
    for c in sorted(bucket):
        # a dominating vector sorts first, so it is already in the front
        if not any(all(map(le, f, c)) for f in front):
            front.append(c)
    return {c: bucket[c] for c in front}


def _replay(inst: Instance, path: int, state: tuple) -> Schedule:
    """Read ``path`` digit by digit in base min(m, n): digit j is the
    position, among the sorted rows, of the row that received job j.  The
    job is placed through :func:`.approx._place_jobs`, on that row's
    lowest-index machine; the row is found by walking the pool's distinct
    rows in sorted order, each covering as many positions as it has
    machines.  The sorted rows must end at ``state``."""
    base = min(inst.m, inst.n)

    def at_digit(j: int, ks: tuple, pool: dict) -> tuple:
        r = path // base ** j % base
        for row in sorted(pool):
            r -= len(pool[row])
            if r < 0:
                return row

    assign, pool = _place_jobs(inst, at_digit)
    rows = tuple(sorted(row for row, machines in pool.items() for _ in machines))
    assert rows == state, "replay ended off the walk's final state"
    return Schedule(assign)


def _meets_root(ub: int, root: int) -> bool:
    """Whether the incumbent ub equals the root bound, the objective of the
    scenario optima, which no schedule beats: then the greedy schedule is
    optimal and the layered walk does not run."""
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
    D = len(opts)

    def fold(per_scenario) -> list:
        c = [0] * D
        for d, x in zip(dims, per_scenario):
            c[d] += x
        return c

    assign, totals, lb = _bounds(inst)
    ub = max(map(sub, fold(totals), opts))
    if _meets_root(ub, max(map(sub, fold(lb(_start(inst))), opts))):
        return SolveResult(value=ub, schedule=Schedule(assign))
    w = inst.weights
    base = min(inst.m, inst.n)
    # canonical Y -> {C on Y's front: path}; digit j of path, in that base, is
    # the sorted row that received job j.  States and fronts are read in
    # sorted order, so the first path into a vector is its least link.
    layer: dict = {_start(inst): {(0,) * D: 0}}
    for j, ks in enumerate(inst.job_scenarios):
        wj = w[j]
        place = base ** j
        nxt: dict = {}
        for state in sorted(layer):
            front = layer[state]
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
                step = r * place
                for c, path in front.items():
                    c2 = tuple(map(add, c, inc))
                    if c2 not in bucket:
                        bucket[c2] = path + step
        layer = {}
        for state, bucket in nxt.items():
            # C survives while C_d + lb_d - opts_d <= ub in every coordinate d
            room = [ub + o - b for o, b in zip(opts, fold(lb(state)))]
            bucket = {c: path for c, path in bucket.items() if all(map(le, c, room))}
            if bucket:
                layer[state] = _pareto(bucket) if len(bucket) > 1 else bucket
        if sum(map(len, layer.values())) > MAX_STATES:
            raise GuardExceeded(f"count-matrix state layer grew past {MAX_STATES} states "
                                f"at job {j + 1}")

    value, state, c = min(
        (max(map(sub, c, opts)), state, c)
        for state, front in layer.items()
        for c in front
    )
    return SolveResult(value=value, schedule=_replay(inst, layer[state][c], state))


def solve_minavg(inst: Instance) -> SolveResult:
    """Exact optimum of the scenario-sum objective."""
    return _walk(inst, ObjectiveKind.MINAVG)


def solve_regret_sum(inst: Instance) -> SolveResult:
    """Exact optimum of the sum-regret objective, with the witness of
    :func:`solve_minavg`: the two differ by a constant."""
    return _walk(inst, ObjectiveKind.REGRET_SUM)
