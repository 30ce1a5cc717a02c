"""Exhaustive ground truth: exact optima by enumeration.

The oracle enumerates machine assignments in canonical form (machine labels
appear in first-use order), which visits each partition of the jobs into at
most ``m`` unordered groups exactly once.  It is trusted as the reference for
every solver in the package and imports none of them.

Its one prune enters a child only while agg_k(C_k + R_k) <= the incumbent,
where C_k is scenario k's cost so far less its offset and R_k the weight of
scenario k's jobs still to place.  This keeps every optimum:

1. each job still to place costs at least its weight in each of its
   scenarios (rank >= 1, weight >= 0), so C_k + R_k never exceeds scenario
   k's final cost on a leaf below, and agg (max or sum) is monotone;
2. the incumbent is the value of a schedule: the round robin j -> j mod m
   until the first leaf is recorded, the best leaf after it;
3. the test is not strict, so every leaf that ties the optimum is still
   visited, in enumeration order.

So the value, the first optimum, the number of optima and their list are
those of the full enumeration.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .model import (
    GUARD_BITS,
    GuardExceeded,
    Instance,
    ObjectiveKind,
    Schedule,
    _objective,
    _scenario_cost,
)

if TYPE_CHECKING:
    from fractions import Fraction


class OracleResult(NamedTuple):
    best_value: int
    best_schedule: Schedule
    optima_count: int


def _check_guard(n: int, m: int, guard_bits: float) -> None:
    """GuardExceeded unless the canonical enumeration of n jobs on m machines
    has at most 2^guard_bits leaves.

    The leaves number sum_{i <= min(n, m)} S(n, i) (Stirling numbers of the
    second kind), at most m^n.  Past that bound the sum is counted one row
    of S(r, .) at a time, r = 1..n; it never decreases from row to row, so
    the count stops at the first row past the limit.  For m >= 2 row r sums
    to at least 2^(r-1), so n > guard_bits + 1 is past it at once, and the
    count takes at most guard_bits + 1 rows.
    """
    if n * math.log2(m) <= guard_bits:
        return
    if n - 1 <= guard_bits:
        width = min(n, m)
        row = [1] + [0] * width  # S(0, i)
        for _ in range(n):
            row = [0] + [i * row[i] + row[i - 1] for i in range(1, width + 1)]
            if math.log2(sum(row)) > guard_bits:
                break
        else:
            return
    raise GuardExceeded(
        f"oracle guard: more than 2^{guard_bits} canonical assignments for n={n}, m={m} "
        "(raise guard_bits to override)"
    )


def iter_canonical_assignments(n: int, m: int):
    """Yield every assignment of 0..n-1 to machines in first-use label order.

    An assignment is canonical when machine i+1 first appears only after
    machine i; permuting machine labels of any assignment yields exactly one
    canonical representative.  Yields lists that are reused between steps --
    copy before storing.
    """
    assign = [0] * n

    def rec(j: int, used: int):
        if j == n:
            yield assign
            return
        for i in range(min(used + 1, m)):
            assign[j] = i
            yield from rec(j + 1, used + 1 if i == used else used)

    yield from rec(0, 0)


def _search(inst: Instance, kind: ObjectiveKind, keep_all: bool):
    n, m, K = inst.n, inst.m, inst.K
    w = inst.weights
    job_scens = inst.job_scenarios
    agg, offsets = _objective(inst, kind)
    # bound[k] is C_k + R_k of the module docstring, so a node's bound and a
    # leaf's value are both agg(bound).  A job of weight w placed behind c
    # scenario-k jobs on its machine adds w * (c + 1) to C_k and takes w from
    # R_k: it adds w * c.
    bound = [sum(w[j] for j in jobs) - o for jobs, o in zip(inst.scenario_jobs, offsets)]
    # canonical labels never pass min(m, n) - 1, so the rest need no row
    counts = [[0] * K for _ in range(min(m, n))]
    assign = [0] * n
    # the round robin j -> j mod m is canonical; the best leaf replaces it
    round_robin = [j % m for j in range(n)]
    incumbent = agg([_scenario_cost(inst, round_robin, k) - o for k, o in enumerate(offsets)])

    best_assign: tuple[int, ...] | None = None
    n_opt = 0
    all_optima: list[tuple[int, ...]] = []
    last = n - 1

    def rec(j: int, used: int):
        nonlocal incumbent, best_assign, n_opt
        wj = w[j]
        ks = job_scens[j]
        if j < last:
            for i in range(min(used + 1, m)):
                row = counts[i]
                for k in ks:
                    bound[k] += wj * row[k]
                    row[k] += 1
                if agg(bound) <= incumbent:
                    assign[j] = i
                    rec(j + 1, used + 1 if i == used else used)
                for k in ks:
                    row[k] -= 1
                    bound[k] -= wj * row[k]
            return
        # the last job: each child is a leaf, evaluated here without a call
        for i in range(min(used + 1, m)):
            row = counts[i]
            for k in ks:
                bound[k] += wj * row[k]
            value = agg(bound)
            for k in ks:
                bound[k] -= wj * row[k]
            if value > incumbent:
                continue
            assign[j] = i
            if value < incumbent or not n_opt:  # the first leaf replaces the round robin
                incumbent = value
                best_assign = tuple(assign)
                n_opt = 1
                if keep_all:
                    all_optima[:] = [best_assign]
            else:
                n_opt += 1
                if keep_all:
                    all_optima.append(tuple(assign))

    rec(0, 0)
    assert best_assign is not None
    return incumbent, best_assign, n_opt, all_optima


def brute_force(
    inst: Instance, kind: ObjectiveKind, *, guard_bits: float = GUARD_BITS
) -> OracleResult:
    """Exact optimum of the given objective by canonical enumeration.

    Returns the lexicographically first canonical optimal schedule and the
    number of canonical optima.  Guarded by the number of canonical
    assignments, at most ``2**guard_bits`` (see ``_check_guard``); the prune
    visits fewer, but the guard does not count on it.
    """
    _check_guard(inst.n, inst.m, guard_bits)
    best, best_assign, n_opt, _ = _search(inst, kind, keep_all=False)
    return OracleResult(
        best_value=best, best_schedule=Schedule(best_assign), optima_count=n_opt
    )


def optimal_schedules(inst: Instance, kind: ObjectiveKind) -> list[Schedule]:
    """All canonical optimal schedules, in enumeration order, guarded like
    :func:`brute_force` at its default."""
    _check_guard(inst.n, inst.m, GUARD_BITS)
    _, _, _, all_optima = _search(inst, kind, keep_all=True)
    return [Schedule(a) for a in all_optima]


def expected_uniform_cost(inst: Instance) -> tuple[tuple[Fraction, ...], Fraction]:
    """Exact expected per-scenario cost under uniform random assignment.

    Placing each job independently and uniformly at random, a scenario job of
    rank r (canonical order within the scenario) expects (r-1)/m earlier
    scenario jobs on its own machine, hence expected position 1 + (r-1)/m.
    Returns the per-scenario expectations and their sum, as exact fractions.
    """
    from fractions import Fraction

    per = []
    m = inst.m
    for jobs_k in inst.scenario_jobs:
        total = Fraction(0)
        for r, j in enumerate(jobs_k):
            total += inst.weights[j] * (1 + Fraction(r, m))
        per.append(total)
    return tuple(per), sum(per, Fraction(0))
