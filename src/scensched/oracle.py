"""Exhaustive ground truth: exact optima by enumeration.

The oracle enumerates machine assignments in canonical form (machine labels
appear in first-use order), which visits each partition of the jobs into at
most ``m`` unordered groups exactly once.  It is trusted as the reference for
every solver in the package and imports none of them.

One search, ``_search(inst, kind, limit, visit)``, serves every caller.  It
enters a child only while agg_k(C_k + R_k) < limit, where C_k is scenario
k's cost so far less its offset and R_k the weight of scenario k's jobs
still to place.  Each job still to place costs at least its weight in each
of its scenarios (rank >= 1, weight >= 0), so C_k + R_k never exceeds
scenario k's final cost on a leaf below, and agg (max or sum) is monotone:
the prune drops no leaf whose value is below the limit.

- ``brute_force`` starts the limit at the round robin's value + 1, and each
  leaf below the limit becomes the answer and lowers the limit to its own
  value.  The round robin j -> j mod m is a canonical leaf, so some leaf is
  recorded; after that only strictly better leaves enter.  So the last leaf
  recorded is the first canonical leaf that attains the optimum.
- ``optimal_schedules`` (and ``balance.conjecture_probe``) take the optimum
  from ``brute_force``, then run the search again with the limit fixed at
  the optimum + 1, calling ``visit`` on every optimum in enumeration order.

So the value, the first optimum and the list of optima are those of the
full enumeration.
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


def _search(inst: Instance, kind: ObjectiveKind, limit: int, visit=None):
    """The canonical leaves whose value is below ``limit``, by the module
    docstring's prune.

    Without ``visit``, each such leaf lowers the limit to its own value, and
    the result is (value, assignment) of the last one recorded, or
    (limit, None) if there was none.  With ``visit``, the limit stays fixed
    and ``visit(assign)`` runs on every such leaf in enumeration order;
    ``assign`` is one list reused between calls.
    """
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
    best_assign: tuple[int, ...] | None = None
    last = n - 1

    def rec(j: int, used: int):
        nonlocal limit, best_assign
        wj = w[j]
        ks = job_scens[j]
        if j < last:
            for i in range(min(used + 1, m)):
                row = counts[i]
                for k in ks:
                    bound[k] += wj * row[k]
                    row[k] += 1
                if agg(bound) < limit:
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
            if value >= limit:
                continue
            assign[j] = i
            if visit is None:
                limit = value
                best_assign = tuple(assign)
            else:
                visit(assign)

    rec(0, 0)
    return limit, best_assign


def brute_force(
    inst: Instance, kind: ObjectiveKind, *, guard_bits: float = GUARD_BITS
) -> OracleResult:
    """Exact optimum of the given objective by canonical enumeration.

    Returns the optimal value and the lexicographically first canonical
    optimal schedule; ``optimal_schedules`` lists every optimum.  Guarded by
    the number of canonical assignments, at most ``2**guard_bits`` (see
    ``_check_guard``); the prune visits fewer, but the guard does not count
    on it.
    """
    _check_guard(inst.n, inst.m, guard_bits)
    agg, offsets = _objective(inst, kind)
    round_robin = [j % inst.m for j in range(inst.n)]
    limit = agg([_scenario_cost(inst, round_robin, k) - o for k, o in enumerate(offsets)]) + 1
    best, best_assign = _search(inst, kind, limit)
    assert best_assign is not None  # the round robin is below the limit
    return OracleResult(best_value=best, best_schedule=Schedule(best_assign))


def _visit_optima(inst: Instance, kind: ObjectiveKind, visit) -> None:
    """``visit(assign)`` on every canonical optimum, in enumeration order,
    guarded like :func:`brute_force` at its default; ``assign`` is one list
    reused between calls, so nothing holds the optima at once."""
    _search(inst, kind, brute_force(inst, kind).best_value + 1, visit)


def optimal_schedules(inst: Instance, kind: ObjectiveKind) -> list[Schedule]:
    """All canonical optimal schedules, in enumeration order, guarded like
    :func:`brute_force` at its default.  The first is ``brute_force``'s."""
    optima: list[Schedule] = []
    _visit_optima(inst, kind, lambda assign: optima.append(Schedule(tuple(assign))))
    return optima


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
