"""Exhaustive ground truth: exact optima by enumeration.

The oracle enumerates machine assignments in canonical form (machine labels
appear in first-use order), which visits each partition of the jobs into at
most ``m`` unordered groups exactly once.  It is deliberately simple -- no
bounding, no pruning -- and is trusted as the reference for every solver in
the package.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .model import GUARD_BITS, GuardExceeded, Instance, ObjectiveKind, Schedule, _objective

if TYPE_CHECKING:
    from fractions import Fraction


class OracleResult(NamedTuple):
    best_value: int
    best_schedule: Schedule
    optima_count: int


def _check_guard(n: int, m: int, guard_bits: float) -> None:
    """GuardExceeded unless n jobs on m machines keep n*log2(m) <= guard_bits."""
    if n * math.log2(m) > guard_bits:
        raise GuardExceeded(
            f"oracle guard: n*log2(m) = {n * math.log2(m):.1f} "
            f"exceeds {guard_bits} (raise guard_bits to override)"
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
    # totals[k] is scenario k's cost less its offset, so a leaf is worth agg(totals)
    totals = [-o for o in offsets]
    counts = [[0] * K for _ in range(m)]
    assign = [0] * n

    best = None
    best_assign: tuple[int, ...] | None = None
    n_opt = 0
    all_optima: list[tuple[int, ...]] = []

    def rec(j: int, used: int):
        nonlocal best, best_assign, n_opt
        if j == n:
            value = agg(totals)
            if best is None or value < best:
                best = value
                best_assign = tuple(assign)
                n_opt = 1
                if keep_all:
                    all_optima.clear()
                    all_optima.append(best_assign)
            elif value == best:
                n_opt += 1
                if keep_all:
                    all_optima.append(tuple(assign))
            return
        wj = w[j]
        ks = job_scens[j]
        for i in range(min(used + 1, m)):
            row = counts[i]
            for k in ks:
                row[k] += 1
                totals[k] += wj * row[k]
            assign[j] = i
            rec(j + 1, used + 1 if i == used else used)
            for k in ks:
                totals[k] -= wj * row[k]
                row[k] -= 1

    rec(0, 0)
    assert best is not None and best_assign is not None
    return best, best_assign, n_opt, all_optima


def brute_force(
    inst: Instance, kind: ObjectiveKind, *, guard_bits: float = GUARD_BITS
) -> OracleResult:
    """Exact optimum of the given objective by canonical enumeration.

    Returns the lexicographically first canonical optimal schedule and the
    number of canonical optima.  Guarded by ``n*log2(m) <= guard_bits``.
    """
    _check_guard(inst.n, inst.m, guard_bits)
    best, best_assign, n_opt, _ = _search(inst, kind, keep_all=False)
    return OracleResult(
        best_value=best, best_schedule=Schedule(best_assign), optima_count=n_opt
    )


def optimal_schedules(
    inst: Instance, kind: ObjectiveKind, *, guard_bits: float = GUARD_BITS
) -> list[Schedule]:
    """All canonical optimal schedules, in enumeration order."""
    _check_guard(inst.n, inst.m, guard_bits)
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
