"""Exact pseudopolynomial solver for the min-max (and max-regret) objective,
plus the rounding wrapper that turns it into an approximation scheme.

Both objectives enter the count-matrix search of :mod:`.dp_minavg`
directly.  Their aggregate is max, so the search keeps one cost coordinate
per scenario, offset by 0 for min-max and by the scenario optima opt_k for
max-regret; a child is entered only while every coordinate's bound
C_k + lb_k - offset_k fits the cap, and bisection on the cap finds the least
max_k(C_k - offset_k).

The rounding wrapper scales weights by rho = W*eps/(m*n^2) and rounds up:
the exact optimum of the rounded instance, evaluated under original weights,
is within a factor 1+eps of the true optimum, and the rounded weights are at
most m*n^2/eps + 1.  When rho <= 1 rounding cannot shrink any weight, so the
instance is solved as it is.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .dp_minavg import _walk
from .model import Instance, ObjectiveKind, Schedule, SolveResult, _objective_kind, evaluate

if TYPE_CHECKING:
    from fractions import Fraction


def solve_pseudo(inst: Instance, kind: ObjectiveKind = ObjectiveKind.MINMAX) -> SolveResult:
    """Exact optimum for MINMAX or REGRET_MAX by the count-matrix search."""
    kind = _objective_kind(kind)
    if kind not in (ObjectiveKind.MINMAX, ObjectiveKind.REGRET_MAX):
        raise ValueError(f"solve_pseudo handles minmax and regret-max, not {kind.value}")
    return _walk(inst, kind)


class FptasResult(NamedTuple):
    """Approximation result: value is under the *original* weights."""

    value: int
    schedule: Schedule
    rounded: Instance


def fptas(inst: Instance, eps: Fraction | int | str) -> FptasResult:
    """(1+eps)-approximation for MINMAX via weight rounding.

    Rounds each weight to ceil(w_j / rho) with rho = W*eps/(m*n^2), solves the
    rounded instance exactly, and reports that schedule's cost under the
    original weights.  When rho <= 1 the instance itself is solved and
    returned as ``rounded``.  eps must be positive and the largest weight
    nonzero.  Zero weights round to zero and keep their place at the end of
    the order.
    """
    from fractions import Fraction

    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    W = inst.max_weight
    if W == 0:
        raise ValueError("largest weight must be positive")
    n, m = inst.n, inst.m
    # ceil(w / rho) = ceil(w * m * n^2 * eps.den / (W * eps.num)), exactly.
    num = m * n * n * eps.denominator
    den = W * eps.numerator
    if den <= num:
        rounded = inst  # rho <= 1: rounding up would scale weights up
    else:
        rounded = Instance(
            m=m,
            weights=tuple(-((-wj * num) // den) for wj in inst.weights),
            scenarios=inst.scenarios,
            original_order=inst.original_order,
        )
    result = solve_pseudo(rounded, ObjectiveKind.MINMAX)
    value = evaluate(inst, result.schedule, ObjectiveKind.MINMAX).aggregate
    return FptasResult(value=value, schedule=result.schedule, rounded=rounded)
