"""Exact solver for unit weights on any number of machines.

With unit weights the count matrix of :mod:`.dp_minavg` fixes every
per-scenario total, so the general exact solvers need no configuration
state space of their own: each of their cost fronts holds a single vector.
``solve_config`` keeps the unit-weight contract and hands the instance to
the solver for its objective.
"""

from __future__ import annotations

from .dp_minavg import DEFAULT_MAX_STATES, solve_minavg
from .dp_minmax import solve_pseudo
from .model import Instance, ObjectiveKind, SolveResult


def solve_config(
    inst: Instance,
    kind: ObjectiveKind = ObjectiveKind.MINMAX,
    *,
    max_states: int = DEFAULT_MAX_STATES,
) -> SolveResult:
    """Exact optimum (MINMAX or MINAVG) for a unit-weight instance."""
    if kind not in (ObjectiveKind.MINMAX, ObjectiveKind.MINAVG):
        raise ValueError(f"configuration solver handles minmax and minavg, not {kind.value}")
    if any(w != 1 for w in inst.weights):
        raise ValueError("configuration solver requires unit weights")
    if kind is ObjectiveKind.MINMAX:
        return solve_pseudo(inst, kind, max_states=max_states)
    return solve_minavg(inst, max_states=max_states)
