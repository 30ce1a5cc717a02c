"""Exact solver for unit weights on any number of machines.

With unit weights the count matrix of :mod:`.dp_minavg` fixes every
per-scenario total, so the general exact solvers need no configuration
state space of their own: a search node's cost vector is a function of its
count matrix.  ``solve_config`` keeps the unit-weight contract and runs that
search for its objective.
"""

from __future__ import annotations

from .dp_minavg import _walk
from .model import Instance, ObjectiveKind, SolveResult, _objective_kind, _require_unit_weights


def solve_config(inst: Instance, kind: ObjectiveKind = ObjectiveKind.MINMAX) -> SolveResult:
    """Exact optimum (MINMAX or MINAVG) for a unit-weight instance."""
    kind = _objective_kind(kind)
    if kind not in (ObjectiveKind.MINMAX, ObjectiveKind.MINAVG):
        raise ValueError(f"configuration solver handles minmax and minavg, not {kind.value}")
    _require_unit_weights(inst, "configuration solver requires unit weights")
    return _walk(inst, kind)
