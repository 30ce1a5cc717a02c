"""Exact pseudopolynomial solver for the min-max (and max-regret) objective,
plus the rounding wrapper that turns it into an approximation scheme.

The solver walks the count-matrix state space of :mod:`.dp_minavg`.  Both
objectives read only the per-scenario totals C and are monotone in them, and
future cost increments depend on the count matrix Y alone, so a state (Y, C)
is useless when another state with the same Y has a componentwise smaller or
equal C.  Each Y therefore keeps its Pareto front of C vectors, each vector
with its lexicographically least link (previous Y, previous C, receiving
row) for the forward replay.  With unit weights Y fixes C and every front
holds one vector.

The fronts are pruned with the bounds of :mod:`.dp_minavg`: a vector C at Y
is dropped when max_k(C_k + lb_k(Y) - opt_k) is strictly greater than the
greedy incumbent ub, with opt_k the scenario optima for max-regret and 0 for
min-max.  That quantity never decreases along a placement, so a vector that
survives has all its predecessors surviving, and a vector that dominated it
would have survived too.  Each front is therefore the unpruned walk's front
less the vectors above ub, each kept vector has the same least link, and the
optimum, at most ub, keeps its witness.  The ``max_states`` guard counts
the vectors that survive.

The rounding wrapper scales weights by rho = W*eps/(m*n^2) and rounds up:
the exact optimum of the rounded instance, evaluated under original weights,
is within a factor 1+eps of the true optimum, and the rounded weights are at
most m*n^2/eps + 1.  When rho <= 1 rounding cannot shrink any weight, so the
instance is solved as it is.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, le, sub

from .dp_minavg import DEFAULT_MAX_STATES, _bounds, _guard, _replay, _start
from .model import (
    Instance,
    ObjectiveKind,
    Schedule,
    SolveResult,
    evaluate,
    scenario_optima,
)


def _pareto(bucket: dict) -> dict:
    """The entries whose keys no other key dominates componentwise."""
    front: list = []
    for c in sorted(bucket):
        # a dominating vector sorts first, so it is already in the front
        if not any(all(map(le, f, c)) for f in front):
            front.append(c)
    return {c: bucket[c] for c in front}


def solve_pseudo(
    inst: Instance,
    kind: ObjectiveKind = ObjectiveKind.MINMAX,
    *,
    max_states: int = DEFAULT_MAX_STATES,
) -> SolveResult:
    """Exact optimum for MINMAX or REGRET_MAX over count-matrix cost fronts."""
    if kind not in (ObjectiveKind.MINMAX, ObjectiveKind.REGRET_MAX):
        raise ValueError(f"load/cost solver handles minmax and regret-max, not {kind.value}")
    K = inst.K
    w = inst.weights
    opts = scenario_optima(inst) if kind is ObjectiveKind.REGRET_MAX else (0,) * K
    totals, lb = _bounds(inst)
    ub = max(map(sub, totals, opts))
    # layers[j]: canonical Y -> {C on Y's front: (previous Y, previous C, row)}.
    layers: list[dict] = [{_start(inst): {(0,) * K: None}}]
    for j, ks in enumerate(inst.job_scenarios):
        wj = w[j]
        nxt: dict = {}
        for state, front in layers[-1].items():
            rows = list(state)
            for r, row in enumerate(state):
                if r and row == state[r - 1]:
                    continue
                inc = [0] * K
                counts = list(row)
                for k in ks:
                    counts[k] += 1
                    inc[k] = wj * counts[k]
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
            # C survives while C_k + lb_k - opt_k <= ub in every scenario k
            room = [ub + o - b for o, b in zip(opts, lb(state))]
            bucket = {c: link for c, link in bucket.items() if all(map(le, c, room))}
            if bucket:
                kept[state] = _pareto(bucket) if len(bucket) > 1 else bucket
        _guard(sum(map(len, kept.values())), max_states, j, "load/cost")
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


@dataclass(frozen=True)
class FptasResult:
    """Approximation result: value is under the *original* weights."""

    value: int
    schedule: Schedule
    rounded: Instance


def fptas(
    inst: Instance,
    eps: Fraction | int | str,
    *,
    max_states: int = DEFAULT_MAX_STATES,
) -> FptasResult:
    """(1+eps)-approximation for MINMAX via weight rounding.

    Rounds each weight to ceil(w_j / rho) with rho = W*eps/(m*n^2), solves the
    rounded instance exactly, and reports that schedule's cost under the
    original weights.  When rho <= 1 the instance itself is solved and
    returned as ``rounded``.  eps must be positive and the largest weight
    nonzero.  Zero weights round to zero and keep their place at the end of
    the order.
    """
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
    result = solve_pseudo(rounded, ObjectiveKind.MINMAX, max_states=max_states)
    value = evaluate(inst, result.schedule, ObjectiveKind.MINMAX).aggregate
    return FptasResult(value=value, schedule=result.schedule, rounded=rounded)
