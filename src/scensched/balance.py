"""Balance theory for unit weights: profile classes, the two-machine cone,
its Hilbert basis, and the equalization procedures built on top.

A job's *profile* is the exact set of scenarios containing it; profiles are
indexed by a fixed bijection sigma (lexicographic by characteristic vector).
For two machines, a pair (x, y) of per-profile count vectors describes a
schedule; it has zero final disbalance in every scenario exactly when
``Mx = My`` for the 0/1 scenario-membership matrix M.  The nonnegative
integer points of the cone ``C = {(x, y) >= 0 : Mx = My}`` are generated by
its finitely many irreducible points (a Hilbert basis), and splitting a
schedule into basis classes lets one reassign jobs so that every prefix stays
nearly balanced while per-scenario machine counts -- and hence the
unit-weight sum objective, which depends only on those counts -- are
preserved.  ``equalize_two`` does this for one machine pair and returns the
new schedule with an ``EqualizeReport``; ``equalize_all`` repeats it.

The basis depends on K alone, so ``balance`` ships it as data: a literal
table for K = 1, 2, 3, decoded once at import.  ``hilbert_basis`` looks it
up and guards K itself (a K past the table raises GuardExceeded); neither
equalization takes a basis, both look it up by ``inst.K``.  The completion
procedure that the table must equal, element for element and in order,
lives in ``tests/test_balance.py`` as its reference.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .model import (
    GUARD_BITS,
    MAX_ROUNDS,
    GuardExceeded,
    Instance,
    ObjectiveKind,
    Schedule,
    disbalance,
)
from .oracle import _check_guard, optimal_schedules


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------


def profile_index(profile, K: int) -> int:
    """sigma: subset of [K] -> 0..2^K-1, lexicographic by membership vector."""
    idx = 0
    for k in profile:
        if not 0 <= k < K:
            raise ValueError(f"scenario {k} out of range for K={K}")
        idx |= 1 << (K - 1 - k)
    return idx


def _scenario_columns(K: int) -> list[list[int]]:
    """Per scenario k, the sigma indices of profiles containing k."""
    return [
        [idx for idx in range(1 << K) if idx & (1 << (K - 1 - k))] for k in range(K)
    ]


# ---------------------------------------------------------------------------
# Cone and Hilbert basis
# ---------------------------------------------------------------------------


class LatticePoint(NamedTuple):
    """Per-profile counts on machine 1 (x) and machine 2 (y)."""

    x: tuple[int, ...]
    y: tuple[int, ...]

    def vector(self) -> tuple[int, ...]:
        return self.x + self.y

    @property
    def l1(self) -> int:
        return sum(self.x) + sum(self.y)


class HilbertBasis(NamedTuple):
    K: int
    elements: tuple[LatticePoint, ...]  # sorted ascending by flat vector


def in_cone(point: LatticePoint, K: int) -> bool:
    """Membership in C: nonnegative and equal per-scenario sums on both sides."""
    P = 1 << K
    if len(point.x) != P or len(point.y) != P:
        return False
    if any(v < 0 for v in point.vector()):
        return False
    for cols in _scenario_columns(K):
        if sum(point.x[c] for c in cols) != sum(point.y[c] for c in cols):
            return False
    return True


# The Hilbert basis for each K, in ascending flat-vector order (the order
# equalize_two's class scan takes).  One token per element, "x/y": the
# profile indices sigma (one digit each, as sigma < 8) of its jobs on machine
# 1 and on machine 2, each index listed once per job.
_BASIS_TABLE = {
    1: "/0 1/1 0/",
    2: "/0 3/3 3/12 2/2 1/1 12/3 0/",
    3: "/0 7/7 7/34 7/25 7/16 7/124 77/356 6/6 6/24 5/5 5/14 56/47 56/344 "
    "4/4 47/56 3/3 3/12 36/27 36/225 35/17 35/116 356/77 34/7 34/25 "
    "34/16 344/56 2/2 27/36 25/7 25/34 25/16 24/6 225/36 1/1 17/35 16/7 "
    "16/34 16/25 14/5 12/3 124/7 116/35 0/",
}
_BASES = {
    K: HilbertBasis(K, tuple(
        LatticePoint(*(
            tuple(side.count(str(sigma)) for sigma in range(1 << K))
            for side in token.split("/")
        ))
        for token in text.split()
    ))
    for K, text in _BASIS_TABLE.items()
}


def hilbert_basis(K: int) -> HilbertBasis:
    """All irreducible nonzero lattice points of the two-machine cone.

    Read from the table above, so every call for one K returns the same
    object.  A K that is not an int or is below 1 raises ValueError; a K
    past the table (K >= 4) raises GuardExceeded.  The test-side completion
    procedure in ``tests/test_balance.py`` is the reference it must equal.
    """
    if type(K) is not int:
        raise ValueError("K must be an integer")
    if K < 1:
        raise ValueError("K must be at least 1")
    if K not in _BASES:
        raise GuardExceeded(f"Hilbert basis guard: K={K} exceeds {max(_BASES)}")
    return _BASES[K]


def decompose(point: LatticePoint, basis: HilbertBasis) -> list[LatticePoint]:
    """Write a cone point as a multiset sum of basis elements.

    Greedy largest-first subtraction with backtracking; a decomposition
    always exists for cone points by the Hilbert property.
    """
    if not in_cone(point, basis.K):
        raise ValueError("point is not in the cone")
    elems = sorted(basis.elements, key=lambda b: (-b.l1, b.vector()))
    vectors = [b.vector() for b in elems]
    target = point.vector()
    dim = len(target)

    def rec(i: int, rem: tuple[int, ...]):
        if not any(rem):
            return []
        if i == len(vectors):
            return None
        b = vectors[i]
        max_copies = min(
            (rem[c] // b[c] for c in range(dim) if b[c]), default=0
        )
        for copies in range(max_copies, -1, -1):
            nxt = tuple(rem[c] - copies * b[c] for c in range(dim))
            rest = rec(i + 1, nxt)
            if rest is not None:
                return [elems[i]] * copies + rest
        return None

    result = rec(0, target)
    if result is None:
        raise RuntimeError("no decomposition found -- this falsifies the basis")
    return result


# ---------------------------------------------------------------------------
# Profile round robin (pairwise redistribution behind the final-disbalance
# bound for optimal schedules)
# ---------------------------------------------------------------------------


def profile_round_robin(inst: Instance, sched: Schedule, i1: int, i2: int) -> Schedule:
    """Rebalance machines i1, i2 by alternating within each profile class.

    Jobs on the two machines are grouped by profile; within a class they are
    reassigned alternately (canonical order) to i1, i2.  The resulting final
    count difference between the pair is at most 2^(K-1) per scenario: each
    scenario sees at most 2^(K-1) profile classes, each contributing at most
    one to the difference.
    """
    _check_pair(inst, i1, i2)
    _require_unit_weights(inst)
    K = inst.K
    classes: dict[int, list[int]] = {}
    for j in range(inst.n):
        if sched.assignment[j] in (i1, i2):
            classes.setdefault(profile_index(inst.job_scenarios[j], K), []).append(j)
    new_assignment = list(sched.assignment)
    for idx in sorted(classes):
        for pos, j in enumerate(classes[idx]):
            new_assignment[j] = i1 if pos % 2 == 0 else i2
    return Schedule(tuple(new_assignment))


# ---------------------------------------------------------------------------
# Equalization
# ---------------------------------------------------------------------------


class EqualizeReport(NamedTuple):
    """Pairwise disbalance before/after one equalization, per scenario."""

    machines: tuple[int, int]
    aux_jobs: tuple[int, ...]  # auxiliary singletons added per scenario
    pre_final: tuple[int, ...]
    pre_full: tuple[int, ...]
    post_final: tuple[int, ...]
    post_full: tuple[int, ...]
    extended_final: tuple[int, ...]  # with auxiliaries, must be all zero
    # some pre_final entry exceeds the optimal-schedule bound sqrt(K)*2^(K-1)
    likely_nonoptimal: bool


def lemma_final_bound_sq(K: int) -> int:
    """Square of the final-disbalance bound sqrt(K)*2^(K-1) for optima."""
    return K * 4 ** (K - 1)


def basis_l1_sum(basis: HilbertBasis) -> int:
    """Certified pairwise full-disbalance bound after equalization.

    Across the reassignment scan, at most one working copy per basis element
    is partially consumed at any time, so every prefix imbalance is at most
    the sum of the elements' l1 norms.
    """
    return sum(b.l1 for b in basis.elements)


def _require_unit_weights(inst: Instance) -> None:
    if any(w != 1 for w in inst.weights):
        raise ValueError("balance procedures require unit weights")


def _check_pair(inst: Instance, i1: int, i2: int) -> None:
    if i1 == i2:
        raise ValueError("need two distinct machines")
    for i in (i1, i2):
        if not 0 <= i < inst.m:
            raise ValueError(f"machine {i} out of range")


def _pair_scan_disbalance(inst, assignment, i1, i2, aux=()):
    """Final/full per-scenario count differences restricted to a machine pair.

    ``aux`` yields (scenario, side) singleton jobs appended after the real
    jobs, side 0 meaning i1.  Returns (real_final, real_full, extended_final).
    """
    K = inst.K
    diff = [0] * K
    full = [0] * K
    for j in range(inst.n):
        a = assignment[j]
        if a == i1 or a == i2:
            delta = 1 if a == i1 else -1
            for k in inst.job_scenarios[j]:
                diff[k] += delta
                if abs(diff[k]) > full[k]:
                    full[k] = abs(diff[k])
    real_final = tuple(abs(v) for v in diff)
    real_full = tuple(full)
    for k, side in aux:
        diff[k] += 1 if side == 0 else -1
    return real_final, real_full, tuple(abs(v) for v in diff)


def equalize_two(
    inst: Instance, sched: Schedule, i1: int, i2: int
) -> tuple[Schedule, EqualizeReport]:
    """Reassign the jobs of machines i1, i2 to bound their prefix imbalance.

    The pair sub-schedule is padded with per-scenario auxiliary singletons on
    the deficit side until its final disbalance is zero, encoded as a cone
    point, decomposed over the Hilbert basis ``hilbert_basis(inst.K)``, and
    rebuilt by scanning jobs in canonical order (auxiliaries last): each job
    consumes the first open slot over basis classes, preferring the i1 side.
    Auxiliaries are then dropped.  Returns the new schedule and its report.
    The basis's K guard fires before the pair and unit-weight checks.

    Preserves per-scenario counts outside the pair and never increases the
    pair's count imbalance, so on an optimal input (the intended use; the
    report's ``likely_nonoptimal`` flags inputs that cannot be optimal) the
    unit-weight sum objective is preserved exactly.
    """
    basis = hilbert_basis(inst.K)  # its guard fires before the checks below
    _check_pair(inst, i1, i2)
    _require_unit_weights(inst)
    K = inst.K
    P = 1 << K
    assignment = sched.assignment

    pair_jobs = [j for j in range(inst.n) if assignment[j] in (i1, i2)]
    x = [0] * P
    y = [0] * P
    diff = [0] * K  # per scenario, the jobs on i1 minus the jobs on i2
    for j in pair_jobs:
        side, delta = (x, 1) if assignment[j] == i1 else (y, -1)
        side[profile_index(inst.job_scenarios[j], K)] += 1
        for k in inst.job_scenarios[j]:
            diff[k] += delta
    d = tuple(abs(v) for v in diff)  # also the auxiliaries per scenario
    aux: list[int] = []  # the scenario of each auxiliary singleton
    for k in range(K):
        (x if diff[k] < 0 else y)[1 << (K - 1 - k)] += d[k]
        aux += [k] * d[k]

    point = LatticePoint(x=tuple(x), y=tuple(y))
    assert in_cone(point, K), "padded pair counts must balance per scenario"
    multiplicity = Counter(decompose(point, basis))
    classes = [
        [list(b.vector()) for _ in range(multiplicity[b])]
        for b in basis.elements
        if multiplicity[b]
    ]

    scan = [profile_index(inst.job_scenarios[j], K) for j in pair_jobs]
    scan += [1 << (K - 1 - k) for k in aux]
    sides: list[int] = []
    for sigma in scan:
        copy = next(
            (c for copies in classes for c in copies if c[sigma] or c[P + sigma]), None
        )
        if copy is None:
            raise RuntimeError("slot scan failed -- this falsifies the decomposition")
        side = 0 if copy[sigma] else 1
        copy[side * P + sigma] -= 1
        sides.append(side)
        if __debug__:
            for copies in classes:
                for a, b in zip(copies, copies[1:]):
                    assert all(u <= v for u, v in zip(a, b)), (
                        "copies of one basis element must stay monotone"
                    )
    # every fully consumed copy accounts for one cone element, so the scan
    # must exhaust all slots exactly
    assert all(not any(copy) for copies in classes for copy in copies)

    new_assignment = list(assignment)
    for j, side in zip(pair_jobs, sides):
        new_assignment[j] = i1 if side == 0 else i2
    result = Schedule(tuple(new_assignment))

    _, pre_full, _ = _pair_scan_disbalance(inst, assignment, i1, i2)
    post_final, post_full, ext_final = _pair_scan_disbalance(
        inst, result.assignment, i1, i2, zip(aux, sides[len(pair_jobs):])
    )
    return result, EqualizeReport(
        machines=(i1, i2),
        aux_jobs=d,
        pre_final=d,
        pre_full=pre_full,
        post_final=post_final,
        post_full=post_full,
        extended_final=ext_final,
        likely_nonoptimal=any(dk * dk > lemma_final_bound_sq(K) for dk in d),
    )


def _machine_scenario_counts(inst: Instance, assignment) -> list[list[int]]:
    counts = [[0] * inst.K for _ in range(inst.m)]
    for j in range(inst.n):
        for k in inst.job_scenarios[j]:
            counts[assignment[j]][k] += 1
    return counts


def equalize_all(inst: Instance, sched: Schedule) -> Schedule:
    """Drive pairwise equalization until every machine is near average load.

    While some machine's scenario count differs from the scenario average by
    more than 2*K*f, with f the certified pairwise bound (the sum of the l1
    norms of the elements of ``hilbert_basis(inst.K)``), equalize that
    machine against the currently lightest/heaviest one with
    :func:`equalize_two`, keeping its schedule and dropping its report.  The
    summed deviation from average strictly decreases each round -- checked
    at runtime, since a violation would falsify the implementation -- which
    forces termination.  More than ``model.MAX_ROUNDS`` rounds raise
    GuardExceeded.
    """
    K = inst.K
    threshold = 2 * K * basis_l1_sum(hilbert_basis(K))  # K guard before the weight check
    _require_unit_weights(inst)
    m = inst.m
    sizes = [len(s) for s in inst.scenario_jobs]

    current = sched
    counts = _machine_scenario_counts(inst, current.assignment)

    def potential() -> int:
        # Scaled by m so it stays integral: sum |m*c_ik - |S_k||.
        return sum(
            abs(m * counts[i][k] - sizes[k]) for i in range(m) for k in range(K)
        )

    def violation():
        for i in range(m):
            for k in range(K):
                if abs(m * counts[i][k] - sizes[k]) > m * threshold:
                    return i, k
        return None

    pot = potential()
    iterations = 0
    while (viol := violation()) is not None:
        if iterations >= MAX_ROUNDS:
            raise GuardExceeded(
                f"equalization did not settle within {MAX_ROUNDS} rounds "
                f"(potential {pot}) -- this falsifies the implementation"
            )
        i, k = viol
        if m * counts[i][k] > sizes[k]:
            partner = min(range(m), key=lambda i2: (counts[i2][k], i2))
        else:
            partner = min(range(m), key=lambda i2: (-counts[i2][k], i2))
        current, _ = equalize_two(inst, current, i, partner)
        counts = _machine_scenario_counts(inst, current.assignment)
        new_pot = potential()
        if not new_pot < pot:
            raise AssertionError(
                f"potential failed to decrease ({pot} -> {new_pot}) -- "
                "this falsifies the implementation"
            )
        pot = new_pot
        iterations += 1
    return current


# ---------------------------------------------------------------------------
# Empirical probe for the bounded-full-disbalance conjecture
# ---------------------------------------------------------------------------


class ProbeReport(NamedTuple):
    n: int
    m: int
    K: int
    trials: int
    seed: int
    per_trial: tuple[int, ...]  # min over all optima of the full disbalance
    max_observed: int
    achieving_trials: tuple[int, ...]


def conjecture_probe(
    n: int,
    m: int,
    K: int,
    trials: int,
    seed: int,
    *,
    density: float = 0.5,
    guard_bits: float = GUARD_BITS,
) -> ProbeReport:
    """Measure, over seeded unit-weight random instances, the smallest full
    disbalance achievable by *any* optimal schedule of the sum objective.

    Trial t uses seed ``seed + t``.  Reports the per-trial minima, their
    maximum, and which trials attain it.  ``trials`` must be at least 1.
    The arguments and the oracle guard are checked before the first trial
    instance is built.
    """
    from .generators import _check_random_args, gen_random

    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    _check_random_args(n, m, K, 1, density)
    _check_guard(n, m, guard_bits)
    per_trial = []
    for t in range(trials):
        instance = gen_random(n, m, K, w_max=1, density=density, seed=seed + t)
        optima = optimal_schedules(instance, ObjectiveKind.MINAVG, guard_bits=guard_bits)
        per_trial.append(min(disbalance(instance, s).full_f for s in optima))
    max_observed = max(per_trial)
    achieving = tuple(t for t, v in enumerate(per_trial) if v == max_observed)
    return ProbeReport(
        n=n,
        m=m,
        K=K,
        trials=trials,
        seed=seed,
        per_trial=tuple(per_trial),
        max_observed=max_observed,
        achieving_trials=achieving,
    )
