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

import math
from collections import Counter
from typing import NamedTuple

from .model import (
    GUARD_BITS,
    MAX_ROUNDS,
    GuardExceeded,
    Instance,
    ObjectiveKind,
    Schedule,
    _check_schedule,
    _require_unit_weights,
    disbalance,
)


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------


def profile_index(profile, K: int) -> int:
    """sigma: subset of [K] -> 0..2^K-1, lexicographic by membership vector."""
    idx = 0
    for k in profile:
        if type(k) is not int:  # a bool is not a scenario
            raise ValueError(f"scenario {k!r} is not an integer")
        if not 0 <= k < K:
            raise ValueError(f"scenario {k} out of range for K={K}")
        idx |= 1 << (K - 1 - k)
    return idx


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
    for k in range(K):
        bit = 1 << (K - 1 - k)  # set in sigma exactly when profile sigma contains k
        if sum(a - b for sigma, (a, b) in enumerate(zip(point.x, point.y)) if sigma & bit):
            return False
    return True


# The Hilbert basis for each K, in ascending flat-vector order (the order
# equalize_two's side sequences take).  One token per element, "x/y": the
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
    one to the difference.  The machines, the weights and the schedule are
    checked as in :func:`equalize_two`.
    """
    _check_pair(inst, sched, i1, i2)
    placed: Counter = Counter()  # per profile, its pair jobs seen so far
    new_assignment = list(sched.assignment)
    for j, a in enumerate(sched.assignment):
        if a == i1 or a == i2:
            sigma = profile_index(inst.job_scenarios[j], inst.K)
            new_assignment[j] = (i1, i2)[placed[sigma] % 2]
            placed[sigma] += 1
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
    """The sum of the basis elements' l1 norms, the pairwise full-disbalance
    bound that ``equalize_all``'s threshold is built on.  Not certified:
    profiles walk their side sequences independently, so several copies of
    one element can be open at once, one per profile.  On ``gen_random(160,
    2, 2, w_max=1, density=0.5, seed=7)`` with a ``random.Random(7)``
    schedule, ``equalize_two`` gives ``post_full`` (18, 9) against 14; no
    optimum the tests sweep exceeds it."""
    return sum(b.l1 for b in basis.elements)


def _check_pair(inst: Instance, sched: Schedule, i1: int, i2: int) -> None:
    """The input check of both pair procedures: two distinct int machines in
    range, unit weights, and a valid schedule, in that order."""
    # type(), not isinstance(), as in model._check_schedule: a bool is not a machine
    for i in (i1, i2):
        if type(i) is not int:
            raise ValueError(f"machine {i!r} is not an integer")
    if i1 == i2:
        raise ValueError("need two distinct machines")
    for i in (i1, i2):
        if not 0 <= i < inst.m:
            raise ValueError(f"machine {i} out of range")
    _require_unit_weights(inst, "balance procedures require unit weights")
    _check_schedule(inst, sched)


def equalize_two(
    inst: Instance, sched: Schedule, i1: int, i2: int
) -> tuple[Schedule, EqualizeReport]:
    """Reassign the jobs of machines i1, i2 to bound their prefix imbalance.

    The pair sub-schedule is padded with per-scenario auxiliary singletons on
    the deficit side until its final disbalance is zero, encoded as a cone
    point, decomposed over the Hilbert basis ``hilbert_basis(inst.K)``, and
    rebuilt from one side sequence per profile sigma: each copy of each basis
    element, in table order, gives x[sigma] slots on i1 then y[sigma] on i2,
    and the t-th job of profile sigma in canonical order (auxiliaries last)
    takes the t-th side.  Auxiliaries are then dropped.  Returns the new
    schedule and its report, whose prefix differences are tracked in the
    same two passes that read the pair and write its new assignment.

    The basis's K guard fires first; then the machines must be two distinct
    ints in range, the weights all 1, and the schedule one int machine in
    range per job (``model._check_schedule``), else ValueError.

    Preserves per-scenario counts outside the pair and never increases the
    pair's count imbalance, so on an optimal input (the intended use; the
    report's ``likely_nonoptimal`` flags inputs that cannot be optimal) the
    unit-weight sum objective is preserved exactly.

    Only jobs of singleton profiles move.  Auxiliaries pad singleton
    profiles alone, and the decomposition sums, profile by profile, to the
    padded counts, so each machine of the pair keeps its count of every
    profile of zero or of two or more scenarios.
    """
    basis = hilbert_basis(inst.K)  # its guard fires before the checks below
    _check_pair(inst, sched, i1, i2)
    K = inst.K
    P = 1 << K
    assignment = sched.assignment

    pair_jobs: list[int] = []
    scan: list[int] = []  # the profile index of each pair job
    x = [0] * P
    y = [0] * P
    diff = [0] * K  # per scenario, the jobs on i1 minus the jobs on i2
    pre_full = [0] * K  # per scenario, the largest |diff| over the prefixes
    for j, a in enumerate(assignment):
        if a != i1 and a != i2:
            continue
        sigma = profile_index(inst.job_scenarios[j], K)
        pair_jobs.append(j)
        scan.append(sigma)
        side, delta = (x, 1) if a == i1 else (y, -1)
        side[sigma] += 1
        for k in inst.job_scenarios[j]:
            diff[k] += delta
            pre_full[k] = max(pre_full[k], abs(diff[k]))
    d = tuple(abs(v) for v in diff)  # also the auxiliaries per scenario
    for k in range(K):
        (x if diff[k] < 0 else y)[1 << (K - 1 - k)] += d[k]

    point = LatticePoint(x=tuple(x), y=tuple(y))
    assert in_cone(point, K), "padded pair counts must balance per scenario"
    multiplicity = Counter(decompose(point, basis))
    # profile sigma's sides (0 on i1, 1 on i2), copy by copy: only sigma jobs
    # fill a copy's sigma slots, so reading them in turn is the first-open-slot scan
    sequences: list[list[int]] = [[] for _ in range(P)]
    for b in basis.elements:
        for sigma, seq in enumerate(sequences):
            seq += ([0] * b.x[sigma] + [1] * b.y[sigma]) * multiplicity[b]
    for sigma, seq in enumerate(sequences):
        if len(seq) != x[sigma] + y[sigma]:
            raise RuntimeError(f"profile {sigma} has {len(seq)} slots for "
                               f"{x[sigma] + y[sigma]} jobs -- this falsifies the decomposition")
    cursors = [iter(seq) for seq in sequences]

    # the same prefix walk over the new pair, each job taking its profile's next side
    new_assignment = list(assignment)
    diff = [0] * K
    post_full = [0] * K
    for j, sigma in zip(pair_jobs, scan):
        new_assignment[j], delta = (i1, 1) if next(cursors[sigma]) == 0 else (i2, -1)
        for k in inst.job_scenarios[j]:
            diff[k] += delta
            post_full[k] = max(post_full[k], abs(diff[k]))
    post_final = tuple(abs(v) for v in diff)
    # auxiliaries come last in their singleton profile, so scenario k's are
    # exactly what is left on that profile's cursor
    for k in range(K):
        diff[k] += sum(1 if side == 0 else -1 for side in cursors[1 << (K - 1 - k)])
    return Schedule(tuple(new_assignment)), EqualizeReport(
        machines=(i1, i2),
        aux_jobs=d,
        pre_final=d,
        pre_full=tuple(pre_full),
        post_final=post_final,
        post_full=tuple(post_full),
        extended_final=tuple(abs(v) for v in diff),
        likely_nonoptimal=any(dk * dk > lemma_final_bound_sq(K) for dk in d),
    )


def _machine_scenario_counts(inst: Instance, assignment) -> dict[int, list[int]]:
    """Per-scenario job counts of the machines that hold a scenario job, and
    of the lowest-index machine that holds none, if there is one.  Every
    other machine shares that machine's all-zero row at a higher index, and
    ``equalize_all`` breaks every tie by index, so it never needs their rows:
    the counts cost O(n * K) whatever m is."""
    K = inst.K
    counts: dict[int, list[int]] = {}
    for j, ks in enumerate(inst.job_scenarios):
        if ks:
            row = counts.setdefault(assignment[j], [0] * K)
            for k in ks:
                row[k] += 1
    if len(counts) < inst.m:
        counts[next(i for i in range(len(counts) + 1) if i not in counts)] = [0] * K
    return counts


def equalize_all(inst: Instance, sched: Schedule) -> Schedule:
    """Drive pairwise equalization until every machine is near average load.

    While some machine's scenario count differs from the scenario average by
    more than 2*K*f, with f the uncertified pairwise bound
    :func:`basis_l1_sum` of ``hilbert_basis(inst.K)``, equalize that
    machine against the currently lightest/heaviest one with
    :func:`equalize_two`, keeping its schedule and dropping its report.  A
    round must strictly lower the summed deviation from average (the
    potential), which forces termination, but nothing proves it does:
    ``equalize_two`` moves only singleton-profile jobs, so a round can change
    the machines' scenario counts only through them, and it stalls whenever
    the excess lies in a profile of two or more scenarios.  Such a round
    raises ValueError naming the pair and the potential.  More than
    ``model.MAX_ROUNDS`` rounds raise GuardExceeded.
    """
    K = inst.K
    threshold = 2 * K * basis_l1_sum(hilbert_basis(K))  # K guard before the weight check
    _require_unit_weights(inst, "balance procedures require unit weights")
    # counts are keyed by machine, so a label out of range would be counted
    # as a machine of its own
    _check_schedule(inst, sched)
    m = inst.m
    sizes = [len(s) for s in inst.scenario_jobs]

    current = sched
    counts = _machine_scenario_counts(inst, current.assignment)

    def survey(counts):
        """The potential and the first (machine, scenario) past the threshold,
        or None, in one scan.  The potential is scaled by m so it stays
        integral: sum |m*c_ik - |S_k||, where each machine missing from
        counts has an all-zero row, worth sum |S_k|."""
        pot = (m - len(counts)) * sum(sizes)
        viol = None
        for i in sorted(counts):
            for k, c in enumerate(counts[i]):
                dev = abs(m * c - sizes[k])
                pot += dev
                if viol is None and dev > m * threshold:
                    viol = i, k
        return pot, viol

    pot, viol = survey(counts)
    iterations = 0
    while viol is not None:
        if iterations >= MAX_ROUNDS:
            raise GuardExceeded(
                f"equalization did not settle within {MAX_ROUNDS} rounds "
                f"(potential {pot}) -- this falsifies the implementation"
            )
        i, k = viol
        if m * counts[i][k] > sizes[k]:
            partner = min(counts, key=lambda i2: (counts[i2][k], i2))
        else:
            partner = min(counts, key=lambda i2: (-counts[i2][k], i2))
        current, _ = equalize_two(inst, current, i, partner)
        counts = _machine_scenario_counts(inst, current.assignment)
        new_pot, viol = survey(counts)
        if not new_pot < pot:
            raise ValueError(f"equalizing machines {i} and {partner} left the potential at "
                             f"{new_pot} (was {pot}): pairwise equalization cannot settle "
                             "this schedule")
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


def _least_full_disbalance(inst: Instance) -> int:
    """The least full disbalance over every canonical optimum of the sum
    objective, folded as the oracle visits each optimum: no list of optima
    is kept, so an instance whose leaves nearly all tie costs no memory."""
    from .oracle import _visit_optima

    least = None

    def fold(assign) -> None:
        nonlocal least
        full = disbalance(inst, Schedule(tuple(assign))).full_f
        if least is None or full < least:
            least = full

    _visit_optima(inst, ObjectiveKind.MINAVG, fold)
    assert least is not None  # every instance has an optimum
    return least


def conjecture_probe(
    n: int,
    m: int,
    K: int,
    trials: int,
    seed: int,
    *,
    density: float = 0.5,
) -> ProbeReport:
    """Measure, over seeded unit-weight random instances, the smallest full
    disbalance achievable by *any* optimal schedule of the sum objective.

    Trial t uses seed ``seed + t``.  Reports the per-trial minima, their
    maximum, and which trials attain it.  ``trials`` must be an int of at
    least 1 and ``seed`` an int, else ValueError.  The arguments and the
    oracle guard are checked before the first trial instance is built; the
    guard counts the canonical assignments of all trials together, so
    ``trials`` times their number per trial may not pass 2^GUARD_BITS.
    """
    # only the probe runs the oracle, so only the probe loads it
    from .generators import _check_random_args, gen_random
    from .oracle import _check_guard

    if type(trials) is not int:
        raise ValueError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if type(seed) is not int:
        raise ValueError(f"seed must be an integer, got {seed!r}")
    _check_random_args(n, m, K, 1, density)
    try:
        _check_guard(n, m, GUARD_BITS - math.log2(trials))
    except GuardExceeded:
        raise GuardExceeded(f"oracle guard: more than 2^{GUARD_BITS} canonical assignments "
                            f"for n={n}, m={m} summed over trials={trials}") from None
    per_trial = []
    for t in range(trials):
        instance = gen_random(n, m, K, w_max=1, density=density, seed=seed + t)
        per_trial.append(_least_full_disbalance(instance))
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
