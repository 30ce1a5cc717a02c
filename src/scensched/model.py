"""Core data model: instances, schedules, objective evaluation, disbalance.

Jobs are stored in a canonical order of non-increasing weight, ties broken by
input position.  A schedule assigns every job to one of ``m`` identical
machines.  Each scenario ``S_k`` is a subset of the jobs; under a fixed
schedule the scenario is charged only for its own jobs, kept in canonical
order, so a job contributes its weight times its rank among the same-machine
jobs of that scenario.  This "weighted position" objective equals the total
completion time of the SPT schedule of the corresponding processing times
(see :func:`from_processing_times`).

All costs are exact Python integers; expectations and ratios elsewhere in the
package use :class:`fractions.Fraction`.  Every type here is immutable after
construction and every operation is a pure function.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum


class GuardExceeded(RuntimeError):
    """A resource guard (instance size, DP state count, ...) was exceeded."""


class ObjectiveKind(str, Enum):
    """Aggregation of per-scenario total completion times.

    MINAVG is the plain sum over scenarios (the constant 1/K factor is
    dropped).  REGRET_SUM minimizers coincide with MINAVG minimizers, since
    the two aggregates differ by the schedule-independent constant
    ``sum(scenario_optima)``.
    """

    MINMAX = "minmax"
    MINAVG = "minavg"
    REGRET_MAX = "regret-max"
    REGRET_SUM = "regret-sum"


@dataclass(frozen=True)
class Instance:
    """A scheduling instance in canonical (non-increasing weight) job order.

    Fields:
        m: number of identical machines (>= 1).
        weights: job weights, non-increasing, each >= 0.
        scenarios: K job subsets over internal indices 0..n-1; scenarios may
            overlap, be empty, or omit jobs entirely.
        original_order: original_order[i] is the input-order id of internal
            job i (the permutation applied by the sorting constructor).

    Use :func:`make_instance` / :func:`from_processing_times` to construct
    from input-order data; the direct constructor expects canonical order.
    """

    m: int
    weights: tuple[int, ...]
    scenarios: tuple[frozenset[int], ...]
    original_order: tuple[int, ...]
    # Derived lookups, computed once at construction.
    scenario_jobs: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False
    )
    job_scenarios: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        n = len(self.weights)
        # type(), not isinstance(): a bool is an int, and no count or weight
        if type(self.m) is not int or self.m < 1:
            raise ValueError("m must be a positive integer")
        if n < 1:
            raise ValueError("need at least one job")
        if len(self.scenarios) < 1:
            raise ValueError("need at least one scenario")
        for j, w in enumerate(self.weights):
            if type(w) is not int or w < 0:
                raise ValueError(f"weight of job {j} must be a nonnegative integer")
            if j > 0 and self.weights[j - 1] < w:
                raise ValueError("weights must be non-increasing in canonical order")
        if sorted(self.original_order) != list(range(n)):
            raise ValueError("original_order must be a permutation of 0..n-1")
        for k, s in enumerate(self.scenarios):
            if not all(type(j) is int and 0 <= j < n for j in s):
                raise ValueError(f"scenario {k} contains an invalid job index")
        scenario_jobs = tuple(tuple(sorted(s)) for s in self.scenarios)
        per_job: list[list[int]] = [[] for _ in range(n)]
        for k, jobs in enumerate(scenario_jobs):
            for j in jobs:
                per_job[j].append(k)
        object.__setattr__(self, "scenario_jobs", scenario_jobs)
        object.__setattr__(self, "job_scenarios", tuple(tuple(ks) for ks in per_job))

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def K(self) -> int:
        return len(self.scenarios)

    @property
    def max_weight(self) -> int:
        return max(self.weights)


@dataclass(frozen=True)
class Schedule:
    """A total assignment of jobs to machines, in canonical job order."""

    assignment: tuple[int, ...]


@dataclass(frozen=True)
class CostVector:
    """Per-scenario total completion times plus the aggregate of one kind."""

    kind: ObjectiveKind
    per_scenario: tuple[int, ...]
    aggregate: int


@dataclass(frozen=True)
class SolveResult:
    """Value and witness schedule returned by the exact solvers."""

    value: int
    schedule: Schedule


@dataclass(frozen=True)
class DisbalanceReport:
    """Final and prefix-maximal (full) per-scenario machine-count spreads."""

    final_dk: tuple[int, ...]
    full_fk: tuple[int, ...]

    @property
    def final_d(self) -> int:
        return max(self.final_dk)

    @property
    def full_f(self) -> int:
        return max(self.full_fk)


def make_instance(m: int, weights: list[int], scenarios) -> Instance:
    """Build an Instance from input-order weights and scenarios.

    Sorts jobs by non-increasing weight (stable, so ties keep input order),
    records the permutation in ``original_order`` and remaps the scenarios.
    """
    n = len(weights)
    if n < 1:
        raise ValueError("need at least one job")
    order = sorted(range(n), key=lambda j: (-weights[j], j))
    pos = {orig: i for i, orig in enumerate(order)}
    remapped = []
    for s in scenarios:
        members = set(s)
        for j in members:
            if type(j) is not int or not 0 <= j < n:
                raise ValueError(f"scenario member {j!r} is not a job index in 0..{n - 1}")
        remapped.append(frozenset(pos[j] for j in members))
    return Instance(
        m=m,
        weights=tuple(weights[o] for o in order),
        scenarios=tuple(remapped),
        original_order=tuple(order),
    )


def from_processing_times(p: list[int], m: int, scenarios) -> Instance:
    """Build an Instance from job processing times.

    Scheduling unit-length jobs of weight ``w_j = p_j`` in non-increasing
    weight order gives the same objective as scheduling the original jobs in
    SPT order and summing completion times, so the construction is the plain
    weight constructor; only the interpretation differs.
    """
    return make_instance(m, p, scenarios)


def _check_schedule(inst: Instance, sched: Schedule) -> None:
    if len(sched.assignment) != inst.n:
        raise ValueError("schedule length does not match instance")
    for i in sched.assignment:
        if not 0 <= i < inst.m:
            raise ValueError(f"machine index {i} out of range")


def evaluate_scenario(inst: Instance, sched: Schedule, k: int) -> int:
    """Total completion time of scenario k under the schedule.

    Sum over jobs j in S_k of ``w_j * rank``, where rank counts the jobs of
    ``S_k`` on j's machine that precede j (inclusive) in canonical order.
    """
    if not 0 <= k < inst.K:
        raise IndexError(f"scenario index {k} out of range")
    _check_schedule(inst, sched)
    return _scenario_cost(inst, sched.assignment, k)


def _scenario_cost(inst: Instance, assignment, k: int) -> int:
    counts = [0] * inst.m
    total = 0
    w = inst.weights
    for j in inst.scenario_jobs[k]:
        i = assignment[j]
        counts[i] += 1
        total += w[j] * counts[i]
    return total


def scenario_optima(inst: Instance) -> tuple[int, ...]:
    """The standalone optimum of every scenario (round-robin closed form)."""
    return tuple(single_scenario_optimum(inst, k) for k in range(inst.K))


def single_scenario_optimum(inst: Instance, k: int) -> int:
    """Minimum total completion time of scenario k over all schedules.

    Round-robin by non-increasing weight is optimal for a single scenario:
    the r-th heaviest scenario job ends up in position ceil(r/m).
    """
    if not 0 <= k < inst.K:
        raise IndexError(f"scenario index {k} out of range")
    total = 0
    m = inst.m
    for r, j in enumerate(inst.scenario_jobs[k]):
        total += inst.weights[j] * (r // m + 1)
    return total


def evaluate(
    inst: Instance,
    sched: Schedule,
    kind: ObjectiveKind,
    *,
    scenario_opts: tuple[int, ...] | None = None,
) -> CostVector:
    """Evaluate a schedule under the given objective kind."""
    _check_schedule(inst, sched)
    per = tuple(_scenario_cost(inst, sched.assignment, k) for k in range(inst.K))
    if kind is ObjectiveKind.MINMAX:
        agg = max(per)
    elif kind is ObjectiveKind.MINAVG:
        agg = sum(per)
    else:
        opts = scenario_opts if scenario_opts is not None else scenario_optima(inst)
        regrets = [c - o for c, o in zip(per, opts)]
        agg = max(regrets) if kind is ObjectiveKind.REGRET_MAX else sum(regrets)
    return CostVector(kind=kind, per_scenario=per, aggregate=agg)


def disbalance(inst: Instance, sched: Schedule) -> DisbalanceReport:
    """Per-scenario final and full (prefix-maximal) machine-count spreads.

    The prefix order is the canonical job order.  Defined for all weights,
    though the balance theory downstream is stated for unit weights.
    """
    _check_schedule(inst, sched)
    final_dk = []
    full_fk = []
    for jobs_k in inst.scenario_jobs:
        counts = [0] * inst.m
        worst = 0
        for j in jobs_k:
            counts[sched.assignment[j]] += 1
            spread = max(counts) - min(counts)
            if spread > worst:
                worst = spread
        final_dk.append(max(counts) - min(counts) if jobs_k else 0)
        full_fk.append(worst)
    return DisbalanceReport(final_dk=tuple(final_dk), full_fk=tuple(full_fk))


# ---------------------------------------------------------------------------
# JSON interchange.  Files carry input-order data: 0-based job indices in the
# order the user supplied them; the loader sorts and records original_order.
# ---------------------------------------------------------------------------


def instance_to_dict(inst: Instance) -> dict:
    n = inst.n
    weights = [0] * n
    for i, orig in enumerate(inst.original_order):
        weights[orig] = inst.weights[i]
    scenarios = [
        sorted(inst.original_order[j] for j in s) for s in inst.scenarios
    ]
    return {"m": inst.m, "weights": weights, "scenarios": scenarios}


def instance_from_dict(data: dict) -> Instance:
    """Build an Instance from a JSON document, coercing nothing: m, weights
    and scenario members must be integers (not booleans), and a scenario
    must not list a job twice."""
    try:
        scenarios = [list(s) for s in data["scenarios"]]
        inst = make_instance(data["m"], list(data["weights"]), scenarios)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed instance document: {exc}") from exc
    for k, members in enumerate(scenarios):
        if len(members) != len(inst.scenarios[k]):
            raise ValueError(f"scenario {k} lists a job more than once")
    return inst


def schedule_to_dict(inst: Instance, sched: Schedule) -> dict:
    _check_schedule(inst, sched)
    out = [0] * inst.n
    for i, orig in enumerate(inst.original_order):
        out[orig] = sched.assignment[i]
    return {"assignment": out}


def schedule_from_dict(inst: Instance, data: dict) -> Schedule:
    try:
        raw = list(data["assignment"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed schedule document: {exc}") from exc
    if len(raw) != inst.n:
        raise ValueError("schedule length does not match instance")
    sched = Schedule(tuple(raw[orig] for orig in inst.original_order))
    _check_schedule(inst, sched)
    return sched


def instance_hash(inst: Instance) -> str:
    payload = json.dumps(instance_to_dict(inst), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()
