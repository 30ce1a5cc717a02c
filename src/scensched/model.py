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
construction and every operation is a pure function.  The records that need
no checks (``Schedule``, ``CostVector``, ...) are ``typing.NamedTuple``s;
``Instance`` validates its fields and is a ``__slots__`` class on the shared
``_Frozen`` base, as are the generators' ``Graph`` and ``ScenarioMatrix``.
"""

from __future__ import annotations

import json
from enum import Enum
from operator import sub
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from fractions import Fraction

# hashlib loads OpenSSL, which costs every CLI process a few ms and MB; the
# interpreter's own SHA-256 gives the same digest.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256


class GuardExceeded(RuntimeError):
    """A resource guard (instance size, DP state count, ...) was exceeded."""


# The size limits that keep the NP-hard cases from running for minutes, each
# defined here and nowhere else.  Every function reads its limit when it is
# called and takes no keyword for it, except the oracle's brute_force, whose
# bit limit defaults to GUARD_BITS.  No environment variable or flag changes
# them.  The Hilbert basis's K limit is not here: it is the extent of
# balance's basis table (K <= 3), since the completion procedure did not
# finish K = 4 within 60 s.
# the oracle enumerates at most 2^GUARD_BITS canonical assignments, and one
# solve by the count-matrix search proves at most MAX_STATES states dead
GUARD_BITS = 21
MAX_STATES = 2_000_000
# n*K of gen_random, checked before the first draw, and the jobs plus
# memberships of gen_coloring and gen_partition3, checked before they are built
MAX_MEMBERSHIPS = 100_000
# CPython's default limit for writing an int as text, so every value below it
# can be written to JSON: the decimal digits of gen_partition3's largest
# weight, checked before any weight is computed; of |numerator| + denominator
# of a rational read by _rational, so that 1 + eps fits too; and of the bound
# K*w_1*n(n+1)/2 on the values that `solve` and `verify` write
MAX_WEIGHT_DIGITS = 4300
MAX_ROWS = 5000  # rows of a generated unsplittable matrix, checked before a level is built
MAX_SUBSET_ROWS = 20  # rows that is_unsplittable checks by enumerating 2^rows subsets
MAX_ROUNDS = 10_000  # rounds of equalize_all


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


class _Frozen:
    """Base of the validating value types: an immutable ``__slots__`` object.

    A subclass's ``__init__`` checks its arguments and stores them with
    ``object.__setattr__``.  Equality, hash, ``repr`` and copying (``copy``,
    ``deepcopy``, ``pickle``, through ``__reduce__``, which calls the
    constructor again) use the fields named in ``_fields`` only.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Instance(_Frozen):
    """A scheduling instance in canonical (non-increasing weight) job order.

    Fields:
        m: number of identical machines (>= 1).
        weights: job weights, non-increasing, each >= 0.
        scenarios: K job subsets over internal indices 0..n-1; scenarios may
            overlap, be empty, or omit jobs entirely.
        original_order: original_order[i] is the input-order id of internal
            job i (the permutation applied by the sorting constructor).

    Two derived lookups, ``scenario_jobs`` (each scenario's jobs, sorted)
    and ``job_scenarios`` (each job's scenarios), are computed once here and
    take no part in equality, hash or ``repr``.

    Use :func:`make_instance` / :func:`from_processing_times` to construct
    from input-order data; the direct constructor expects canonical order.
    """

    __slots__ = ("m", "weights", "scenarios", "original_order", "scenario_jobs", "job_scenarios")
    _fields = ("m", "weights", "scenarios", "original_order")

    def __init__(
        self,
        m: int,
        weights: tuple[int, ...],
        scenarios: tuple[frozenset[int], ...],
        original_order: tuple[int, ...],
    ) -> None:
        # type(), not isinstance(): a bool is an int, and no count or weight
        if type(m) is not int or m < 1:
            raise ValueError("m must be a positive integer")
        # tuples and frozensets keep the instance hashable; a frozenset also
        # keeps a scenario from listing a job twice
        for name, value in (("weights", weights), ("scenarios", scenarios),
                            ("original_order", original_order)):
            if type(value) is not tuple:
                raise ValueError(f"{name} must be a tuple, got {type(value).__name__}")
        n = len(weights)
        if n < 1:
            raise ValueError("need at least one job")
        if len(scenarios) < 1:
            raise ValueError("need at least one scenario")
        for j, w in enumerate(weights):
            if type(w) is not int or w < 0:
                raise ValueError(f"weight of job {j} must be a nonnegative integer")
            if j > 0 and weights[j - 1] < w:
                raise ValueError("weights must be non-increasing in canonical order")
        if sorted(original_order) != list(range(n)):
            raise ValueError("original_order must be a permutation of 0..n-1")
        for k, s in enumerate(scenarios):
            if type(s) is not frozenset:
                raise ValueError(f"scenario {k} must be a frozenset, got {type(s).__name__}")
            if not all(type(j) is int and 0 <= j < n for j in s):
                raise ValueError(f"scenario {k} contains an invalid job index")
        scenario_jobs = tuple(tuple(sorted(s)) for s in scenarios)
        per_job: list[list[int]] = [[] for _ in range(n)]
        for k, jobs in enumerate(scenario_jobs):
            for j in jobs:
                per_job[j].append(k)
        store = object.__setattr__
        store(self, "m", m)
        store(self, "weights", weights)
        store(self, "scenarios", scenarios)
        store(self, "original_order", original_order)
        store(self, "scenario_jobs", scenario_jobs)
        store(self, "job_scenarios", tuple(tuple(ks) for ks in per_job))

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def K(self) -> int:
        return len(self.scenarios)

    @property
    def max_weight(self) -> int:
        return max(self.weights)


class Schedule(NamedTuple):
    """A total assignment of jobs to machines, in canonical job order."""

    assignment: tuple[int, ...]


class CostVector(NamedTuple):
    """Per-scenario total completion times plus the aggregate of one kind."""

    kind: ObjectiveKind
    per_scenario: tuple[int, ...]
    aggregate: int


class SolveResult(NamedTuple):
    """Value and witness schedule returned by the exact solvers."""

    value: int
    schedule: Schedule


class DisbalanceReport(NamedTuple):
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
    A scenario that lists a job twice is rejected, never merged.
    """
    n = len(weights)
    if n < 1:
        raise ValueError("need at least one job")
    # in input order and before the sort, whose key would raise TypeError on a
    # weight that is not a number
    for j, w in enumerate(weights):
        if type(w) is not int or w < 0:
            raise ValueError(f"weight of job {j} must be a nonnegative integer")
    order = sorted(range(n), key=lambda j: (-weights[j], j))
    pos = {orig: i for i, orig in enumerate(order)}
    remapped = []
    sizes = []
    for s in scenarios:
        listed = list(s)
        # in input order, so the first bad member is named whatever the hash seed
        for j in listed:
            if type(j) is not int or not 0 <= j < n:
                raise ValueError(f"scenario member {j!r} is not a job index in 0..{n - 1}")
        remapped.append(frozenset(pos[j] for j in listed))
        sizes.append(len(listed))
    inst = Instance(
        m=m,
        weights=tuple(weights[o] for o in order),
        scenarios=tuple(remapped),
        original_order=tuple(order),
    )
    # checked last, so that a bad m or weight is reported before a duplicate
    for k, size in enumerate(sizes):
        if size != len(remapped[k]):
            raise ValueError(f"scenario {k} lists a job more than once")
    return inst


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
        # type(), not isinstance(): a bool is not a machine
        if type(i) is not int or not 0 <= i < inst.m:
            raise ValueError(f"machine index {i!r} is not an integer in 0..{inst.m - 1}")


def _check_scenario(inst: Instance, k) -> None:
    # type(), not isinstance(): a bool is not a scenario index
    if type(k) is not int:
        raise ValueError(f"scenario index {k!r} is not an integer")
    if not 0 <= k < inst.K:
        raise IndexError(f"scenario index {k} out of range")


def _require_unit_weights(inst: Instance, message: str) -> None:
    """ValueError(message) unless every weight is 1: the weights are
    non-increasing, so the first and the last decide, in O(1)."""
    if (inst.weights[0], inst.weights[-1]) != (1, 1):
        raise ValueError(message)


def _rational(text: str) -> Fraction:
    """Parses a rational like 1/2 or 1e-3; ValueError when malformed or when
    |numerator| + denominator reaches 10**MAX_WEIGHT_DIGITS, so that the value
    and 1 + value can both be written as text.  The exponent is bounded
    before ``Fraction`` builds 10**exponent exactly (1e-100000000 would take
    minutes).  ``fractions`` (with ``decimal``) loads only in the processes
    that call this."""
    from fractions import Fraction

    _, e, exponent = text.lower().partition("e")
    try:
        huge = bool(e) and abs(int(exponent)) > MAX_WEIGHT_DIGITS
    except ValueError:  # no exponent: Fraction names the malformed text
        huge = False
    if huge:
        raise ValueError(f"the exponent of {text!r} is past {MAX_WEIGHT_DIGITS}")
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    if abs(value.numerator) + value.denominator >= 10**MAX_WEIGHT_DIGITS:
        raise ValueError(f"{text!r} has more than {MAX_WEIGHT_DIGITS} digits "
                         "in its numerator plus denominator")
    return value


def evaluate_scenario(inst: Instance, sched: Schedule, k: int) -> int:
    """Total completion time of scenario k under the schedule.

    Sum over jobs j in S_k of ``w_j * rank``, where rank counts the jobs of
    ``S_k`` on j's machine that precede j (inclusive) in canonical order.
    """
    _check_scenario(inst, k)
    _check_schedule(inst, sched)
    return _scenario_cost(inst, sched.assignment, k)


def _scenario_cost(inst: Instance, assignment, k: int) -> int:
    counts: dict = {}  # only the machines that hold a job, so any m costs O(n)
    total = 0
    w = inst.weights
    for j in inst.scenario_jobs[k]:
        i = assignment[j]
        counts[i] = c = counts.get(i, 0) + 1
        total += w[j] * c
    return total


def scenario_optima(inst: Instance) -> tuple[int, ...]:
    """The standalone optimum of every scenario (round-robin closed form)."""
    return tuple(single_scenario_optimum(inst, k) for k in range(inst.K))


def single_scenario_optimum(inst: Instance, k: int) -> int:
    """Minimum total completion time of scenario k over all schedules.

    Round-robin by non-increasing weight is optimal for a single scenario:
    the r-th heaviest scenario job ends up in position ceil(r/m).
    """
    _check_scenario(inst, k)
    total = 0
    m = inst.m
    for r, j in enumerate(inst.scenario_jobs[k]):
        total += inst.weights[j] * (r // m + 1)
    return total


def _objective_kind(kind) -> ObjectiveKind:
    """``kind`` as an ObjectiveKind: a member, or a member's value string;
    anything else raises ValueError rather than passing for one kind."""
    try:
        return ObjectiveKind(kind)
    except ValueError:
        raise ValueError(f"unknown objective kind {kind!r}") from None


def _objective(inst: Instance, kind: ObjectiveKind) -> tuple:
    """``(agg, offsets)``: under ``kind`` the per-scenario totals C are worth
    ``agg(C_k - offsets_k)``.  ``agg`` is max for the min-max kinds and sum
    for the sum kinds; the offsets are the scenario optima for the regrets
    and zeros otherwise.  An unknown kind raises ValueError."""
    kind = _objective_kind(kind)
    agg = max if kind in (ObjectiveKind.MINMAX, ObjectiveKind.REGRET_MAX) else sum
    if kind in (ObjectiveKind.REGRET_MAX, ObjectiveKind.REGRET_SUM):
        return agg, scenario_optima(inst)
    return agg, (0,) * inst.K


def evaluate(inst: Instance, sched: Schedule, kind: ObjectiveKind) -> CostVector:
    """Evaluate a schedule under the given objective kind, a member or a
    member's value string; the result's ``kind`` is the member."""
    kind = _objective_kind(kind)
    _check_schedule(inst, sched)
    per = tuple(_scenario_cost(inst, sched.assignment, k) for k in range(inst.K))
    agg, offsets = _objective(inst, kind)
    return CostVector(kind=kind, per_scenario=per, aggregate=agg(map(sub, per, offsets)))


def disbalance(inst: Instance, sched: Schedule) -> DisbalanceReport:
    """Per-scenario final and full (prefix-maximal) machine-count spreads.

    The prefix order is the canonical job order.  Defined for all weights,
    though the balance theory downstream is stated for unit weights.  Each
    scenario keeps a histogram of its machine counts, so the spread costs
    O(1) per job whatever m is.
    """
    _check_schedule(inst, sched)
    final_dk = []
    full_fk = []
    for jobs_k in inst.scenario_jobs:
        counts: dict = {}
        hist = [inst.m] + [0] * len(jobs_k)  # hist[c]: machines holding c jobs
        low = high = worst = 0
        for j in jobs_k:
            i = sched.assignment[j]
            c = counts.get(i, 0)
            counts[i] = c + 1
            hist[c] -= 1
            hist[c + 1] += 1
            if c == high:
                high += 1
            if c == low and not hist[c]:
                low += 1
            if high - low > worst:
                worst = high - low
        final_dk.append(high - low)
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
        return make_instance(data["m"], list(data["weights"]), scenarios)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed instance document: {exc}") from exc


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
    return sha256(payload.encode()).hexdigest()
