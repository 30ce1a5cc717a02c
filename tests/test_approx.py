import random
from fractions import Fraction

import pytest

from scensched.approx import _greedy, minavg_derandomized, minmax_all_on_one
from scensched.generators import gen_random
from scensched.model import (
    ObjectiveKind,
    evaluate,
    make_instance,
    single_scenario_optimum,
)
from scensched.oracle import brute_force, expected_uniform_cost

from conftest import weighted_suite


def test_all_on_one_requires_two_machines():
    with pytest.raises(ValueError):
        minmax_all_on_one(make_instance(3, [1], [[0]]))


def test_all_on_one_five_unit_jobs():
    inst = make_instance(2, [1] * 5, [[0, 1, 2, 3, 4]])
    sched = minmax_all_on_one(inst)
    assert evaluate(inst, sched, ObjectiveKind.MINMAX).aggregate == 15  # vs optimum 9


def test_all_on_one_single_job_is_optimal():
    inst = make_instance(2, [6], [[0]])
    sched = minmax_all_on_one(inst)
    assert evaluate(inst, sched, ObjectiveKind.MINMAX).aggregate == 6


def test_all_on_one_factor_two_on_suite():
    for inst in weighted_suite(40):
        if inst.m != 2:
            continue
        sched = minmax_all_on_one(inst)
        value = evaluate(inst, sched, ObjectiveKind.MINMAX).aggregate
        assert value <= 2 * brute_force(inst, ObjectiveKind.MINMAX).best_value


def test_derandomized_two_unit_jobs_splits():
    inst = make_instance(2, [1, 1], [[0, 1]])
    sched = minavg_derandomized(inst)
    assert evaluate(inst, sched, ObjectiveKind.MINAVG).aggregate == 2


def test_derandomized_single_scenario_is_round_robin_optimal():
    inst = make_instance(3, [8, 6, 5, 3, 1], [[0, 1, 2, 3, 4]])
    sched = minavg_derandomized(inst)
    value = evaluate(inst, sched, ObjectiveKind.MINAVG).aggregate
    assert value == single_scenario_optimum(inst, 0)


def test_derandomized_ratio_and_dominance_on_suite():
    for inst in weighted_suite(60):
        sched = minavg_derandomized(inst)
        value = evaluate(inst, sched, ObjectiveKind.MINAVG).aggregate
        opt = brute_force(inst, ObjectiveKind.MINAVG).best_value
        bound = Fraction(3, 2) - Fraction(1, 2 * inst.m)
        assert Fraction(value) <= bound * opt
        # conditional expectation never exceeds the uniform expectation
        _, expectation = expected_uniform_cost(inst)
        assert Fraction(value) <= expectation


def _all_rows_greedy(inst):
    """The greedy with a count row for each of min(m, n) machines, every row
    scanned for every job: the reference for the scan of distinct rows."""
    w = inst.weights
    counts = [[0] * inst.K for _ in range(min(inst.m, inst.n))]
    machines = range(len(counts))
    totals = [0] * inst.K
    assign = []
    for j, ks in enumerate(inst.job_scenarios):
        best = min(machines, key=lambda i: sum(counts[i][k] for k in ks))
        row = counts[best]
        for k in ks:
            row[k] += 1
            totals[k] += w[j] * row[k]
        assign.append(best)
    return tuple(assign), tuple(totals)


def test_greedy_equals_a_scan_of_all_rows():
    # m runs past n on about half the inputs, and density 1/10 leaves jobs in
    # no scenario, which tie on every row
    for s in range(600):
        rng = random.Random(s)
        n, m, K = rng.randint(1, 30), rng.randint(1, 40), rng.randint(1, 5)
        inst = gen_random(n, m, K, w_max=rng.choice((1, 9)),
                          density=rng.choice((0.1, 0.5, 1.0)), seed=s)
        assert _greedy(inst) == _all_rows_greedy(inst), (n, m, K, s)
    # many machines share a count row: m at, below and above n
    for n, m, K in ((400, 400, 5), (600, 300, 3), (300, 600, 4)):
        inst = gen_random(n, m, K, density=0.3, seed=1)
        assert _greedy(inst) == _all_rows_greedy(inst), (n, m, K)
