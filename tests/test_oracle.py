from fractions import Fraction

import pytest

from scensched.generators import Graph, gen_coloring
from scensched.model import (
    GuardExceeded,
    ObjectiveKind,
    Schedule,
    evaluate,
    make_instance,
    single_scenario_optimum,
)
from scensched.oracle import (
    brute_force,
    expected_uniform_cost,
    iter_canonical_assignments,
    optimal_schedules,
)

from conftest import small_suite


def test_five_unit_jobs_two_machines():
    inst = make_instance(2, [1] * 5, [[0, 1, 2, 3, 4]])
    assert brute_force(inst, ObjectiveKind.MINMAX).best_value == 9


def test_single_machine_unique_schedule():
    inst = make_instance(1, [4, 2, 1], [[0, 2], [1]])
    res = brute_force(inst, ObjectiveKind.MINAVG)
    assert res.optima_count == 1
    assert res.best_value == evaluate(inst, Schedule((0, 0, 0)), ObjectiveKind.MINAVG).aggregate


def test_triangle_coloring_needs_three():
    inst = gen_coloring(Graph(3, ((0, 1), (1, 2), (0, 2))), 2)
    assert brute_force(inst, ObjectiveKind.MINMAX).best_value == 3


def _stirling_partitions_up_to(n, m):
    # number of partitions of an n-set into at most m nonempty blocks
    row = [1] + [0] * n  # S(0, b)
    for _ in range(n):
        new = [0] * (n + 1)
        for b in range(1, n + 1):
            new[b] = row[b - 1] + b * row[b]
        row = new
    return sum(row[: m + 1])


def test_canonical_enumeration_counts_set_partitions():
    for n, m in ((4, 2), (5, 3), (6, 2), (6, 6), (3, 5), (6, 3), (7, 2), (5, 5), (4, 7)):
        expected = _stirling_partitions_up_to(n, m)
        visited = sum(1 for _ in iter_canonical_assignments(n, m))
        assert visited == expected
        # the oracle's own search: with zero weights every leaf it visits is optimal
        zero = make_instance(m, [0] * n, [range(n)])
        for kind in ObjectiveKind:
            assert brute_force(zero, kind).optima_count == expected
            assert len(optimal_schedules(zero, kind)) == expected


def test_guard_rejects_large_instances():
    inst = make_instance(4, [1] * 30, [[0]])
    with pytest.raises(GuardExceeded):
        brute_force(inst, ObjectiveKind.MINMAX)
    # and the guard is overridable
    inst_small = make_instance(2, [1] * 4, [[0, 1]])
    brute_force(inst_small, ObjectiveKind.MINMAX, guard_bits=4.0)


def test_minmax_dominates_every_scenario_optimum():
    for inst in small_suite(15):
        res = brute_force(inst, ObjectiveKind.MINMAX)
        for k in range(inst.K):
            assert res.best_value >= single_scenario_optimum(inst, k)


def test_optimal_schedules_all_achieve_best():
    inst = make_instance(2, [1] * 4, [[0, 1, 2, 3]])
    res = brute_force(inst, ObjectiveKind.MINAVG)
    optima = optimal_schedules(inst, ObjectiveKind.MINAVG)
    assert len(optima) == res.optima_count
    for s in optima:
        assert evaluate(inst, s, ObjectiveKind.MINAVG).aggregate == res.best_value


def test_expected_uniform_cost_two_unit_jobs():
    inst = make_instance(2, [1, 1], [[0, 1]])
    per, total = expected_uniform_cost(inst)
    assert per == (Fraction(5, 2),)
    assert total == Fraction(5, 2)
    # ratio to the optimum 2 is exactly 3/2 - 1/(2m)
    assert total / 2 == Fraction(3, 2) - Fraction(1, 2 * inst.m)


def test_expected_uniform_cost_single_job():
    inst = make_instance(3, [7], [[0]])
    per, total = expected_uniform_cost(inst)
    assert per == (Fraction(7),) and total == Fraction(7)


def _enumeration_average(inst):
    import itertools

    total = 0
    count = 0
    for assign in itertools.product(range(inst.m), repeat=inst.n):
        count += 1
        total += evaluate(inst, Schedule(assign), ObjectiveKind.MINAVG).aggregate
    return Fraction(total, count)


def test_expected_uniform_cost_matches_enumeration():
    for inst in small_suite(8):
        _, total = expected_uniform_cost(inst)
        assert total == _enumeration_average(inst)
