import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scensched import oracle
from scensched.generators import Graph, gen_coloring, gen_random
from scensched.model import (
    GUARD_BITS,
    GuardExceeded,
    ObjectiveKind,
    Schedule,
    evaluate,
    make_instance,
    single_scenario_optimum,
)
from scensched.oracle import (
    _check_guard,
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
    assert optimal_schedules(inst, ObjectiveKind.MINAVG) == [Schedule((0, 0, 0))]
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
            assert len(optimal_schedules(zero, kind)) == expected


def _reference(inst, kind):
    """The optimum and every canonical optimal schedule, in enumeration
    order, from a plain enumeration: each canonical assignment is evaluated
    by ``model.evaluate``, with no bound."""
    best, optima = None, []
    for assign in iter_canonical_assignments(inst.n, inst.m):
        sched = Schedule(tuple(assign))
        value = evaluate(inst, sched, kind).aggregate
        if best is None or value < best:
            best, optima = value, []
        if value == best:
            optima.append(sched)
    return best, optima


def _assert_matches_reference(inst):
    for kind in ObjectiveKind:
        best, optima = _reference(inst, kind)
        res = brute_force(inst, kind)
        assert (res.best_value, res.best_schedule) == (best, optima[0]), (inst, kind)
        assert optimal_schedules(inst, kind) == optima, (inst, kind)


def _reference_suite(count=400):
    """Every n 1-10 and m 1-4 (m > n included), K 1-4, all-zero weights and
    w_max 1, 2, 9, and jobs in no scenario.  n stops at 7 on m = 3 and at 6
    on m = 4, which keeps each enumeration under 520 leaves."""
    suite = []
    for s in range(count):
        rng = random.Random(s)
        m = 1 + s % 4
        n = 1 + (s // 4) % (10, 10, 7, 6)[m - 1]
        K = 1 + (s // 3) % 4
        w_max = (0, 1, 2, 9)[(s // 5) % 4]
        weights = [rng.randint(0, w_max) for _ in range(n)]
        scenarios = [[j for j in range(n) if rng.random() < 0.5] for _ in range(K)]
        suite.append(make_instance(m, weights, scenarios))
    return suite


def test_pruned_search_matches_plain_enumeration():
    suite = _reference_suite()
    assert {inst.n for inst in suite} == set(range(1, 11))
    assert {inst.m for inst in suite} == {1, 2, 3, 4}
    assert {inst.K for inst in suite} == {1, 2, 3, 4}
    assert any(inst.m > inst.n for inst in suite)
    assert {inst.max_weight for inst in suite} >= {0, 1, 2, 9}
    assert any(() in inst.job_scenarios for inst in suite)
    for inst in suite:
        _assert_matches_reference(inst)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pruned_search_matches_plain_enumeration_drawn(data):
    m = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 8 if m <= 2 else 6))
    weights = data.draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    scenarios = data.draw(st.lists(
        st.lists(st.integers(0, n - 1), unique=True), min_size=1, max_size=4))
    _assert_matches_reference(make_instance(m, weights, scenarios))


@pytest.mark.parametrize("kind", [ObjectiveKind.MINMAX, ObjectiveKind.MINAVG])
def test_search_stops_at_the_first_leaf_that_meets_the_root_bound(kind):
    # 22 jobs on 2 machines: 2^21 canonical assignments, and the first
    # canonical optimum meets the root bound after a few hundred nodes (calls
    # of the search's rec); a search that went on past it would enter more
    # than a million, so the profiler raises past 10 000
    inst = gen_random(22, 2, 3, w_max=1, density=0.5, seed=2)
    rec_code = next(c for c in oracle._search.__code__.co_consts
                    if getattr(c, "co_name", None) == "rec")
    nodes = 0

    def profile(frame, event, arg):
        nonlocal nodes
        if event == "call" and frame.f_code is rec_code:
            nodes += 1
            if nodes > 10_000:
                raise AssertionError("more than 10 000 search nodes")

    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        res = brute_force(inst, kind)
    finally:
        sys.setprofile(old)
    agg = max if kind is ObjectiveKind.MINMAX else sum
    assert res.best_value == agg(single_scenario_optimum(inst, k) for k in range(inst.K))
    assert nodes < 1000


def test_guard_counts_the_canonical_assignments():
    for n in range(1, 16):
        for m in range(1, 18):
            for bits in (0.0, 4.0, 9.5, GUARD_BITS):
                if _stirling_partitions_up_to(n, m) <= 2 ** bits:
                    _check_guard(n, m, bits)
                    continue
                with pytest.raises(GuardExceeded, match=(
                        rf"more than 2\^{bits} canonical assignments for n={n}, m={m}$")):
                    _check_guard(n, m, bits)
    # 2^21 leaves for 22 jobs on two machines, 52 for 5 jobs on 200
    _check_guard(22, 2, GUARD_BITS)
    _check_guard(5, 200, GUARD_BITS)
    with pytest.raises(GuardExceeded):
        _check_guard(23, 2, GUARD_BITS)


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
    assert optima[0] == res.best_schedule
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
