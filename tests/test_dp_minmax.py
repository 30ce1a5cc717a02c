import time
from fractions import Fraction

import pytest

from scensched import dp_minavg
from scensched.dp_minavg import _bounds, solve_minavg
from scensched.dp_minmax import fptas, solve_pseudo
from scensched.generators import gen_random
from scensched.model import (
    GuardExceeded,
    Instance,
    ObjectiveKind,
    evaluate,
    make_instance,
    scenario_optima,
)
from scensched.oracle import brute_force

from conftest import solver_paths, weighted_suite


def test_five_unit_jobs():
    inst = make_instance(2, [1] * 5, [[0, 1, 2, 3, 4]])
    assert solve_pseudo(inst, ObjectiveKind.MINMAX).value == 9


def test_rejects_sum_objectives():
    inst = make_instance(2, [1], [[0]])
    with pytest.raises(ValueError):
        solve_pseudo(inst, ObjectiveKind.MINAVG)


def test_regret_max_single_scenario_is_zero():
    inst = make_instance(2, [4, 3, 2, 1], [[0, 1, 2, 3]])
    res = solve_pseudo(inst, ObjectiveKind.REGRET_MAX)
    assert res.value == 0


def test_state_guard(monkeypatch):
    # the triangle gadget gen_coloring(triangle, 2): the greedy misses the
    # root bound (2 for min-max, 0 for max-regret) by one, and the descent at
    # that cap finds no leaf and leaves three states dead
    inst = make_instance(2, [1, 1, 1], [[0, 1], [1, 2], [0, 2]])
    monkeypatch.setattr(dp_minavg, "MAX_STATES", 2)
    for kind, cap in ((ObjectiveKind.MINMAX, 2), (ObjectiveKind.REGRET_MAX, 0)):
        with pytest.raises(GuardExceeded, match=(
                f"^count-matrix search guard: more than MAX_STATES=2 states proved dead "
                f"at cap {cap}$")):
            solve_pseudo(inst, kind)


def test_state_guard_counts_dead_states(monkeypatch):
    # the greedy gives 16 against the root bound 13; the descent finds the
    # leaf 14 before any state is proved dead, then proves four states dead
    # refuting cap 13
    inst = gen_random(4, 3, 4, w_max=5, density=0.6, seed=5)
    monkeypatch.setattr(dp_minavg, "MAX_STATES", 3)
    with pytest.raises(GuardExceeded, match="more than MAX_STATES=3 states proved dead at cap 13$"):
        solve_pseudo(inst, ObjectiveKind.MINMAX)
    monkeypatch.setattr(dp_minavg, "MAX_STATES", 4)
    assert solve_pseudo(inst, ObjectiveKind.MINMAX).value == 14


def test_fptas_tiny_instance_exact():
    inst = make_instance(2, [4, 3], [[0, 1]])
    res = fptas(inst, Fraction(1))
    assert res.value == 7


def test_fptas_eps_validation():
    inst = make_instance(2, [4, 3], [[0, 1]])
    with pytest.raises(ValueError):
        fptas(inst, Fraction(0))
    with pytest.raises(ValueError):
        fptas(inst, Fraction(-1, 2))


def test_fptas_unit_weights_match_exact_solver():
    for n, m in ((5, 2), (6, 3)):
        inst = make_instance(m, [1] * n, [list(range(n)), list(range(0, n, 2))])
        exact = solve_pseudo(inst, ObjectiveKind.MINMAX).value
        for eps in (Fraction(1, 2), Fraction(2), Fraction(1, 7)):
            assert fptas(inst, eps).value == exact


def test_fptas_zero_weights_round_to_zero():
    inst = make_instance(2, [6, 3, 0, 0], [[0, 2], [1, 3]])
    res = fptas(inst, Fraction(1, 2))
    assert res.rounded.weights[-2:] == (0, 0)
    assert res.value == brute_force(inst, ObjectiveKind.MINMAX).best_value


def test_fptas_solves_instance_itself_when_rounding_cannot_shrink():
    # rho = W*eps/(m*n^2) <= 1 on every instance here
    for inst in weighted_suite(20):
        res = fptas(inst, Fraction(1, 2))
        assert res.rounded is inst
        assert res.value == solve_pseudo(inst, ObjectiveKind.MINMAX).value


def test_fptas_rounds_when_rho_exceeds_one():
    inst = make_instance(1, [1000, 999, 1], [[0, 1, 2]])
    res = fptas(inst, Fraction(1))  # rho = 1000/9
    assert res.rounded.weights == (9, 9, 1)
    opt = brute_force(inst, ObjectiveKind.MINMAX).best_value
    assert res.value <= 2 * opt


def test_machines_beyond_n_change_nothing():
    for inst in weighted_suite(40):
        exact = Instance(inst.n, inst.weights, inst.scenarios, inst.original_order)
        extra = Instance(inst.n + 3, inst.weights, inst.scenarios, inst.original_order)
        for kind in (ObjectiveKind.MINMAX, ObjectiveKind.REGRET_MAX):
            assert solve_pseudo(extra, kind).value == solve_pseudo(exact, kind).value
        assert solve_minavg(extra).value == solve_minavg(exact).value
        for kind in ObjectiveKind:
            assert (brute_force(extra, kind).best_value
                    == brute_force(exact, kind).best_value)


def test_many_machines_few_jobs_returns_at_once():
    inst = make_instance(20000, [3, 2, 1], [[0, 1], [1, 2]])
    start = time.perf_counter()
    res = solve_pseudo(inst, ObjectiveKind.MINMAX)
    avg = solve_minavg(inst)
    assert time.perf_counter() - start < 5.0
    # every job alone on a machine
    assert res.value == 5 and avg.value == 8
    assert evaluate(inst, res.schedule, ObjectiveKind.MINMAX).aggregate == 5


@pytest.mark.parametrize("n, seed, kind, aggregate", [
    (30, 1, ObjectiveKind.MINMAX, max),
    (40, 0, ObjectiveKind.MINAVG, sum),
])
def test_pruning_keeps_large_instances_small(n, seed, kind, aggregate, monkeypatch):
    # Unpruned, the widest layer of the count-matrix walk held 346,000 cost
    # vectors (n=30, min-max) and 692,000 count matrices (n=40, sum).  The
    # greedy schedule meets the root bound on both, so the root check is off
    # here, and the descent from the all-on-one incumbent proves 0 and 66
    # states dead.
    inst = gen_random(n, 3, 3, w_max=9, density=0.5, seed=seed)
    monkeypatch.setattr(dp_minavg, "MAX_STATES", 10_000)
    with solver_paths(root_check=False):
        if kind is ObjectiveKind.MINMAX:
            res = solve_pseudo(inst, kind)
        else:
            res = solve_minavg(inst)
    assert evaluate(inst, res.schedule, kind).aggregate == res.value
    _, totals, _ = _bounds(inst)
    assert aggregate(scenario_optima(inst)) <= res.value <= aggregate(totals)
