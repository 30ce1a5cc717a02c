import pytest

from scensched.approx import minavg_derandomized
from scensched import dp_minavg
from scensched.dp_config import solve_config
from scensched.dp_minavg import _bounds, _start, solve_minavg, solve_regret_sum
from scensched.dp_minmax import solve_pseudo
from scensched.generators import gen_random
from scensched.model import (
    GuardExceeded,
    ObjectiveKind,
    evaluate,
    make_instance,
    scenario_optima,
    single_scenario_optimum,
)
from scensched.oracle import brute_force

from conftest import on_both_paths, solver_paths, two_scenario_suite, unit_suite, weighted_suite


def test_single_scenario_equals_round_robin_formula():
    inst = make_instance(3, [9, 5, 5, 2, 1], [[0, 1, 2, 3, 4]])
    assert solve_minavg(inst).value == single_scenario_optimum(inst, 0)


def test_small_example_matches_oracle():
    inst = make_instance(2, [3, 2, 1], [[0, 1, 2], [0, 2]])
    res = solve_minavg(inst)
    assert res.value == brute_force(inst, ObjectiveKind.MINAVG).best_value
    assert evaluate(inst, res.schedule, ObjectiveKind.MINAVG).aggregate == res.value


def test_walk_keeps_the_least_link():
    # two optima for each objective, (0, 0, 1) and (0, 1, 1); the walk keeps
    # each vector's lexicographically least link, which replays to (0, 1, 1)
    inst = gen_random(3, 2, 2, w_max=3, density=0.6, seed=2)
    with solver_paths(root_check=False):
        assert solve_minavg(inst).schedule.assignment == (0, 1, 1)
        assert solve_pseudo(inst, ObjectiveKind.MINMAX).schedule.assignment == (0, 1, 1)


def test_all_scenarios_empty():
    inst = make_instance(2, [4, 2], [[], []])
    assert solve_minavg(inst).value == 0


def test_matches_oracle_on_suite():
    suite = weighted_suite(60)
    best = [brute_force(inst, ObjectiveKind.MINAVG).best_value for inst in suite]

    def check():
        for inst, value in zip(suite, best):
            res = solve_minavg(inst)
            assert res.value == value
            assert evaluate(inst, res.schedule, ObjectiveKind.MINAVG).aggregate == res.value

    on_both_paths(check)


def test_agrees_with_config_solver_on_unit_weights():
    for inst in unit_suite(40):
        assert solve_minavg(inst).value == solve_config(inst, ObjectiveKind.MINAVG).value


def test_two_scenario_value_is_sum_of_ideals():
    for inst in two_scenario_suite(40):
        ideal = sum(single_scenario_optimum(inst, k) for k in range(2))
        assert solve_minavg(inst).value == ideal


def test_regret_sum_shift():
    suite = weighted_suite(20)
    best = [brute_force(inst, ObjectiveKind.REGRET_SUM).best_value for inst in suite]

    def check():
        for inst, value in zip(suite, best):
            res = solve_regret_sum(inst)
            plain = solve_minavg(inst)
            # the offset sum(opt_k) is a constant, so the witness is the sum's
            assert res.value == plain.value - sum(scenario_optima(inst))
            assert res.schedule == plain.schedule
            assert res.value == value

    on_both_paths(check)


def test_state_guard(monkeypatch):
    # the triangle gadget gen_coloring(triangle, 2) has no schedule at the
    # root bound, so the walk runs and its third layer holds three count
    # matrices
    inst = make_instance(2, [1, 1, 1], [[0, 1], [1, 2], [0, 2]])
    monkeypatch.setattr(dp_minavg, "MAX_STATES", 2)
    with pytest.raises(GuardExceeded, match="at job 3"):
        solve_minavg(inst)


def test_start_state_bounds_are_scenario_optima():
    for inst in weighted_suite() + unit_suite():
        *_, lb = _bounds(inst)
        assert lb(_start(inst)) == scenario_optima(inst)


def test_incumbent_is_the_greedy_schedule_and_bounds_every_objective():
    for inst in weighted_suite(60):
        assign, totals, _ = _bounds(inst)
        schedule = minavg_derandomized(inst)
        assert assign == schedule.assignment
        assert totals == evaluate(inst, schedule, ObjectiveKind.MINAVG).per_scenario
        regrets = [t - o for t, o in zip(totals, scenario_optima(inst))]
        assert sum(totals) >= solve_minavg(inst).value
        assert max(totals) >= solve_pseudo(inst, ObjectiveKind.MINMAX).value
        assert max(regrets) >= solve_pseudo(inst, ObjectiveKind.REGRET_MAX).value
        assert sum(regrets) >= solve_regret_sum(inst).value


def test_root_check_returns_the_greedy_schedule():
    solvers = {
        ObjectiveKind.MINAVG: solve_minavg,
        ObjectiveKind.MINMAX: lambda inst: solve_pseudo(inst, ObjectiveKind.MINMAX),
        ObjectiveKind.REGRET_MAX: lambda inst: solve_pseudo(inst, ObjectiveKind.REGRET_MAX),
        ObjectiveKind.REGRET_SUM: solve_regret_sum,
    }
    for kind, solve in solvers.items():
        at_root = 0
        for inst in weighted_suite(60):
            with solver_paths() as seen:
                res = solve(inst)
            if "root" in seen:
                at_root += 1
                greedy = minavg_derandomized(inst)
                assert res.schedule == greedy
                assert res.value == evaluate(inst, greedy, kind).aggregate
        assert at_root
