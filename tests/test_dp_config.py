import pytest

from scensched.dp_config import solve_config
from scensched.model import (
    ObjectiveKind,
    evaluate,
    make_instance,
)
from scensched.oracle import brute_force


def test_forced_round_robin():
    inst = make_instance(2, [1] * 4, [[0, 1, 2, 3], [0, 1, 2, 3]])
    assert solve_config(inst, ObjectiveKind.MINMAX).value == 6


def test_two_scenario_example_matches_oracle():
    inst = make_instance(2, [1] * 4, [[0, 1, 2], [2, 3]])
    res = solve_config(inst, ObjectiveKind.MINAVG)
    assert res.value == brute_force(inst, ObjectiveKind.MINAVG).best_value


def test_one_job_per_machine():
    inst = make_instance(5, [1] * 4, [[0], [1], [2], [3]])
    assert solve_config(inst, ObjectiveKind.MINMAX).value == 1


def test_rejects_nonunit_weights():
    inst = make_instance(2, [2, 1], [[0, 1]])
    with pytest.raises(ValueError):
        solve_config(inst, ObjectiveKind.MINMAX)


def test_rejects_regret_kinds():
    inst = make_instance(2, [1, 1], [[0, 1]])
    with pytest.raises(ValueError):
        solve_config(inst, ObjectiveKind.REGRET_MAX)


def test_many_profile_types_match_oracle():
    # 10 jobs with 10 distinct nonempty profiles over K=4 scenarios
    profiles = [(0,), (1,), (2,), (3,), (0, 1), (0, 2), (1, 3), (2, 3), (0, 1, 2), (0, 1, 2, 3)]
    scenarios = [[j for j, p in enumerate(profiles) if k in p] for k in range(4)]
    for m in (2, 3):
        inst = make_instance(m, [1] * len(profiles), scenarios)
        for kind in (ObjectiveKind.MINMAX, ObjectiveKind.MINAVG):
            res = solve_config(inst, kind)
            assert res.value == brute_force(inst, kind).best_value
            assert evaluate(inst, res.schedule, kind).aggregate == res.value


def test_configuration_cost_formula_matches_evaluation():
    # a machine holding q_T jobs of each type costs the triangular number of
    # its per-scenario load; check against direct evaluation of a
    # single-machine materialization
    import itertools
    import random

    from scensched.model import Schedule, evaluate_scenario

    rng = random.Random(4)
    for _ in range(20):
        K = rng.randint(1, 3)
        profiles = [p for r in range(1, K + 1) for p in itertools.combinations(range(K), r)]
        q = [rng.randint(0, 3) for _ in profiles]
        jobs = [p for p, ct in zip(profiles, q) for _ in range(ct)]
        if not jobs:
            continue
        inst = make_instance(
            1, [1] * len(jobs), [[j for j, p in enumerate(jobs) if k in p] for k in range(K)]
        )
        sched = Schedule((0,) * len(jobs))
        for k in range(K):
            load = sum(ct for p, ct in zip(profiles, q) if k in p)
            assert evaluate_scenario(inst, sched, k) == load * (load + 1) // 2


def test_all_scenarios_empty_unit_instance():
    inst = make_instance(3, [1, 1], [[], []])
    assert solve_config(inst, ObjectiveKind.MINAVG).value == 0


def test_all_jobs_everywhere_scaling_in_m():
    for n, m in ((7, 2), (8, 3), (9, 4)):
        inst = make_instance(m, [1] * n, [list(range(n)), list(range(n))])
        expected = sum(r // m + 1 for r in range(n))
        res = solve_config(inst, ObjectiveKind.MINMAX)
        assert res.value == expected
        assert all(c == expected for c in evaluate(inst, res.schedule, ObjectiveKind.MINMAX).per_scenario)
