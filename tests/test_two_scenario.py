import pytest

from scensched.generators import gen_random
from scensched.model import (
    Schedule,
    evaluate_scenario,
    make_instance,
    single_scenario_optimum,
)
from scensched.two_scenario import solve_two_scenarios


def _assert_ideal(inst, sched):
    for k in (0, 1):
        assert evaluate_scenario(inst, sched, k) == single_scenario_optimum(inst, k)


def test_requires_two_scenarios():
    inst = make_instance(2, [1, 1], [[0], [1], [0, 1]])
    with pytest.raises(ValueError):
        solve_two_scenarios(inst)


def test_overlapping_unit_example():
    inst = make_instance(2, [1, 1, 1], [[0, 1], [1, 2]])
    sched = solve_two_scenarios(inst)
    assert evaluate_scenario(inst, sched, 0) == 2
    assert evaluate_scenario(inst, sched, 1) == 2
    _assert_ideal(inst, sched)


def test_identical_scenarios_round_robin():
    inst = make_instance(3, [9, 7, 4, 4, 2], [[0, 1, 2, 3, 4], [0, 1, 2, 3, 4]])
    _assert_ideal(inst, solve_two_scenarios(inst))


def test_disjoint_scenarios():
    for seed in range(30):
        inst = gen_random(8, 2 + seed % 3, 2, w_max=7, density=0.5, seed=7000 + seed)
        # make the scenarios disjoint by clipping the overlap from scenario 1
        s0, s1 = inst.scenarios
        trimmed = make_instance(
            inst.m,
            list(inst.weights),
            [sorted(s0), sorted(s1 - s0)],
        )
        _assert_ideal(trimmed, solve_two_scenarios(trimmed))


def test_jobs_outside_both_scenarios_are_harmless():
    inst = make_instance(2, [5, 4, 3, 2], [[0], [3]])
    _assert_ideal(inst, solve_two_scenarios(inst))


def test_single_machine():
    inst = make_instance(1, [3, 2, 1], [[0, 1], [1, 2]])
    sched = solve_two_scenarios(inst)
    assert sched.assignment == (0, 0, 0)
    _assert_ideal(inst, sched)


def _reference(inst):
    """The solver with both 0/1 load vectors held in full, m entries each:
    the reference the interval form must give witness for witness."""
    m = inst.m
    s = [[0] * m, [0] * m]
    mu = [0, 0]
    nu = [m - 1, m - 1]
    perm = list(range(m))
    assign = [0] * inst.n

    def reset(k):
        o = 1 - k
        new_order = (
            list(range(0, mu[o])) + list(range(nu[o] + 1, m)) + list(range(mu[o], nu[o] + 1))
        )
        perm[:] = [perm[l] for l in new_order]
        ones = mu[o] + (m - 1 - nu[o])
        s[o] = [1] * ones + [0] * (m - ones)
        s[k] = [0] * m
        mu[k], nu[k] = 0, m - 1
        mu[o], nu[o] = ones, m - 1

    for j in range(inst.n):
        ks = inst.job_scenarios[j]
        if len(ks) == 2:
            assert nu[0] == nu[1]
            l = nu[0]
            assert s[0][l] == 0 and s[1][l] == 0
            s[0][l] = s[1][l] = 1
            nu[0] -= 1
            nu[1] -= 1
        elif len(ks) == 1:
            k = ks[0]
            l = mu[k]
            assert s[k][l] == 0
            s[k][l] = 1
            mu[k] += 1
        else:
            l = 0
        assign[j] = perm[l]
        for k in (0, 1):
            if all(s[k]):
                reset(k)
    return Schedule(tuple(assign))


def test_interval_form_matches_the_full_vectors():
    # m from 1 to 12 against n up to 25, so most instances reset at least once
    for i in range(600):
        n, m = 1 + i % 25, 1 + i % 12
        w_max = (1, 9)[i % 2]
        density = (0.3, 0.5, 0.8)[i % 3]
        inst = gen_random(n, m, 2, w_max=w_max, density=density, seed=9000 + i)
        assert solve_two_scenarios(inst) == _reference(inst), inst
