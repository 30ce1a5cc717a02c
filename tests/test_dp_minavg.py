import tracemalloc
from operator import add, le, sub

import pytest

from scensched.approx import minavg_derandomized
from scensched import dp_minavg
from scensched.dp_config import solve_config
from scensched.dp_minavg import _bounds, _start, _walk, solve_minavg, solve_regret_sum
from scensched.dp_minmax import solve_pseudo
from scensched.generators import gen_random
from scensched.model import (
    GuardExceeded,
    ObjectiveKind,
    _objective,
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


def test_search_witness_is_its_first_leaf():
    # canonical weights (6, 5, 4, 1), jobs in scenarios {2}, {0, 1, 2}, {0, 2}
    # and {0, 1, 2}.  Min-max: the greedy gives 22, the root bound is 21
    # (scenario 2's optimum), and the search at cap 21 takes, least bound
    # first, rows 0, 0, 0 (both job-2 rows bound 21; the lower wins), then
    # row 1 for job 3 (row 0 would put scenario 2 at 22): machine 0 holds
    # jobs 0 and 2, machine 1 jobs 1 and 3, totals (11, 7, 21).  The sum's
    # search at its root bound 38 says no, so its witness is the greedy's.
    inst = make_instance(2, [1, 5, 6, 4], [[0, 1, 3], [0, 1], [0, 1, 2, 3]])
    res = solve_pseudo(inst, ObjectiveKind.MINMAX)
    assert (res.value, res.schedule.assignment) == (21, (0, 1, 0, 1))
    assert evaluate(inst, res.schedule, ObjectiveKind.MINMAX).per_scenario == (11, 7, 21)
    res = solve_minavg(inst)
    assert (res.value, res.schedule) == (39, minavg_derandomized(inst))


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
    # root bound 6, and the search that proves it leaves three states dead:
    # the root, job 0's one child and the one child of that kept by the cap
    inst = make_instance(2, [1, 1, 1], [[0, 1], [1, 2], [0, 2]])
    monkeypatch.setattr(dp_minavg, "MAX_STATES", 2)
    with pytest.raises(GuardExceeded, match=(
            r"^count-matrix search guard: more than MAX_STATES=2 states proved dead at cap 6$")):
        solve_minavg(inst)
    monkeypatch.setattr(dp_minavg, "MAX_STATES", 3)
    assert solve_minavg(inst).value == 7


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


def _pareto(bucket):
    """The entries whose keys no other key dominates componentwise."""
    front = []
    for c in sorted(bucket):
        # a dominating vector sorts first, so it is already in the front
        if not any(all(map(le, f, c)) for f in front):
            front.append(c)
    return {c: bucket[c] for c in front}


def _stored_layer_walk(inst, kind):
    """Reference for ``_walk`` without its root check: the layered
    bound-and-prune walk over Pareto fronts of cost vectors, storing every
    layer:
    each vector keeps its lexicographically least link (previous Y,
    previous C, row), the links are followed back from the optimum into a
    chain, and the chain is replayed with a drift check at every job.
    Returns ``(value, assignment)``."""
    agg, offsets = _objective(inst, kind)
    if agg is max:
        dims, opts = range(inst.K), offsets
    else:
        dims, opts = (0,) * inst.K, (sum(offsets),)
    D = len(opts)

    def fold(per_scenario):
        c = [0] * D
        for d, x in zip(dims, per_scenario):
            c[d] += x
        return c

    _, totals, lb = _bounds(inst)
    ub = max(map(sub, fold(totals), opts))
    layers = [{_start(inst): {(0,) * D: None}}]
    for j, ks in enumerate(inst.job_scenarios):
        nxt = {}
        for state, front in layers[-1].items():
            rows = list(state)
            for r, row in enumerate(state):
                if r and row == state[r - 1]:
                    continue
                inc = [0] * D
                counts = list(row)
                for k in ks:
                    counts[k] += 1
                    inc[dims[k]] += inst.weights[j] * counts[k]
                rows[r] = tuple(counts)
                new_state = tuple(sorted(rows))
                rows[r] = row
                bucket = nxt.setdefault(new_state, {})
                for c in front:
                    c2 = tuple(map(add, c, inc))
                    link = (state, c, r)
                    old = bucket.get(c2)
                    if old is None or link < old:
                        bucket[c2] = link
        kept = {}
        for state, bucket in nxt.items():
            room = [ub + o - b for o, b in zip(opts, fold(lb(state)))]
            bucket = {c: link for c, link in bucket.items() if all(map(le, c, room))}
            if bucket:
                kept[state] = _pareto(bucket) if len(bucket) > 1 else bucket
        layers.append(kept)

    value, state, c = min(
        (max(map(sub, c, opts)), state, c) for state, front in layers[-1].items() for c in front
    )
    chain = []
    for layer in reversed(layers[1:]):
        prev, c, r = layer[state][c]
        chain.append((prev, r))
        state = prev
    chain.reverse()
    machine_rows = list(_start(inst))
    assign = []
    for ks, (prev, r) in zip(inst.job_scenarios, chain):
        assert tuple(sorted(machine_rows)) == prev, "replay drifted off the stored chain"
        i = machine_rows.index(prev[r])
        counts = list(prev[r])
        for k in ks:
            counts[k] += 1
        machine_rows[i] = tuple(counts)
        assign.append(i)
    return value, tuple(assign)


def test_walk_equals_the_stored_layer_walk():
    # the search and the layered walk agree on every value; the search's
    # witness may be another optimum, so it is checked by its own cost
    with solver_paths(root_check=False):
        for inst in weighted_suite() + unit_suite():
            for kind in ObjectiveKind:
                res = _walk(inst, kind)
                assert res.value == _stored_layer_walk(inst, kind)[0]
                assert evaluate(inst, res.schedule, kind).aggregate == res.value


def test_search_peaks_below_the_stored_layer_walk():
    # the stored-layer walk holds all n + 1 layers of link tuples; the search
    # holds one root-to-leaf stack and its dead set, well under that peak
    cases = [
        (gen_random(20, 3, 3, w_max=9, seed=0), ObjectiveKind.MINMAX),
        (gen_random(20, 3, 3, w_max=1, seed=0), ObjectiveKind.MINAVG),
    ]
    for inst, kind in cases:
        peaks = []
        for walk in (_walk, _stored_layer_walk):
            tracemalloc.start()
            try:
                with solver_paths(root_check=False):
                    walk(inst, kind)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert 4 * peaks[0] <= 3 * peaks[1], (kind, peaks)


@pytest.mark.parametrize("inst, kind, greedy, root, best", [
    # the search at the root bound finds a leaf
    (make_instance(2, [1, 5, 6, 4], [[0, 1, 3], [0, 1], [0, 1, 2, 3]]),
     ObjectiveKind.MINMAX, 22, 21, 21),
    # no at the root bound, then a leaf by bisection
    (gen_random(4, 3, 4, w_max=5, density=0.6, seed=5), ObjectiveKind.MINAVG, 47, 41, 44),
    (gen_random(4, 3, 4, w_max=5, density=0.6, seed=5), ObjectiveKind.MINMAX, 16, 13, 14),
    # no below the greedy value, which is optimal
    (make_instance(2, [1, 1, 1], [[0, 1], [1, 2], [0, 2]]), ObjectiveKind.MINAVG, 7, 6, 7),
], ids=["yes-at-root", "bisection-minavg", "bisection-minmax", "greedy-optimal"])
def test_search_branches_match_the_oracle(inst, kind, greedy, root, best):
    _, totals, lb = _bounds(inst)
    fold = sum if kind is ObjectiveKind.MINAVG else max
    assert (fold(totals), fold(lb(_start(inst)))) == (greedy, root)
    assert brute_force(inst, kind).best_value == best
    with solver_paths() as seen:
        res = _walk(inst, kind)
    assert seen == {"search": 1}
    assert res.value == best == evaluate(inst, res.schedule, kind).aggregate
    if best == greedy:
        assert res.schedule == minavg_derandomized(inst)
