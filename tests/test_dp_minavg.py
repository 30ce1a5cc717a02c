import tracemalloc
from operator import add, le, sub

import pytest

from scensched.approx import minavg_derandomized
from scensched import dp_minavg
from scensched.dp_minavg import _bounds, _replay, _start, _walk, solve_minavg, solve_regret_sum
from scensched.dp_minmax import solve_pseudo
from scensched.generators import gen_random, gen_unsplittable, matrix_to_instance
from scensched.model import (
    MAX_STATES,
    GuardExceeded,
    ObjectiveKind,
    Schedule,
    _objective,
    evaluate,
    make_instance,
    scenario_optima,
    single_scenario_optimum,
)
from scensched.oracle import brute_force

from conftest import solver_paths, two_scenario_suite, unit_suite, weighted_suite


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
    # and {0, 1, 2}.  Min-max: the greedy gives 22, so the descent starts at
    # cap 21, which is also the root bound (scenario 2's optimum); least bound
    # first, it takes rows 0, 0, 0 (both job-2 rows bound 21; the lower wins),
    # then row 1 for job 3 (row 0 would put scenario 2 at 22): machine 0 holds
    # jobs 0 and 2, machine 1 jobs 1 and 3, totals (11, 7, 21).  That leaf
    # meets the root bound, so the descent stops there.  The sum's greedy
    # gives 39 against the root bound 38, and the descent at cap 38 finds no
    # leaf, so its witness is the greedy's.
    inst = make_instance(2, [1, 5, 6, 4], [[0, 1, 3], [0, 1], [0, 1, 2, 3]])
    res = solve_pseudo(inst, ObjectiveKind.MINMAX)
    assert (res.value, res.schedule.assignment) == (21, (0, 1, 0, 1))
    assert evaluate(inst, res.schedule, ObjectiveKind.MINMAX).per_scenario == (11, 7, 21)
    res = solve_minavg(inst)
    assert (res.value, res.schedule) == (39, minavg_derandomized(inst))


def test_replay_places_each_job_on_the_lowest_machine_holding_its_row():
    # three machines, one scenario: jobs 0 and 1 both go on a row (0,), so
    # job 0 takes machine 0 and job 1 machine 1, the lowest still at (0,);
    # job 2 goes on the row (1,), which machine 0 holds first
    inst = make_instance(3, [3, 2, 1], [[0, 1, 2]])
    rows = [(0,), (0,), (1,)]
    assert _replay(inst, rows, ((0,), (1,), (2,))) == Schedule((0, 1, 0))
    with pytest.raises(AssertionError, match="replay ended off the search's final state"):
        _replay(inst, rows, ((1,), (1,), (1,)))


def test_all_scenarios_empty():
    inst = make_instance(2, [4, 2], [[], []])
    assert solve_minavg(inst).value == 0


def test_two_scenario_value_is_sum_of_ideals():
    for inst in two_scenario_suite(40):
        ideal = sum(single_scenario_optimum(inst, k) for k in range(2))
        assert solve_minavg(inst).value == ideal


def test_state_guard(monkeypatch):
    # the triangle gadget gen_coloring(triangle, 2): the greedy gives 7, and
    # the descent at cap 6, the root bound, finds no leaf and leaves three
    # states dead: the root, job 0's one child and the one child of that
    # kept by the cap
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


def _guard_caps(inst, kind, monkeypatch) -> list:
    """The caps that the guard names at MAX_STATES = 0, 1, 2, ... until the
    solve ends, each once.  The cap is the greedy value less one until the
    first leaf and each leaf's value less one after it, so the list traces
    the leaves that the descent finds between states proved dead."""
    caps = []
    for limit in range(MAX_STATES):
        monkeypatch.setattr(dp_minavg, "MAX_STATES", limit)
        try:
            _walk(inst, kind)
        except GuardExceeded as exc:
            cap = int(str(exc).rsplit(" ", 1)[1])
            if cap not in caps:
                caps.append(cap)
        else:
            monkeypatch.setattr(dp_minavg, "MAX_STATES", MAX_STATES)
            return caps


@pytest.mark.parametrize("inst, kind, greedy, root, best, caps", [
    # the first leaf meets the root bound, the greedy value less one, and
    # ends the descent before any state is proved dead
    (make_instance(2, [1, 5, 6, 4], [[0, 1, 3], [0, 1], [0, 1, 2, 3]]),
     ObjectiveKind.MINMAX, 22, 21, 21, []),
    # one state proved dead at cap 46, then the first leaf, 44, which is
    # optimal: the descent goes on at cap 43 and finds no better leaf
    (gen_random(4, 3, 4, w_max=5, density=0.6, seed=5), ObjectiveKind.MINAVG, 47, 41, 44,
     [46, 43]),
    # a leaf, then better leaves: 109, 108, 107 and the optimum 106, each
    # found from where the last one left the descent
    (gen_random(8, 3, 4, w_max=9, density=0.6, seed=269), ObjectiveKind.MINAVG, 110, 105, 106,
     [109, 108, 107, 106, 105]),
    # no leaf below the greedy value, which is optimal
    (make_instance(2, [1, 1, 1], [[0, 1], [1, 2], [0, 2]]), ObjectiveKind.MINAVG, 7, 6, 7, [6]),
], ids=["yes-at-root", "first-leaf-optimal", "better-leaf", "greedy-optimal"])
def test_search_branches_match_the_oracle(inst, kind, greedy, root, best, caps, monkeypatch):
    _, totals, lb = _bounds(inst)
    fold = sum if kind is ObjectiveKind.MINAVG else max
    assert (fold(totals), fold(lb(_start(inst)))) == (greedy, root)
    assert brute_force(inst, kind).best_value == best
    assert _guard_caps(inst, kind, monkeypatch) == caps
    with solver_paths() as seen:
        res = _walk(inst, kind)
    assert seen == {"search": 1}
    assert res.value == best == evaluate(inst, res.schedule, kind).aggregate
    if best == greedy:
        assert res.schedule == minavg_derandomized(inst)


def test_state_guard_counts_the_whole_solve(monkeypatch):
    # unspl's sum: from the greedy's 33657 (root bound 33360) the descent
    # finds leaves of 33560, 33469 and 33432, the optimum, and proves 1819
    # states dead in all, under one count; it is the 1819th, proved while
    # refuting cap 33431, that a guard of 1818 stops at
    inst = matrix_to_instance(gen_unsplittable(2, 3))
    monkeypatch.setattr(dp_minavg, "MAX_STATES", 1818)
    with pytest.raises(GuardExceeded, match=(
            r"^count-matrix search guard: more than MAX_STATES=1818 states proved dead "
            r"at cap 33431$")):
        solve_minavg(inst)
    monkeypatch.setattr(dp_minavg, "MAX_STATES", 1819)
    assert solve_minavg(inst).value == 33432


@pytest.mark.parametrize("kind, value", [
    (ObjectiveKind.MINMAX, 50506),
    (ObjectiveKind.MINAVG, 150570),
], ids=["n20000m20000-minmax", "n20000m20000-sum"])
def test_solver_values_on_the_larger_instances(kind, value):
    # on 20 000 jobs on 20 000 machines both solves end at the root check,
    # with the greedy schedule; the hard rungs are pinned in test_rungs.py
    inst = gen_random(20000, 20000, 3, seed=1)
    res = _walk(inst, kind)
    assert res.value == value == evaluate(inst, res.schedule, kind).aggregate
    assert res.schedule == minavg_derandomized(inst)
