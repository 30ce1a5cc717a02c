import hashlib
import json

import pytest
from hypothesis import given, strategies as st

from scensched.model import (
    Instance,
    ObjectiveKind,
    Schedule,
    disbalance,
    evaluate,
    evaluate_scenario,
    from_processing_times,
    instance_from_dict,
    instance_hash,
    instance_to_dict,
    make_instance,
    scenario_optima,
    schedule_from_dict,
    schedule_to_dict,
    single_scenario_optimum,
)
from scensched.oracle import iter_canonical_assignments

from conftest import small_suite, unit_suite, weighted_suite


def test_from_processing_times_sorts_and_matches_spt():
    inst = from_processing_times([1, 2, 3], 1, [[0, 1, 2]])
    assert inst.weights == (3, 2, 1)
    # SPT completion times 1, 3, 6 sum to 10
    assert evaluate_scenario(inst, Schedule((0, 0, 0)), 0) == 10


def test_from_processing_times_single_job():
    inst = from_processing_times([5], 3, [[0]])
    for i in range(3):
        assert evaluate_scenario(inst, Schedule((i,)), 0) == 5


def test_from_processing_times_two_equal_jobs():
    inst = from_processing_times([2, 2], 2, [[0, 1]])
    assert evaluate_scenario(inst, Schedule((0, 1)), 0) == 4
    assert evaluate_scenario(inst, Schedule((0, 0)), 0) == 6


def _spt_total_completion(p, assignment, members, m):
    """Independent simulator: SPT order per machine, scenario jobs only."""
    total = 0
    for i in range(m):
        times = sorted(p[j] for j in members if assignment[j] == i)
        clock = 0
        for t in times:
            clock += t
            total += clock
    return total


def test_weighted_positions_equal_spt_completion_times():
    import random

    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 8)
        m = rng.randint(1, 3)
        p = [rng.randint(0, 9) for _ in range(n)]
        members = [j for j in range(n) if rng.random() < 0.7]
        inst = from_processing_times(p, m, [members])
        raw = [rng.randrange(m) for _ in range(n)]
        # map the input-order assignment onto the sorted instance
        sched = Schedule(tuple(raw[orig] for orig in inst.original_order))
        assert evaluate_scenario(inst, sched, 0) == _spt_total_completion(
            p, raw, members, m
        )


def test_original_order_remaps_scenarios():
    # input job 0 is lightest; internally it must come last
    inst = make_instance(2, [1, 5, 3], [[0], [1, 2]])
    assert inst.weights == (5, 3, 1)
    assert inst.original_order == (1, 2, 0)
    assert inst.scenarios[0] == frozenset({2})
    assert inst.scenarios[1] == frozenset({0, 1})


def test_evaluate_scenario_weighted_positions():
    inst = make_instance(2, [3, 2, 1], [[0, 1, 2]])
    sched = Schedule((0, 1, 0))
    # machine 0 holds weights 3 (pos 1) and 1 (pos 2); machine 1 holds 2 (pos 1)
    assert evaluate_scenario(inst, sched, 0) == 3 * 1 + 1 * 2 + 2 * 1


def test_unit_jobs_balanced_and_stacked():
    inst = make_instance(2, [1] * 5, [[0, 1, 2, 3, 4]])
    assert evaluate_scenario(inst, Schedule((0, 1, 0, 1, 0)), 0) == 9  # (l+1)^2, l=2
    assert evaluate_scenario(inst, Schedule((0,) * 5), 0) == 15  # (2l+1)(l+1)


def test_evaluate_scenario_index_error():
    inst = make_instance(2, [1], [[0]])
    with pytest.raises(IndexError):
        evaluate_scenario(inst, Schedule((0,)), 1)


def test_single_scenario_optimum_examples():
    assert single_scenario_optimum(make_instance(2, [1] * 5, [[0, 1, 2, 3, 4]]), 0) == 9
    inst = make_instance(2, [4, 3, 2, 1], [[0, 1, 2, 3]])
    assert single_scenario_optimum(inst, 0) == 13
    assert single_scenario_optimum(make_instance(3, [7], [[0]]), 0) == 7
    assert single_scenario_optimum(make_instance(2, [1, 1], [[]]), 0) == 0


def test_single_scenario_optimum_is_enumeration_minimum():
    inst = make_instance(2, [4, 3, 2, 1], [[0, 1, 2, 3]])
    best = min(
        evaluate_scenario(inst, Schedule(tuple(a)), 0)
        for a in iter_canonical_assignments(4, 2)
    )
    assert best == 13


def test_round_robin_formula_is_enumeration_minimum_on_suite():
    for inst in small_suite(30):
        for k in range(inst.K):
            best = min(
                evaluate_scenario(inst, Schedule(tuple(a)), k)
                for a in iter_canonical_assignments(inst.n, inst.m)
            )
            assert best == single_scenario_optimum(inst, k)


def test_evaluate_minmax_on_cut_gadget():
    inst = make_instance(2, [1, 1], [[0, 1]])
    assert evaluate(inst, Schedule((0, 1)), ObjectiveKind.MINMAX).aggregate == 2
    assert evaluate(inst, Schedule((0, 0)), ObjectiveKind.MINMAX).aggregate == 3


def test_evaluate_names_its_kind_by_the_member():
    inst = make_instance(2, [1, 1], [[0, 1]])
    for kind in ObjectiveKind:
        for given_kind in (kind, kind.value):
            cost = evaluate(inst, Schedule((0, 1)), given_kind)
            assert cost.kind is kind and cost.kind.value == kind.value


def test_empty_scenario_costs_nothing():
    inst = make_instance(2, [4, 2], [[0, 1], []])
    for assign in ((0, 0), (0, 1)):
        assert evaluate(inst, Schedule(assign), ObjectiveKind.MINMAX).per_scenario[1] == 0


def test_regret_sum_equals_minavg_shift():
    for inst in small_suite(20):
        opts = sum(scenario_optima(inst))
        for assign in iter_canonical_assignments(inst.n, inst.m):
            sched = Schedule(tuple(assign))
            avg = evaluate(inst, sched, ObjectiveKind.MINAVG).aggregate
            reg = evaluate(inst, sched, ObjectiveKind.REGRET_SUM).aggregate
            assert reg == avg - opts


def test_adding_job_outside_all_scenarios_changes_nothing():
    inst = make_instance(2, [4, 3, 1], [[0, 1], [2]])
    bigger = make_instance(2, [4, 3, 2, 1], [[0, 1], [3]])  # weight-2 job in no scenario
    for assign in iter_canonical_assignments(3, 2):
        sched = Schedule(tuple(assign))
        grown = Schedule((assign[0], assign[1], 0, assign[2]))
        for kind in ObjectiveKind:
            assert (
                evaluate(inst, sched, kind).per_scenario
                == evaluate(bigger, grown, kind).per_scenario
            )


@given(st.data())
def test_machine_relabeling_invariance(data):
    inst = small_suite(10)[data.draw(st.integers(0, 9))]
    assign = data.draw(
        st.lists(
            st.integers(0, inst.m - 1), min_size=inst.n, max_size=inst.n
        )
    )
    perm = data.draw(st.permutations(range(inst.m)))
    sched = Schedule(tuple(assign))
    relabeled = Schedule(tuple(perm[i] for i in assign))
    for kind in ObjectiveKind:
        assert evaluate(inst, sched, kind) == evaluate(inst, relabeled, kind)


@given(st.data())
def test_full_disbalance_dominates_final(data):
    inst = small_suite(10)[data.draw(st.integers(0, 9))]
    assign = data.draw(
        st.lists(st.integers(0, inst.m - 1), min_size=inst.n, max_size=inst.n)
    )
    rep = disbalance(inst, Schedule(tuple(assign)))
    assert all(f >= d >= 0 for f, d in zip(rep.full_fk, rep.final_dk))


def test_disbalance_examples():
    inst = make_instance(2, [1] * 4, [[0, 1, 2, 3]])
    rr = disbalance(inst, Schedule((0, 1, 0, 1)))
    assert rr.final_d == 0 and rr.full_f == 1
    stacked = disbalance(inst, Schedule((0, 0, 0, 0)))
    assert stacked.final_d == 4 and stacked.full_f == 4
    halves = disbalance(inst, Schedule((0, 0, 1, 1)))
    assert halves.final_d == 0 and halves.full_f == 2


@given(st.data())
def test_disbalance_matches_its_definition(data):
    # the spread of all m machine counts after each prefix, idle machines
    # included, on m from 1 to past n
    base = small_suite(10)[data.draw(st.integers(0, 9))]
    m = data.draw(st.integers(1, 9))
    inst = Instance(m, base.weights, base.scenarios, base.original_order)
    assign = data.draw(st.lists(st.integers(0, m - 1), min_size=inst.n, max_size=inst.n))
    final_dk, full_fk = [], []
    for jobs_k in inst.scenario_jobs:
        counts = [0] * m
        spreads = [0]
        for j in jobs_k:
            counts[assign[j]] += 1
            spreads.append(max(counts) - min(counts))
        final_dk.append(spreads[-1])
        full_fk.append(max(spreads))
    rep = disbalance(inst, Schedule(tuple(assign)))
    assert rep == (tuple(final_dk), tuple(full_fk))


def test_costs_and_disbalance_skip_idle_machines():
    # 3 jobs on 10**20 machines cost what they cost on 1000, without a list of
    # 10**20 counts
    jobs = ([3, 2, 2], [[0, 1], [1, 2]])
    wide, narrow = make_instance(10**20, *jobs), make_instance(1000, *jobs)
    for assign in ((0, 0, 0), (0, 1, 2), (2, 0, 2), (1, 1, 0)):
        sched = Schedule(assign)
        for kind in ObjectiveKind:
            assert evaluate(wide, sched, kind) == evaluate(narrow, sched, kind)
        assert disbalance(wide, sched) == disbalance(narrow, sched)


def test_invalid_instances_rejected():
    with pytest.raises(ValueError):
        make_instance(0, [1], [[0]])
    with pytest.raises(ValueError):
        make_instance(1, [], [[0]])
    with pytest.raises(ValueError):
        make_instance(1, [1], [])
    with pytest.raises(ValueError):
        make_instance(1, [1], [[1]])
    with pytest.raises(ValueError):
        make_instance(1, [-1], [[0]])


@pytest.mark.parametrize(
    "doc",
    [
        {"m": 2.9, "weights": [1, 2], "scenarios": [[0, 1]]},
        {"m": 2.0, "weights": [1, 2], "scenarios": [[0, 1]]},
        {"m": "2", "weights": [1, 2], "scenarios": [[0, 1]]},
        {"m": True, "weights": [1, 2], "scenarios": [[0, 1]]},
        {"m": 2, "weights": [True, 2], "scenarios": [[0, 1]]},
        {"m": 2, "weights": [1, 1, 1], "scenarios": [[True, 0, 0]]},
        {"m": 2, "weights": [1, 1], "scenarios": [[False]]},
        {"m": 2, "weights": [1, 1], "scenarios": [[0, 1, 0]]},
    ],
)
def test_loader_rejects_instead_of_coercing(doc):
    with pytest.raises(ValueError):
        instance_from_dict(doc)


@pytest.mark.parametrize("build", [
    lambda: make_instance(2, [1, 1], [[0, 0, 1]]),
    lambda: from_processing_times([1, 1], 2, [[1], [0, 1, 1]]),
    lambda: instance_from_dict({"m": 2, "weights": [1, 1], "scenarios": [[0, 0, 1]]}),
], ids=["make_instance", "from_processing_times", "instance_from_dict"])
def test_duplicate_scenario_members_rejected_by_every_entry(build):
    with pytest.raises(ValueError, match=r"^scenario \d lists a job more than once$"):
        build()


def test_first_bad_member_is_named_in_input_order():
    with pytest.raises(ValueError, match=r"^scenario member '0' is not a job index in 0\.\.3$"):
        make_instance(2, [1, 1, 1, 1], [["0", "1", "2", "3"]])
    # an unhashable member gets the same message, not a TypeError
    with pytest.raises(ValueError, match=r"^scenario member \[0\] is not a job index"):
        make_instance(2, [1], [[[0]]])


def test_bool_weights_and_members_rejected_by_constructor():
    with pytest.raises(ValueError):
        make_instance(2, [True, 1], [[0]])
    with pytest.raises(ValueError):
        make_instance(2, [1, 1], [[True]])
    with pytest.raises(ValueError):
        make_instance(True, [1, 1], [[0]])


def test_json_round_trip():
    doc = {"m": 2, "weights": [1, 5, 3], "scenarios": [[0], [1, 2]]}
    inst = instance_from_dict(doc)
    assert instance_to_dict(inst) == doc
    sched_doc = {"assignment": [1, 0, 1]}
    sched = schedule_from_dict(inst, sched_doc)
    assert schedule_to_dict(inst, sched) == sched_doc
    # input job 1 (weight 5) is internal job 0
    assert sched.assignment[0] == 0


@pytest.mark.parametrize("assignment", [[True, False, True], [1, 0, False], [0.5, 1, 0],
                                        [1.0, 0, 1], ["0", 1, 0], [None, 1, 0], [[0], 1, 0]],
                         ids=["bools", "one-bool", "float", "integral-float", "string", "null",
                              "list"])
def test_schedule_loader_rejects_non_machines(assignment):
    inst = make_instance(2, [1, 5, 3], [[0], [1, 2]])
    with pytest.raises(ValueError, match="machine index"):
        schedule_from_dict(inst, {"assignment": assignment})


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=12,
)


@given(st.fixed_dictionaries({}, optional={"m": _JSON, "weights": _JSON, "scenarios": _JSON})
       | _JSON)
def test_instance_loader_returns_or_raises_value_error(doc):
    try:
        instance_from_dict(doc)
    except ValueError:
        pass


@given(st.fixed_dictionaries({"assignment": st.lists(_JSON, min_size=3, max_size=3)})
       | st.fixed_dictionaries({"assignment": _JSON}) | _JSON)
def test_schedule_loader_returns_machines_or_raises_value_error(doc):
    inst = make_instance(2, [1, 5, 3], [[0], [1, 2]])
    try:
        sched = schedule_from_dict(inst, doc)
    except ValueError:
        return
    assert all(type(i) is int and 0 <= i < 2 for i in sched.assignment)


def test_instance_hash_is_sha256_of_the_canonical_document():
    for inst in weighted_suite() + unit_suite():
        payload = json.dumps(instance_to_dict(inst), sort_keys=True, separators=(",", ":"))
        assert instance_hash(inst) == hashlib.sha256(payload.encode()).hexdigest()
    # pinned, so that a change to the canonical document is caught too
    inst = make_instance(3, [5, 2, 7, 1], [[0, 2], [1, 2, 3]])
    assert instance_hash(inst) == "a13bc07504cf24b884bfa7a7b657fb4f288bec6f3e20d498c8ba247fbd2bf0ec"
