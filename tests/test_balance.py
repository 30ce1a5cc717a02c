import itertools
import math
import random
import re
import tracemalloc
from collections import Counter
from operator import le

import pytest

from scensched import balance, generators
from scensched.balance import (
    EqualizeReport,
    HilbertBasis,
    LatticePoint,
    basis_l1_sum,
    conjecture_probe,
    decompose,
    equalize_all,
    equalize_two,
    hilbert_basis,
    in_cone,
    lemma_final_bound_sq,
    profile_index,
    profile_round_robin,
)
from scensched.generators import gen_random
from scensched.model import (
    GuardExceeded,
    ObjectiveKind,
    Schedule,
    disbalance,
    evaluate,
    make_instance,
)
from scensched.oracle import optimal_schedules

from conftest import k2_unit_suite


def test_profile_index_is_lexicographic_bijection():
    for K in (1, 2, 3):
        seen = {profile_index(frozenset(p), K)
                for r in range(K + 1)
                for p in itertools.combinations(range(K), r)}
        assert seen == set(range(1 << K))
    assert profile_index(frozenset(), 2) == 0
    assert profile_index(frozenset({0}), 2) == 2  # first scenario is the high bit
    assert profile_index(frozenset({1}), 2) == 1
    assert profile_index(frozenset({0, 1}), 2) == 3


# ---------------------------------------------------------------------------
# Hilbert basis
# ---------------------------------------------------------------------------


def basis_norm_cap(K):
    """Classical max-norm bound for basis elements of the cone."""
    return (2 ** (2 ** (K + 1))) * math.factorial(K) ** 2


def completion_basis(K):
    """The Hilbert basis by a completion procedure: the reference the table
    in ``balance`` must equal, elements and order.

    Grow candidate vectors breadth-first from the unit vectors, extend a
    candidate by a coordinate only when that reduces its defect against the
    system Mx - My = 0 (scalar-product test), and discard anything dominated
    by an already found minimal solution.  For this homogeneous system a
    point is irreducible exactly when it is minimal under componentwise
    order among the nonzero points, so this returns the full basis; the
    classical norm bound is asserted on the way out.
    """
    P = 1 << K
    dim = 2 * P
    cols = []
    for idx in range(P):
        cols.append(tuple(1 if idx & (1 << (K - 1 - k)) else 0 for k in range(K)))
    for idx in range(P):
        cols.append(tuple(-c for c in cols[idx]))
    zero_defect = (0,) * K

    minimal = []

    def dominated(v):
        return any(all(map(le, b, v)) for b in minimal)

    frontier = {}
    for i in range(dim):
        unit = tuple(1 if c == i else 0 for c in range(dim))
        frontier[unit] = cols[i]

    while frontier:
        for v in sorted(frontier):
            if frontier[v] == zero_defect and not dominated(v):
                minimal.append(v)
        nxt = {}
        for v, defect in frontier.items():
            if defect == zero_defect:
                continue
            for i in range(dim):
                # Extend only along coordinates that reduce the defect.
                if sum(d * c for d, c in zip(defect, cols[i])) < 0:
                    v2 = list(v)
                    v2[i] += 1
                    v2 = tuple(v2)
                    if not dominated(v2):
                        nxt[v2] = tuple(d + c for d, c in zip(defect, cols[i]))
        frontier = nxt

    assert all(max(v) <= basis_norm_cap(K) for v in minimal), (
        "basis element exceeds the classical norm bound"
    )
    points = sorted((LatticePoint(x=v[:P], y=v[P:]) for v in minimal), key=lambda p: p.vector())
    return HilbertBasis(K=K, elements=tuple(points))


def test_basis_table_equals_the_completion_procedure():
    for K, size in ((1, 3), (2, 7), (3, 43)):
        basis = hilbert_basis(K)
        assert basis == completion_basis(K)  # the same elements in the same order
        assert len(basis.elements) == size


def test_basis_k1_is_exactly_three_elements():
    basis = hilbert_basis(1)
    expected = {
        LatticePoint((1, 0), (0, 0)),
        LatticePoint((0, 0), (1, 0)),
        LatticePoint((0, 1), (0, 1)),
    }
    assert set(basis.elements) == expected


def test_basis_k2_contains_named_elements():
    basis = hilbert_basis(2)
    sigma_1 = profile_index(frozenset({0}), 2)
    sigma_12 = profile_index(frozenset({0, 1}), 2)

    def unit(idx):
        return tuple(1 if c == idx else 0 for c in range(4))

    pair = LatticePoint(unit(sigma_1), unit(sigma_1))
    exchange = LatticePoint(
        unit(sigma_12),
        tuple(
            1 if c in (profile_index(frozenset({0}), 2), profile_index(frozenset({1}), 2)) else 0
            for c in range(4)
        ),
    )
    assert pair in basis.elements
    assert exchange in basis.elements


def _minimal_cone_points_by_search(K, linf_cap):
    """All componentwise-minimal nonzero cone points with entries <= cap."""
    P = 1 << K
    side = list(itertools.product(range(linf_cap + 1), repeat=P))
    by_sums = {}
    for x in side:
        sums = tuple(
            sum(x[idx] for idx in range(P) if idx & (1 << (K - 1 - k)))
            for k in range(K)
        )
        by_sums.setdefault(sums, []).append(x)
    points = []
    for xs in by_sums.values():
        for x in xs:
            for y in xs:
                if any(x) or any(y):
                    points.append(LatticePoint(x, y))
    points.sort(key=lambda p: (p.l1, p.vector()))
    minimal = []
    for p in points:
        v = p.vector()
        if not any(all(u <= w for u, w in zip(b.vector(), v)) for b in minimal):
            minimal.append(p)
    return minimal


def test_basis_k1_and_k2_match_bounded_exhaustive_search():
    # K=1 is searched up to the full classical norm cap; K=2 up to 4
    assert set(hilbert_basis(1).elements) == set(
        _minimal_cone_points_by_search(1, basis_norm_cap(1))
    )
    assert set(hilbert_basis(2).elements) == set(_minimal_cone_points_by_search(2, 4))


def test_basis_elements_are_cone_members_and_irreducible():
    for K in (1, 2, 3):
        basis = hilbert_basis(K)
        cap = basis_norm_cap(K)
        for b in basis.elements:
            assert in_cone(b, K)
            assert 0 < max(b.vector()) <= cap
        # an antichain: no element dominates another
        for a, b in itertools.combinations(basis.elements, 2):
            va, vb = a.vector(), b.vector()
            assert not all(u <= w for u, w in zip(va, vb))
            assert not all(w <= u for u, w in zip(va, vb))


def test_in_cone_rejects_a_wrong_length_or_a_negative_entry():
    K = 2
    assert in_cone(LatticePoint((1, 0, 0, 0), (1, 0, 0, 0)), K)
    assert not in_cone(LatticePoint((1, 0, 0), (1, 0, 0, 0)), K)
    assert not in_cone(LatticePoint((1, 0, 0, 0), (1, 0, 0, 0, 0)), K)
    # equal per-scenario sums on both sides, but one entry is negative
    assert not in_cone(LatticePoint((0, 1, 1, -1), (0, 0, 0, 0)), K)


def test_basis_k3_covers_all_small_cone_points():
    # every nonzero cone point of l1 norm <= 5 must dominate a basis element
    K = 3
    basis = hilbert_basis(K)
    dim = 2 * (1 << K)
    elems = [b.vector() for b in basis.elements]

    def walk(idx, budget, current):
        if idx == dim:
            p = LatticePoint(tuple(current[: dim // 2]), tuple(current[dim // 2 :]))
            if any(current) and in_cone(p, K):
                assert any(all(u <= w for u, w in zip(e, current)) for e in elems), p
            return
        for v in range(budget + 1):
            current[idx] = v
            walk(idx + 1, budget - v, current)
        current[idx] = 0

    walk(0, 5, [0] * dim)


def test_basis_guard():
    with pytest.raises(GuardExceeded, match="^Hilbert basis guard: K=4 exceeds 3$"):
        hilbert_basis(4)
    basis = hilbert_basis(3)
    assert basis.K == 3
    assert hilbert_basis(3) is basis  # decoded once, at import


def test_decompose_zero_and_doubles():
    basis = hilbert_basis(2)
    zero = LatticePoint((0,) * 4, (0,) * 4)
    assert decompose(zero, basis) == []
    b = basis.elements[1]
    doubled = LatticePoint(
        tuple(2 * v for v in b.x), tuple(2 * v for v in b.y)
    )
    assert sorted(decompose(doubled, basis), key=lambda e: e.vector()) == [b, b]


def test_decompose_backtracks_past_a_dead_end():
    # largest-first takes B = ((0, 2), (0, 2)), leaving ((1, 0), (0, 0)),
    # which no element fits; backtracking drops B and finds A + E
    A = LatticePoint((1, 1), (0, 1))
    B = LatticePoint((0, 2), (0, 2))
    E = LatticePoint((0, 1), (0, 1))
    point = LatticePoint((1, 2), (0, 2))
    assert decompose(point, HilbertBasis(1, (A, B, E))) == [A, E]
    with pytest.raises(RuntimeError, match="no decomposition found"):
        decompose(point, HilbertBasis(1, (A, B)))


def test_decompose_rejects_points_outside_cone():
    basis = hilbert_basis(1)
    with pytest.raises(ValueError):
        decompose(LatticePoint((0, 1), (0, 0)), basis)


def test_decompose_round_trips_random_combinations():
    import random

    basis = hilbert_basis(2)
    rng = random.Random(99)
    for _ in range(100):
        coeffs = [rng.randrange(0, 4) for _ in basis.elements]
        x = [0] * 4
        y = [0] * 4
        for c, b in zip(coeffs, basis.elements):
            for i in range(4):
                x[i] += c * b.x[i]
                y[i] += c * b.y[i]
        point = LatticePoint(tuple(x), tuple(y))
        parts = decompose(point, basis)
        rx = [0] * 4
        ry = [0] * 4
        for p in parts:
            for i in range(4):
                rx[i] += p.x[i]
                ry[i] += p.y[i]
        assert (tuple(rx), tuple(ry)) == (point.x, point.y)


# ---------------------------------------------------------------------------
# Profile round robin
# ---------------------------------------------------------------------------


def test_round_robin_single_profile_split():
    inst = make_instance(2, [1] * 4, [[0, 1, 2, 3]])
    out = profile_round_robin(inst, Schedule((0, 0, 0, 0)), 0, 1)
    assert disbalance(inst, out).final_d == 0


def test_round_robin_three_profiles():
    inst = make_instance(2, [1, 1, 1], [[0, 2], [1, 2]])
    out = profile_round_robin(inst, Schedule((0, 0, 0)), 0, 1)
    rep = disbalance(inst, out)
    assert all(d <= 2 for d in rep.final_dk)  # 2^(K-1) with K=2


def test_round_robin_single_scenario_bound():
    for seed in range(10):
        inst = gen_random(9, 2, 1, w_max=1, density=1.0, seed=8000 + seed)
        out = profile_round_robin(inst, Schedule((0,) * 9), 0, 1)
        assert disbalance(inst, out).final_d <= 1


def _class_list_round_robin(inst, sched, i1, i2):
    """profile_round_robin by class lists: the pair's jobs grouped by profile,
    each class alternated i1, i2 in canonical order.  The reference for the
    one parity pass."""
    K = inst.K
    classes = {}
    for j in range(inst.n):
        if sched.assignment[j] in (i1, i2):
            classes.setdefault(profile_index(inst.job_scenarios[j], K), []).append(j)
    new_assignment = list(sched.assignment)
    for idx in sorted(classes):
        for pos, j in enumerate(classes[idx]):
            new_assignment[j] = i1 if pos % 2 == 0 else i2
    return Schedule(tuple(new_assignment))


def test_round_robin_rejects_same_machine():
    inst = make_instance(2, [1], [[0]])
    with pytest.raises(ValueError):
        profile_round_robin(inst, Schedule((0,)), 1, 1)


_PAIR_PROCEDURES = pytest.mark.parametrize(
    "procedure", [equalize_two, profile_round_robin], ids=["equalize_two", "round_robin"]
)


@_PAIR_PROCEDURES
@pytest.mark.parametrize("assignment, message", [
    ((5, 5, 5, 5), "machine index 5 is not an integer in 0..1"),
    ((-1, -1, 0, 1), "machine index -1 is not an integer in 0..1"),
    ((0, 0), "schedule length does not match instance"),
    ((0.0, 1, 0, 1), "machine index 0.0 is not an integer in 0..1"),
], ids=["past-m", "negative", "short", "float"])
def test_pair_procedures_reject_a_malformed_schedule(procedure, assignment, message):
    # unchecked, a label off the machines passes through with an all-zero
    # report, and a short schedule raises IndexError
    inst = make_instance(2, [1] * 4, [[0, 1, 2, 3]])
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        procedure(inst, Schedule(assignment), 0, 1)


@_PAIR_PROCEDURES
@pytest.mark.parametrize("i1, i2, message", [
    (0.0, 1, "machine 0.0 is not an integer"),
    (False, True, "machine False is not an integer"),
    (0, 1.0, "machine 1.0 is not an integer"),
], ids=["float", "bool", "second-float"])
def test_pair_procedures_reject_a_machine_that_is_not_an_int(procedure, i1, i2, message):
    # 0.0 and False pass a range check and would come back as labels in the
    # schedule, (0.0, 1, 0.0, 1)
    inst = make_instance(2, [1] * 4, [[0, 1, 2, 3]])
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        procedure(inst, Schedule((0, 0, 0, 0)), i1, i2)


# ---------------------------------------------------------------------------
# Equalization
# ---------------------------------------------------------------------------


def _minavg(inst, sched):
    return evaluate(inst, sched, ObjectiveKind.MINAVG).aggregate


def test_equalize_two_balanced_input_stays_balanced():
    inst = make_instance(2, [1] * 6, [[0, 1, 2, 3, 4, 5]])
    sched = Schedule((0, 1, 0, 1, 0, 1))
    out, rep = equalize_two(inst, sched, 0, 1)
    assert rep.post_full == rep.pre_full == (1,)
    assert _minavg(inst, out) == _minavg(inst, sched)


def test_equalize_two_pathological_single_scenario():
    # optimal (equal final counts) but maximally lopsided prefixes
    inst = make_instance(2, [1] * 12, [list(range(12))])
    sched = Schedule((0,) * 6 + (1,) * 6)
    out, _ = equalize_two(inst, sched, 0, 1)
    assert _minavg(inst, out) == _minavg(inst, sched)
    assert disbalance(inst, out).full_f <= 2  # f(1) + sqrt(1) * 2^0


def test_equalize_two_flags_likely_nonoptimal_input():
    inst = make_instance(2, [1] * 8, [list(range(8))])
    _, rep = equalize_two(inst, Schedule((0,) * 8), 0, 1)
    assert rep.pre_final == (8,) and rep.likely_nonoptimal
    _, rep = equalize_two(inst, Schedule((0, 1) * 4), 0, 1)
    assert not rep.likely_nonoptimal


def test_equalize_two_machine_validation():
    inst = make_instance(2, [1], [[0]])
    with pytest.raises(ValueError):
        equalize_two(inst, Schedule((0,)), 0, 0)
    with pytest.raises(ValueError):
        equalize_two(inst, Schedule((0,)), 0, 5)
    with pytest.raises(ValueError):
        equalize_two(make_instance(2, [2, 1], [[0, 1]]), Schedule((0, 1)), 0, 1)


def _pair_scan_disbalance(inst, assignment, i1, i2):
    """Final and full per-scenario count differences of a machine pair, from
    a scan of all n jobs: the reference for equalize_two's report."""
    diff = [0] * inst.K
    full = [0] * inst.K
    for j in range(inst.n):
        a = assignment[j]
        if a == i1 or a == i2:
            delta = 1 if a == i1 else -1
            for k in inst.job_scenarios[j]:
                diff[k] += delta
                full[k] = max(full[k], abs(diff[k]))
    return tuple(abs(v) for v in diff), tuple(full)


def _copy_scan_equalize_two(inst, sched, i1, i2):
    """equalize_two by the copy-by-copy slot scan: the reference its side
    sequences must equal.  Every copy of every basis element of the
    decomposition is made, and each job of the pair in canonical order, then
    each auxiliary, consumes the first open slot of its profile over the
    copies, the i1 side first; copies of one element must stay monotone and
    the scan must exhaust every slot."""
    K, P = inst.K, 1 << inst.K
    assignment = sched.assignment
    pair_jobs = [j for j, a in enumerate(assignment) if a == i1 or a == i2]
    diff = [0] * K
    for j in pair_jobs:
        for k in inst.job_scenarios[j]:
            diff[k] += 1 if assignment[j] == i1 else -1
    # (scenarios, on i2) per scan item: the pair jobs, then the auxiliary
    # singletons, each on its scenario's deficit side
    items = [(inst.job_scenarios[j], assignment[j] == i2) for j in pair_jobs]
    items += [((k,), diff[k] > 0) for k in range(K) for _ in range(abs(diff[k]))]
    x, y = [0] * P, [0] * P
    for ks, on_i2 in items:
        (y if on_i2 else x)[profile_index(ks, K)] += 1
    basis = hilbert_basis(K)
    multiplicity = Counter(decompose(LatticePoint(tuple(x), tuple(y)), basis))
    classes = [[list(b.vector()) for _ in range(multiplicity[b])] for b in basis.elements]

    sides = []
    for ks, _ in items:
        sigma = profile_index(ks, K)
        found = next(
            ((copies, t) for copies in classes for t, c in enumerate(copies)
             if c[sigma] or c[P + sigma]),
            None,
        )
        if found is None:
            raise RuntimeError("slot scan failed -- this falsifies the decomposition")
        copies, t = found
        side = 0 if copies[t][sigma] else 1
        copies[t][side * P + sigma] -= 1
        sides.append(side)
        # only copy t changed, and it shrank: its element's copies stay
        # monotone while the copy before it stays below it
        assert t == 0 or all(map(le, copies[t - 1], copies[t])), "copies must stay monotone"
    assert all(not any(copy) for copies in classes for copy in copies)

    new_assignment = list(assignment)
    for j, side in zip(pair_jobs, sides):
        new_assignment[j] = (i1, i2)[side]
    extended = [0] * K
    for (ks, _), side in zip(items, sides):
        for k in ks:
            extended[k] += 1 - 2 * side
    out = Schedule(tuple(new_assignment))
    pre_final, pre_full = _pair_scan_disbalance(inst, assignment, i1, i2)
    post_final, post_full = _pair_scan_disbalance(inst, out.assignment, i1, i2)
    return out, EqualizeReport(
        machines=(i1, i2),
        aux_jobs=pre_final,
        pre_final=pre_final,
        pre_full=pre_full,
        post_final=post_final,
        post_full=post_full,
        extended_final=tuple(abs(v) for v in extended),
        likely_nonoptimal=any(d * d > lemma_final_bound_sq(K) for d in pre_final),
    )


def test_equalize_two_raises_when_the_sequences_miss_the_counts(monkeypatch):
    # a decomposition one element short leaves a profile's sequence too short
    inst = make_instance(2, [1] * 6, [[0, 1, 2, 3, 4, 5]])
    shipped = balance.decompose
    monkeypatch.setattr(balance, "decompose", lambda *args: shipped(*args)[:-1])
    with pytest.raises(RuntimeError, match="falsifies the decomposition$"):
        equalize_two(inst, Schedule((0,) * 6), 0, 1)


def test_basis_l1_sum_is_exceeded_off_optima():
    inst = gen_random(160, 2, 2, w_max=1, density=0.5, seed=7)
    rng = random.Random(7)
    _, rep = equalize_two(inst, Schedule(tuple(rng.randrange(2) for _ in range(160))), 0, 1)
    assert basis_l1_sum(hilbert_basis(2)) == 14
    assert rep.post_full == (18, 9) and rep.likely_nonoptimal


def test_equalize_two_report_matches_a_scan_of_both_schedules():
    seen = set()
    for s in range(200):
        n, m, K = 3 + s % 12, 2 + s % 4, 1 + s % 3
        inst = gen_random(n, m, K, w_max=1, density=0.6, seed=s)
        rng = random.Random(s)
        for sched in (Schedule(tuple(rng.randrange(m) for _ in range(n))), Schedule((0,) * n)):
            for i1, i2 in itertools.permutations(range(m), 2):
                out, rep = equalize_two(inst, sched, i1, i2)
                pre = _pair_scan_disbalance(inst, sched.assignment, i1, i2)
                post = _pair_scan_disbalance(inst, out.assignment, i1, i2)
                assert (rep.pre_final, rep.pre_full) == pre, (s, sched, i1, i2)
                assert (rep.post_final, rep.post_full) == post, (s, sched, i1, i2)
                assert rep.aux_jobs == rep.pre_final
                assert rep.extended_final == (0,) * K
                seen.add((any(rep.post_final), rep.post_full != rep.pre_full))
    # pairs that end balanced and not, with and without a new prefix peak
    assert len(seen) == 4


def test_equalize_checks_the_basis_guard_first():
    # K = 4, weights 2: the K guard fires before the pair and weight checks
    inst = make_instance(2, [2] * 4, [[0], [1], [2], [3]])
    sched = Schedule((0,) * 4)
    with pytest.raises(GuardExceeded, match="^Hilbert basis guard: K=4 exceeds 3$"):
        equalize_two(inst, sched, 0, 0)
    with pytest.raises(GuardExceeded, match="^Hilbert basis guard: K=4 exceeds 3$"):
        equalize_all(inst, sched)


def test_equalize_two_on_optimal_suite():
    bases = {1: hilbert_basis(1), 2: hilbert_basis(2)}
    for inst in k2_unit_suite(80):
        basis = bases[inst.K]
        bound = basis_l1_sum(basis)
        slack_sq = lemma_final_bound_sq(inst.K)
        best = optimal_schedules(inst, ObjectiveKind.MINAVG)[0]
        value = _minavg(inst, best)
        for i1 in range(inst.m):
            for i2 in range(i1 + 1, inst.m):
                out, rep = equalize_two(inst, best, i1, i2)
                assert _minavg(inst, out) == value  # optimality preserved
                assert rep.extended_final == (0,) * inst.K
                assert not rep.likely_nonoptimal
                assert rep.post_final == rep.pre_final  # final disbalance unchanged
                for f in rep.post_full:
                    overshoot = f - bound
                    assert overshoot <= 0 or overshoot * overshoot <= slack_sq


def test_equalize_two_three_scenarios():
    # every optimum, not only the first, backs the likely_nonoptimal flag at K=3
    cap_sq = lemma_final_bound_sq(3)
    optima = 0
    for seed in range(12):
        inst = gen_random(8, 2, 3, w_max=1, density=0.6, seed=8100 + seed)
        for best in optimal_schedules(inst, ObjectiveKind.MINAVG):
            out, rep = equalize_two(inst, best, 0, 1)
            assert _minavg(inst, out) == _minavg(inst, best)
            assert rep.extended_final == (0, 0, 0)
            assert all(d * d <= cap_sq for d in disbalance(inst, best).final_dk)
            assert not rep.likely_nonoptimal
            optima += 1
    assert optima == 309


def test_equalize_all_balanced_input_is_fixed_point():
    inst = make_instance(2, [1] * 6, [[0, 1, 2, 3, 4, 5]])
    sched = Schedule((0, 1, 0, 1, 0, 1))
    assert equalize_all(inst, sched) == sched


def test_equalize_all_rejects_a_machine_out_of_range():
    inst = make_instance(2, [1] * 4, [[0, 1, 2, 3]])
    for assignment in ((5, 5, 5, 5), (-1, -1, 0, 1), (0, 1, 0)):
        with pytest.raises(ValueError, match="^(machine index|schedule length)"):
            equalize_all(inst, Schedule(assignment))


def test_equalize_all_preserves_optimal_value_on_suite():
    for inst in k2_unit_suite(60):
        best = optimal_schedules(inst, ObjectiveKind.MINAVG)[0]
        out = equalize_all(inst, best)
        assert _minavg(inst, out) == _minavg(inst, best)


def test_equalize_all_converges_from_skewed_input():
    inst = make_instance(4, [1] * 120, [list(range(120))])
    skewed = Schedule((0,) * 120)
    out = equalize_all(inst, skewed)
    counts = [out.assignment.count(i) for i in range(4)]
    threshold = 2 * 1 * basis_l1_sum(hilbert_basis(1))
    assert all(abs(c - 30) <= threshold for c in counts)
    assert _minavg(inst, out) < _minavg(inst, skewed)


def test_equalize_all_two_machines_single_pair_path():
    inst = make_instance(2, [1] * 40, [list(range(40))])
    skewed = Schedule((0,) * 40)
    out = equalize_all(inst, skewed)
    assert abs(out.assignment.count(0) - 20) <= 2 * basis_l1_sum(hilbert_basis(1))


def test_equalize_all_iteration_cap(monkeypatch):
    inst = make_instance(4, [1] * 120, [list(range(120))])
    monkeypatch.setattr(balance, "MAX_ROUNDS", 0)
    with pytest.raises(GuardExceeded):
        equalize_all(inst, Schedule((0,) * 120))


def test_equalize_all_pairs_a_light_machine_with_the_heaviest():
    # machine 0 holds no job: the first violation is a light machine, so its
    # partner is the heaviest one
    inst = make_instance(2, [1] * 20, [range(20)])
    result = equalize_all(inst, Schedule((1,) * 20))
    assert sorted(result.assignment.count(i) for i in range(2)) == [10, 10]
    threshold = 2 * inst.K * basis_l1_sum(hilbert_basis(inst.K))
    for i in range(inst.m):
        assert abs(inst.m * result.assignment.count(i) - inst.n) <= inst.m * threshold


def _reference_equalize_all(inst, sched):
    """equalize_all with a count row for every one of the m machines, scans
    over all of them and the copy-scan pair step: the reference the sparse
    counts and the side sequences must equal."""
    K, m = inst.K, inst.m
    threshold = 2 * K * basis_l1_sum(hilbert_basis(K))
    if any(w != 1 for w in inst.weights):
        raise ValueError("balance procedures require unit weights")
    sizes = [len(s) for s in inst.scenario_jobs]

    def machine_counts(assignment):
        counts = [[0] * K for _ in range(m)]
        for j in range(inst.n):
            for k in inst.job_scenarios[j]:
                counts[assignment[j]][k] += 1
        return counts

    def potential():
        return sum(abs(m * counts[i][k] - sizes[k]) for i in range(m) for k in range(K))

    def violation():
        for i in range(m):
            for k in range(K):
                if abs(m * counts[i][k] - sizes[k]) > m * threshold:
                    return i, k
        return None

    current = sched
    counts = machine_counts(current.assignment)
    pot = potential()
    iterations = 0
    while (viol := violation()) is not None:
        if iterations >= balance.MAX_ROUNDS:
            raise GuardExceeded(
                f"equalization did not settle within {balance.MAX_ROUNDS} rounds "
                f"(potential {pot}) -- this falsifies the implementation"
            )
        i, k = viol
        if m * counts[i][k] > sizes[k]:
            partner = min(range(m), key=lambda i2: (counts[i2][k], i2))
        else:
            partner = min(range(m), key=lambda i2: (-counts[i2][k], i2))
        current, _ = _copy_scan_equalize_two(inst, current, i, partner)
        counts = machine_counts(current.assignment)
        new_pot = potential()
        assert new_pot < pot
        pot = new_pot
        iterations += 1
    return current


def _equalize_sweep():
    """(instance, schedule) pairs: unit weights, n 1-40, m 1-12, K 1-3, with
    random, all-on-one and all-on-the-last-machine schedules, and n = 150 on
    K = 2, whose piled-up schedules need rounds there too (K = 3 needs more
    than 888 scenario jobs on one machine before its first round)."""
    pairs = []
    for i in range(240):
        n, m, K = 1 + i % 40, 1 + i % 12, 1 + i % 3
        inst = gen_random(n, m, K, w_max=1, density=(0.3, 0.6, 1.0)[i % 3], seed=9500 + i)
        rng = random.Random(i)
        pairs.append((inst, Schedule(tuple(rng.randrange(m) for _ in range(n)))))
        pairs.append((inst, Schedule((0,) * n)))
        pairs.append((inst, Schedule((m - 1,) * n)))
    for m in (2, 3, 5):
        inst = gen_random(150, m, 2, w_max=1, density=0.6, seed=9900 + m)
        pairs.append((inst, Schedule((m - 1,) * 150)))
    return pairs


def test_equalize_all_rejects_a_round_that_keeps_the_potential():
    # round 2 pairs machines 0 and 2 at final differences (87, 87): the
    # decomposition pairs each both-scenario job on machine 0 with two
    # auxiliaries on machine 2, so no job moves
    inst = gen_random(280, 5, 2, w_max=1, seed=13)
    message = ("equalizing machines 0 and 2 left the potential at 1854 (was 1854): "
               "pairwise equalization cannot settle this schedule")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        equalize_all(inst, Schedule((0,) * 280))


def _larger_profile_counts(inst, assignment, i):
    """Machine i's job count per profile of zero or two or more scenarios."""
    return Counter(ks for ks, a in zip(inst.job_scenarios, assignment)
                   if a == i and len(ks) != 1)


def test_equalize_two_moves_only_singleton_profile_jobs():
    # only singleton profiles take auxiliaries, and the basis decomposition
    # sums, profile by profile, to the padded pair counts: so every other
    # profile keeps its count on each machine of the pair
    moved = 0
    for seed in range(400):
        rng = random.Random(seed)
        n, m, K = rng.randint(6, 65), rng.randint(2, 4), rng.randint(1, 3)
        inst = gen_random(n, m, K, w_max=1, seed=seed)
        sched = Schedule(tuple(rng.randrange(m) for _ in range(n)))
        i1, i2 = rng.sample(range(m), 2)
        out, _ = equalize_two(inst, sched, i1, i2)
        moved += out != sched
        for i in (i1, i2):
            assert (_larger_profile_counts(inst, out.assignment, i)
                    == _larger_profile_counts(inst, sched.assignment, i)), (seed, i)
    assert moved > 300  # most pairs do change


def test_equalize_all_stalls_when_the_excess_lies_in_a_larger_profile():
    # a uniformly random schedule of 20 000 jobs: round 1 pairs machines 1
    # and 0, and machine 1 holds 110 more jobs of the two-scenario profile;
    # the singleton-profile jobs, the only ones that move, just mirror the
    # pair's differences, so the potential stays at 1964
    inst = gen_random(20000, 5, 2, w_max=1, seed=1)
    rng = random.Random(1)
    sched = Schedule(tuple(rng.randrange(5) for _ in range(20000)))
    message = ("equalizing machines 1 and 0 left the potential at 1964 (was 1964): "
               "pairwise equalization cannot settle this schedule")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        equalize_all(inst, sched)


def test_equalize_all_matches_the_full_machine_scan(monkeypatch):
    needs_rounds = []
    for inst, sched in _equalize_sweep():
        result = equalize_all(inst, sched)
        assert result == _reference_equalize_all(inst, sched), (inst, sched)
        # both orders of the first two, and of the first and last, machines
        m = inst.m
        for i1, i2 in {(0, 1), (1, 0), (0, m - 1), (m - 1, 0)} if m > 1 else ():
            expected = _copy_scan_equalize_two(inst, sched, i1, i2)
            assert equalize_two(inst, sched, i1, i2) == expected, (inst, sched, i1, i2)
            expected = _class_list_round_robin(inst, sched, i1, i2)
            assert profile_round_robin(inst, sched, i1, i2) == expected, (inst, sched, i1, i2)
        if result != sched:
            needs_rounds.append((inst, sched))
    assert {inst.K for inst, _ in needs_rounds} == {1, 2}
    # with no round allowed, the guard message reports the potential
    monkeypatch.setattr(balance, "MAX_ROUNDS", 0)
    for inst, sched in needs_rounds:
        with pytest.raises(GuardExceeded) as expected:
            _reference_equalize_all(inst, sched)
        with pytest.raises(GuardExceeded, match=re.escape(str(expected.value))):
            equalize_all(inst, sched)


# ---------------------------------------------------------------------------
# Final-disbalance bound for optimal schedules, and the probe
# ---------------------------------------------------------------------------


def test_every_optimal_schedule_meets_final_bound():
    # and both equalizations equal the copy-scan references on every optimum
    for inst in k2_unit_suite(60):
        cap_sq = lemma_final_bound_sq(inst.K)
        for sched in optimal_schedules(inst, ObjectiveKind.MINAVG):
            rep = disbalance(inst, sched)
            assert all(d * d <= cap_sq for d in rep.final_dk)
            for i1, i2 in itertools.permutations(range(inst.m), 2):
                expected = _copy_scan_equalize_two(inst, sched, i1, i2)
                assert equalize_two(inst, sched, i1, i2) == expected, (inst, sched, i1, i2)
            assert equalize_all(inst, sched) == _reference_equalize_all(inst, sched)


def test_probe_single_scenario_bound_and_determinism():
    rep = conjecture_probe(6, 2, 1, trials=25, seed=11)
    assert rep.max_observed <= 1
    assert rep == conjecture_probe(6, 2, 1, trials=25, seed=11)


@pytest.mark.parametrize("trials", [0, -1])
def test_probe_rejects_fewer_than_one_trial(trials):
    with pytest.raises(ValueError, match="trials must be at least 1"):
        conjecture_probe(6, 2, 1, trials=trials, seed=11)


@pytest.mark.parametrize("trials", [2.0, True, "2"])
def test_probe_rejects_trials_that_is_not_an_int(trials):
    # 2.0 would pass the count check and raise TypeError from range()
    message = f"trials must be an integer, got {trials!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        conjecture_probe(4, 2, 2, trials, 0)
    # "a" and None would raise TypeError from seed + t; 0.5 and True would
    # come back as the report's seed
    for seed in (trials, "a", None, 0.5, True):
        message = f"seed must be an integer, got {seed!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            conjecture_probe(4, 2, 2, 2, seed)


def test_probe_checks_the_oracle_guard_before_building_an_instance(monkeypatch):
    def built(*args, **kwargs):
        raise AssertionError("a trial instance was built before the oracle guard")

    monkeypatch.setattr(generators, "gen_random", built)
    with pytest.raises(GuardExceeded, match=(
            r"oracle guard: more than 2\^21 canonical assignments for n=1000000, m=2")):
        conjecture_probe(10**6, 2, 2, 1, 0)


def test_probe_guard_counts_every_trial(monkeypatch):
    # 14 jobs on two machines have 2^13 canonical assignments: 256 trials of
    # them reach 2^21 exactly, and one more passes it before any trial is built
    class Built(Exception):
        pass

    def built(*args, **kwargs):
        raise Built

    monkeypatch.setattr(generators, "gen_random", built)
    with pytest.raises(Built):
        conjecture_probe(14, 2, 1, 256, 0)
    message = ("oracle guard: more than 2^21 canonical assignments for n=14, m=2 "
               "summed over trials=257")
    with pytest.raises(GuardExceeded, match=f"^{re.escape(message)}$"):
        conjecture_probe(14, 2, 1, 257, 0)
    # one trial of 22 jobs passes the guard and takes seconds; a hundred do not
    with pytest.raises(GuardExceeded, match="summed over trials=100$"):
        conjecture_probe(22, 2, 2, 100, 0)


def test_probe_single_profile_instances():
    rep = conjecture_probe(7, 2, 2, trials=10, seed=5, density=1.0)
    assert rep.max_observed <= 1  # one profile: alternation is optimal


def test_probe_k2_stays_within_observed_constant():
    rep = conjecture_probe(7, 2, 2, trials=40, seed=23)
    assert rep.max_observed <= basis_l1_sum(hilbert_basis(2))
    assert len(rep.per_trial) == 40
    assert all(rep.per_trial[t] == rep.max_observed for t in rep.achieving_trials)


def test_probe_keeps_no_list_of_optima():
    # one job in a hundred is in the scenario, so nearly all 2^13 canonical
    # schedules of 14 jobs on two machines are optimal; the probe folds each
    # one as it is visited, where a list of them peaked at 1.8 MB
    tracemalloc.start()
    try:
        rep = conjecture_probe(14, 2, 1, 1, 0, density=1 / 100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.per_trial == (0,)
    assert peak < 256 * 1024
