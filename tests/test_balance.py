import itertools
import math
from operator import le

import pytest

from scensched import balance, generators
from scensched.balance import (
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


def test_round_robin_rejects_same_machine():
    inst = make_instance(2, [1], [[0]])
    with pytest.raises(ValueError):
        profile_round_robin(inst, Schedule((0,)), 1, 1)


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


# ---------------------------------------------------------------------------
# Final-disbalance bound for optimal schedules, and the probe
# ---------------------------------------------------------------------------


def test_every_optimal_schedule_meets_final_bound():
    for inst in k2_unit_suite(60):
        cap_sq = lemma_final_bound_sq(inst.K)
        for sched in optimal_schedules(inst, ObjectiveKind.MINAVG):
            rep = disbalance(inst, sched)
            assert all(d * d <= cap_sq for d in rep.final_dk)


def test_probe_single_scenario_bound_and_determinism():
    rep = conjecture_probe(6, 2, 1, trials=25, seed=11)
    assert rep.max_observed <= 1
    assert rep == conjecture_probe(6, 2, 1, trials=25, seed=11)


@pytest.mark.parametrize("trials", [0, -1])
def test_probe_rejects_fewer_than_one_trial(trials):
    with pytest.raises(ValueError, match="trials must be at least 1"):
        conjecture_probe(6, 2, 1, trials=trials, seed=11)


def test_probe_checks_the_oracle_guard_before_building_an_instance(monkeypatch):
    def built(*args, **kwargs):
        raise AssertionError("a trial instance was built before the oracle guard")

    monkeypatch.setattr(generators, "gen_random", built)
    with pytest.raises(GuardExceeded, match=r"oracle guard: n\*log2\(m\) = 1000000\.0"):
        conjecture_probe(10**6, 2, 2, 1, 0)


def test_probe_single_profile_instances():
    rep = conjecture_probe(7, 2, 2, trials=10, seed=5, density=1.0)
    assert rep.max_observed <= 1  # one profile: alternation is optimal


def test_probe_k2_stays_within_observed_constant():
    rep = conjecture_probe(7, 2, 2, trials=40, seed=23)
    assert rep.max_observed <= basis_l1_sum(hilbert_basis(2))
    assert len(rep.per_trial) == 40
    assert all(rep.per_trial[t] == rep.max_observed for t in rep.achieving_trials)
