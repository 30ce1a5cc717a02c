"""Metamorphic checks of the exact solvers, and of the FPTAS's 1+eps bound,
against the brute-force oracle.

Relabelling the jobs or adding jobs outside every scenario leaves every
objective value unchanged; scaling all weights by c scales it by c.  Ties
between equal weights and empty count-matrix columns are where a wrong lower
bound would prune an optimum, so the instances draw both often.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scensched.dp_config import solve_config
from scensched.dp_minavg import solve_minavg, solve_regret_sum
from scensched.dp_minmax import fptas, solve_pseudo
from scensched.model import ObjectiveKind, evaluate, make_instance
from scensched.oracle import brute_force

DP = {
    ObjectiveKind.MINMAX: lambda inst: solve_pseudo(inst, ObjectiveKind.MINMAX),
    ObjectiveKind.MINAVG: solve_minavg,
    ObjectiveKind.REGRET_MAX: lambda inst: solve_pseudo(inst, ObjectiveKind.REGRET_MAX),
    ObjectiveKind.REGRET_SUM: solve_regret_sum,
}
CONFIG = {
    kind: (lambda inst, kind=kind: solve_config(inst, kind))
    for kind in (ObjectiveKind.MINMAX, ObjectiveKind.MINAVG)
}


def _fptas_half(inst):
    return fptas(inst, "1/2")


@st.composite
def transformed(draw, unit: bool):
    """Input-order data (m, weights, scenarios) with n <= 6, its relabelling,
    and the same data with one or two jobs added outside every scenario, so
    that n <= 8."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 6))
    weight = st.just(1) if unit else st.integers(0, 4)
    weights = draw(st.lists(weight, min_size=n, max_size=n))
    scenarios = draw(st.lists(
        st.lists(st.integers(0, n - 1), unique=True), min_size=1, max_size=3))
    perm = draw(st.permutations(range(n)))
    relabelled = [0] * n
    for j, w in enumerate(weights):
        relabelled[perm[j]] = w
    extra = draw(st.lists(weight, min_size=1, max_size=2))
    return (
        (m, weights, scenarios),
        (m, relabelled, [[perm[j] for j in s] for s in scenarios]),
        (m, weights + extra, scenarios),
    )


def _solve(solver, kind, data):
    inst = make_instance(*data)
    res = solver(inst)
    assert evaluate(inst, res.schedule, kind).aggregate == res.value
    return inst, res.value


@settings(max_examples=80, deadline=None)
@given(transformed(unit=False), st.integers(2, 3))
def test_dp_is_invariant_under_relabelling_extra_jobs_and_scaling(cases, c):
    base, relabelled, extended = cases
    m, weights, scenarios = base
    for kind, solver in DP.items():
        inst, value = _solve(solver, kind, base)
        assert value == brute_force(inst, kind).best_value
        assert _solve(solver, kind, relabelled)[1] == value
        assert _solve(solver, kind, extended)[1] == value
        assert _solve(solver, kind, (m, [c * w for w in weights], scenarios))[1] == c * value


@settings(max_examples=60, deadline=None)
@given(transformed(unit=False))
def test_fptas_reports_its_schedule_cost_within_three_halves(cases):
    # at these sizes rho = W*eps/(m*n^2) exceeds 1 only when m = n = 1, so the
    # draw is also scaled by 1000, where rounding shrinks every nonzero weight
    base = cases[0]
    m, weights, scenarios = base
    assume(any(weights))  # fptas rejects an all-zero weight vector
    best = brute_force(make_instance(*base), ObjectiveKind.MINMAX).best_value
    for data in cases:
        assert 2 * _solve(_fptas_half, ObjectiveKind.MINMAX, data)[1] <= 3 * best
    scaled = (m, [1000 * w for w in weights], scenarios)
    assert 2 * _solve(_fptas_half, ObjectiveKind.MINMAX, scaled)[1] <= 3 * 1000 * best


@settings(max_examples=60, deadline=None)
@given(transformed(unit=True))
def test_config_is_invariant_under_relabelling_and_extra_jobs(cases):
    # scaling leaves the unit-weight domain, so it has no counterpart here
    base, relabelled, extended = cases
    for kind, solver in CONFIG.items():
        inst, value = _solve(solver, kind, base)
        assert value == brute_force(inst, kind).best_value
        assert _solve(solver, kind, relabelled)[1] == value
        assert _solve(solver, kind, extended)[1] == value
