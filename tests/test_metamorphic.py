"""Metamorphic checks of the exact solvers, of the two-scenario ideal
schedule, and of the FPTAS's and the approximations' ratio bounds, against
the brute-force oracle.

Relabelling the jobs or adding jobs outside every scenario leaves every
objective value unchanged; scaling all weights by c scales it by c.  Ties
between equal weights and empty count-matrix columns are where a wrong lower
bound would prune an optimum, so the instances draw both often.  Each example
runs with the solvers' root check and again without it, since the greedy
schedule meets the root bound on most small draws and the layered walk would
otherwise seldom run.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scensched.approx import minavg_derandomized, minmax_all_on_one
from scensched.dp_config import solve_config
from scensched.dp_minavg import solve_minavg, solve_regret_sum
from scensched.dp_minmax import fptas, solve_pseudo
from scensched.model import ObjectiveKind, evaluate, make_instance, scenario_optima
from scensched.oracle import brute_force
from scensched.two_scenario import solve_two_scenarios

from conftest import on_both_paths

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
def transformed(draw, unit: bool, K: tuple = (1, 3)):
    """Input-order data (m, weights, scenarios) with n <= 6 and K in the
    closed range ``K``, its relabelling, and the same data with one or two
    jobs added outside every scenario, so that n <= 8."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 6))
    weight = st.just(1) if unit else st.integers(0, 4)
    weights = draw(st.lists(weight, min_size=n, max_size=n))
    scenarios = draw(st.lists(
        st.lists(st.integers(0, n - 1), unique=True), min_size=K[0], max_size=K[1]))
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
    return res.value


@settings(max_examples=80, deadline=None)
@given(transformed(unit=False), st.integers(2, 3))
def test_dp_is_invariant_under_relabelling_extra_jobs_and_scaling(cases, c):
    base, relabelled, extended = cases
    m, weights, scenarios = base
    best = {kind: brute_force(make_instance(*base), kind).best_value for kind in DP}

    def check():
        for kind, solver in DP.items():
            value = best[kind]
            assert _solve(solver, kind, base) == value
            assert _solve(solver, kind, relabelled) == value
            assert _solve(solver, kind, extended) == value
            assert _solve(solver, kind, (m, [c * w for w in weights], scenarios)) == c * value

    on_both_paths(check, reach_both=False)


@settings(max_examples=60, deadline=None)
@given(transformed(unit=False))
def test_fptas_reports_its_schedule_cost_within_three_halves(cases):
    # at these sizes rho = W*eps/(m*n^2) exceeds 1 only when m = n = 1, so the
    # draw is also scaled by 1000, where rounding shrinks every nonzero weight
    base = cases[0]
    m, weights, scenarios = base
    assume(any(weights))  # fptas rejects an all-zero weight vector
    best = brute_force(make_instance(*base), ObjectiveKind.MINMAX).best_value
    scaled = (m, [1000 * w for w in weights], scenarios)

    def check():
        for data in cases:
            assert 2 * _solve(_fptas_half, ObjectiveKind.MINMAX, data) <= 3 * best
        assert 2 * _solve(_fptas_half, ObjectiveKind.MINMAX, scaled) <= 3 * 1000 * best

    on_both_paths(check, reach_both=False)


@settings(max_examples=60, deadline=None)
@given(transformed(unit=True))
def test_config_is_invariant_under_relabelling_and_extra_jobs(cases):
    # scaling leaves the unit-weight domain, so it has no counterpart here
    base, relabelled, extended = cases
    best = {kind: brute_force(make_instance(*base), kind).best_value for kind in CONFIG}

    def check():
        for kind, solver in CONFIG.items():
            value = best[kind]
            assert _solve(solver, kind, base) == value
            assert _solve(solver, kind, relabelled) == value
            assert _solve(solver, kind, extended) == value

    on_both_paths(check, reach_both=False)


def _with_scaled(cases, c):
    """Each transformed draw with factor 1, then the base scaled by c with
    factor c: every objective value is the base's times the factor."""
    m, weights, scenarios = cases[0]
    return [(data, 1) for data in cases] + [((m, [c * w for w in weights], scenarios), c)]


@settings(max_examples=60, deadline=None)
@given(transformed(unit=False, K=(2, 2)), st.integers(2, 3))
def test_two_scenario_schedule_is_ideal(cases, c):
    # K = 2 always has a schedule meeting both standalone optima at once
    base = scenario_optima(make_instance(*cases[0]))
    for data, factor in _with_scaled(cases, c):
        inst = make_instance(*data)
        opts = tuple(factor * o for o in base)
        assert scenario_optima(inst) == opts
        per = evaluate(inst, solve_two_scenarios(inst), ObjectiveKind.MINMAX).per_scenario
        assert per == opts
        assert brute_force(inst, ObjectiveKind.MINMAX).best_value == max(opts)
        assert brute_force(inst, ObjectiveKind.MINAVG).best_value == sum(opts)


@settings(max_examples=60, deadline=None)
@given(transformed(unit=False), st.integers(2, 3))
def test_approximations_stay_within_their_ratios(cases, c):
    # the bounds are 3/2 - 1/(2m) for the sum and 2 for min-max on two
    # machines, against the base's optima
    m, weights, scenarios = cases[0]
    avg = brute_force(make_instance(*cases[0]), ObjectiveKind.MINAVG).best_value
    two = brute_force(make_instance(2, weights, scenarios), ObjectiveKind.MINMAX).best_value
    for data, factor in _with_scaled(cases, c):
        inst = make_instance(*data)
        value = evaluate(inst, minavg_derandomized(inst), ObjectiveKind.MINAVG).aggregate
        assert 2 * m * value <= (3 * m - 1) * factor * avg
        inst = make_instance(2, *data[1:])
        value = evaluate(inst, minmax_all_on_one(inst), ObjectiveKind.MINMAX).aggregate
        assert value <= 2 * factor * two
