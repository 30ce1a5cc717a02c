"""Acceptance suite: one test per criterion, exact tolerances, seeded suites.

Each suite-wide check lives here only: the module tests keep hand-made
examples, guards, edge cases and reference implementations.

Run ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion; each test also prints an explicit summary line.
"""

import itertools
import json
from fractions import Fraction

from scensched.approx import minavg_derandomized, minmax_all_on_one
from scensched.balance import (
    LatticePoint,
    basis_l1_sum,
    equalize_all,
    equalize_two,
    hilbert_basis,
    lemma_final_bound_sq,
)
from scensched.cli import ALGORITHMS, _runner, main
from scensched.dp_minavg import solve_minavg, solve_regret_sum
from scensched.dp_minmax import fptas
from scensched.generators import gen_partition3, gen_unsplittable, is_unsplittable, partition3_tight_bound
from scensched.model import (
    ObjectiveKind,
    Schedule,
    disbalance,
    evaluate,
    instance_to_dict,
    make_instance,
    scenario_optima,
    single_scenario_optimum,
)
from scensched.oracle import (
    brute_force,
    expected_uniform_cost,
    iter_canonical_assignments,
    optimal_schedules,
)
from scensched.two_scenario import solve_two_scenarios

from conftest import k2_unit_suite, on_both_paths, two_scenario_suite, unit_suite, weighted_suite
from test_balance import _minimal_cone_points_by_search


def _report(criterion, text):
    print(f"criterion {criterion}: PASS -- {text}")


def test_criterion_1_two_scenario_ideality():
    suite = two_scenario_suite(200)
    for inst in suite:
        sched = solve_two_scenarios(inst)
        for k in (0, 1):
            assert evaluate(inst, sched, ObjectiveKind.MINMAX).per_scenario[k] == (
                single_scenario_optimum(inst, k)
            )
    _report(1, f"both scenarios hit their optima on {len(suite)} seeded instances")


def test_criterion_2_dp_exactness():
    weighted, unit = weighted_suite(300), unit_suite(300)
    suites = {
        ("dp", ObjectiveKind.MINMAX): weighted,
        ("dp", ObjectiveKind.MINAVG): weighted,
        ("dp", ObjectiveKind.REGRET_MAX): weighted,
        ("dp", ObjectiveKind.REGRET_SUM): weighted,
        ("config", ObjectiveKind.MINMAX): unit,
        ("config", ObjectiveKind.MINAVG): unit,
    }
    # every exact pairing of the CLI's table; two-scenario is criterion 1's
    assert set(suites) == {
        (algo, kind) for algo, entry in ALGORITHMS.items()
        if entry.bound is None and algo != "two-scenario" for kind in entry.runners
    }
    for (algo, kind), suite in suites.items():
        best = [brute_force(inst, kind).best_value for inst in suite]
        solve = _runner(algo, kind, None)

        def check():
            for inst, value in zip(suite, best):
                res = solve(inst)
                assert res.value == value, (algo, kind, inst)
                assert evaluate(inst, res.schedule, kind).aggregate == value, (algo, kind, inst)

        # with the root check and again without it, so the count-matrix
        # search is checked on every instance
        on_both_paths(check)
    _report(2, f"dp on 4 objectives over {len(weighted)} weighted and config on 2 over "
               f"{len(unit)} unit instances equal the oracle, witnesses included, "
               "with and without the root check")


def test_criterion_3_fptas_bound_and_rounding():
    suite = weighted_suite(300)
    best = [brute_force(inst, ObjectiveKind.MINMAX).best_value for inst in suite]

    def check():
        for inst, opt in zip(suite, best):
            for eps in (Fraction(1, 2), Fraction(1, 10)):
                res = fptas(inst, eps)
                assert Fraction(res.value) <= (1 + eps) * opt
                limit = Fraction(inst.m * inst.n * inst.n) / eps + 1
                assert all(Fraction(w) <= limit for w in res.rounded.weights)

    on_both_paths(check)
    _report(3, f"value <= (1+eps)*opt and rounded weights within bound, "
               f"eps in {{1/2, 1/10}}, {len(suite)} instances, with and without the root check")


def test_criterion_4_approximation_ratios():
    suite = weighted_suite(300)
    checked_mean = 0
    for index, inst in enumerate(suite):
        opt_avg = brute_force(inst, ObjectiveKind.MINAVG).best_value
        greedy = evaluate(
            inst, minavg_derandomized(inst), ObjectiveKind.MINAVG
        ).aggregate
        assert Fraction(greedy) <= (Fraction(3, 2) - Fraction(1, 2 * inst.m)) * opt_avg
        # the conditional expectations never exceed the uniform expectation
        _, expectation = expected_uniform_cost(inst)
        assert Fraction(greedy) <= expectation
        if inst.m == 2:
            stacked = evaluate(
                inst, minmax_all_on_one(inst), ObjectiveKind.MINMAX
            ).aggregate
            assert stacked <= 2 * brute_force(inst, ObjectiveKind.MINMAX).best_value
        if inst.n <= 7 and index % 5 == 0:
            total = 0
            runs = 0
            for assign in itertools.product(range(inst.m), repeat=inst.n):
                total += evaluate(inst, Schedule(assign), ObjectiveKind.MINAVG).aggregate
                runs += 1
            assert expectation == Fraction(total, runs)
            checked_mean += 1
    _report(4, f"greedy and all-on-one ratios certified on {len(suite)} instances; "
               f"uniform expectation exact on {checked_mean} full enumerations")


def test_criterion_5_paper_constants():
    five = make_instance(2, [1] * 5, [[0, 1, 2, 3, 4]])
    assert evaluate(five, Schedule((0, 1, 0, 1, 0)), ObjectiveKind.MINMAX).aggregate == 9
    assert evaluate(five, Schedule((0,) * 5), ObjectiveKind.MINMAX).aggregate == 15
    assert brute_force(five, ObjectiveKind.MINMAX).best_value == 9

    gadget = make_instance(2, [1, 1], [[0, 1]])
    assert evaluate(gadget, Schedule((0, 1)), ObjectiveKind.MINAVG).aggregate == 2
    assert evaluate(gadget, Schedule((0, 0)), ObjectiveKind.MINAVG).aggregate == 3

    assert gen_unsplittable(2, 2).column_sums() == (3, 3, 3, 3)
    for q in (2, 3, 4):
        assert gen_unsplittable(q, 2).uniform_column_sum() == q * q - q + 1
        assert gen_unsplittable(q, 3).uniform_column_sum() == q**3 - q**2 + 2 * q - 1

    yes = gen_partition3([1, 1, 1], 2)
    bound = partition3_tight_bound([1, 1, 1], 2)
    assert Fraction(brute_force(yes, ObjectiveKind.MINMAX).best_value) == bound
    no = gen_partition3([1, 1, 2], 2)
    assert Fraction(brute_force(no, ObjectiveKind.MINMAX).best_value) > (
        partition3_tight_bound([1, 1, 2], 2)
    )
    _report(5, "balanced/stacked 9 and 15, cut gadget 2/3, matrix column sums, "
               "and the three-way-partition tight bound all reproduced")


def test_criterion_6_unsplittability():
    for q in (2, 3):
        matrix = gen_unsplittable(q, 2)
        assert matrix.n_cols == 2 * q
        assert is_unsplittable(matrix)
    cubic = gen_unsplittable(2, 3)
    assert cubic.n_cols == 6
    assert is_unsplittable(cubic)
    _report(6, "row-subset exhaustion confirms unsplittability; column counts equal t*q")


def test_criterion_7_disbalance_theory():
    basis1 = hilbert_basis(1)
    expected1 = {
        LatticePoint((1, 0), (0, 0)),
        LatticePoint((0, 0), (1, 0)),
        LatticePoint((0, 1), (0, 1)),
    }
    assert set(basis1.elements) == expected1
    basis2 = hilbert_basis(2)
    assert set(basis2.elements) == set(_minimal_cone_points_by_search(2, 4))

    l1_sums = {1: basis_l1_sum(basis1), 2: basis_l1_sum(basis2)}
    suite = k2_unit_suite(300)
    for inst in suite:
        cap_sq = lemma_final_bound_sq(inst.K)
        optima = optimal_schedules(inst, ObjectiveKind.MINAVG)
        for sched in optima:
            assert all(d * d <= cap_sq for d in disbalance(inst, sched).final_dk)
        best = optima[0]
        value = evaluate(inst, best, ObjectiveKind.MINAVG).aggregate
        for i1, i2 in itertools.combinations(range(inst.m), 2):
            pair_out, rep = equalize_two(inst, best, i1, i2)
            assert evaluate(inst, pair_out, ObjectiveKind.MINAVG).aggregate == value
            assert rep.extended_final == (0,) * inst.K
            assert not rep.likely_nonoptimal
            assert rep.post_final == rep.pre_final
            # a prefix peak past the basis's l1 sum stays within the lemma's slack
            for f in rep.post_full:
                overshoot = f - l1_sums[inst.K]
                assert overshoot <= 0 or overshoot * overshoot <= cap_sq
        all_out = equalize_all(inst, best)
        assert evaluate(inst, all_out, ObjectiveKind.MINAVG).aggregate == value

    # exercise the driver loop (and its strictly-decreasing-potential check)
    big = make_instance(4, [1] * 120, [list(range(120))])
    settled = equalize_all(big, Schedule((0,) * 120))
    threshold = 2 * basis_l1_sum(basis1)
    assert all(abs(settled.assignment.count(i) - 30) <= threshold for i in range(4))
    _report(7, f"final-disbalance bound over every optimum of {len(suite)} instances; "
               "equalizing every machine pair and all machines preserves the objective, "
               "and the driver settles")


def test_criterion_8_regret_correspondence():
    weighted = weighted_suite(300)
    suite = [inst for inst in weighted if inst.n <= 7][:120]
    for inst in suite:
        avg_best, reg_best = None, None
        avg_argmin, reg_argmin = set(), set()
        for assign in iter_canonical_assignments(inst.n, inst.m):
            sched = Schedule(tuple(assign))
            avg = evaluate(inst, sched, ObjectiveKind.MINAVG).aggregate
            reg = evaluate(inst, sched, ObjectiveKind.REGRET_SUM).aggregate
            if avg_best is None or avg < avg_best:
                avg_best, avg_argmin = avg, {sched.assignment}
            elif avg == avg_best:
                avg_argmin.add(sched.assignment)
            if reg_best is None or reg < reg_best:
                reg_best, reg_argmin = reg, {sched.assignment}
            elif reg == reg_best:
                reg_argmin.add(sched.assignment)
        assert avg_argmin == reg_argmin

    def shift_check():
        for inst in weighted:
            res = solve_regret_sum(inst)
            plain = solve_minavg(inst)
            # the offset sum(opt_k) is a constant, so the witness is the sum's
            assert res.value == plain.value - sum(scenario_optima(inst))
            assert res.schedule == plain.schedule

    on_both_paths(shift_check)
    _report(8, f"sum-regret and sum argmin sets coincide on {len(suite)} instances; "
               f"the sum-regret solver is the sum's, shifted, on {len(weighted)}")


def test_criterion_9_determinism(tmp_path):
    inst = make_instance(2, [1] * 5, [[0, 1, 2, 3, 4], [0, 2, 4]])
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(instance_to_dict(inst)))
    sched_path = tmp_path / "sched.json"
    sched_path.write_text(json.dumps({"assignment": [0, 1, 1, 0, 1]}))

    def run_twice(args, volatile=("time_ms",)):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(args + ["-o", str(out)]) == 0
            doc = json.loads(out.read_text())
            for key in volatile:
                doc.pop(key, None)
            outs.append(doc)
        assert outs[0] == outs[1], args

    for algo, objective in (
        ("dp", "minmax"),
        ("dp", "minavg"),
        ("dp", "regret-max"),
        ("dp", "regret-sum"),
        ("config", "minmax"),
        ("two-scenario", "minmax"),
        ("approx-minavg", "minavg"),
        ("approx-minmax2", "minmax"),
    ):
        run_twice(["solve", "--algo", algo, "--objective", objective, "-i", str(inst_path)])
    run_twice(["solve", "--algo", "fptas", "--epsilon", "1/2", "-i", str(inst_path)])
    run_twice(["verify", "--algo", "dp", "--objective", "minmax", "-i", str(inst_path)])
    run_twice(["generate", "random", "--n", "7", "--m", "3", "--K", "2", "--seed", "5"])
    run_twice(["generate", "unsplittable", "--q", "2", "--t", "2"])
    run_twice(["generate", "partition3", "--a", "1,1,1", "--m", "2"])
    run_twice(["probe", "conjecture", "--n", "6", "--m", "2", "--K", "2",
               "--trials", "6", "--seed", "3"])
    run_twice(["balance", "equalize", "-i", str(inst_path), "-s", str(sched_path),
               "--machines", "0", "1"])

    bench_outs = []
    for name in ("bench_a.csv", "bench_b.csv"):
        out = tmp_path / name
        assert main(["bench", "-o", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()]
        time_col = rows[0].index("time_ms")
        bench_outs.append([r[:time_col] + r[time_col + 1 :] for r in rows])
    assert bench_outs[0] == bench_outs[1]
    _report(9, "solve, verify, generate, probe, balance and bench value fields "
               "identical across repeated runs")
