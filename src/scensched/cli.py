"""Command-line front end.

Machine-readable JSON/CSV only; value fields are deterministic for identical
invocations (wall-clock fields are reported but excluded from that contract).
Exit codes: 0 success, 1 verification failure, 2 contract violation,
3 resource guard.  The size guards are the oracle's n*log2(m) <= 32, 2M
states per layer for the exact DPs (dp, config, fptas) and K <= 3 for the
Hilbert basis.  Setting SCHED_GUARD_OVERRIDE=1 lifts them (at your own risk:
memory and runtime grow quickly past them).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from fractions import Fraction

from . import balance as bal
from . import generators as gen
from .dp_config import solve_config
from .dp_minavg import solve_minavg, solve_regret_sum
from .dp_minmax import fptas, solve_pseudo
from .approx import minavg_derandomized, minmax_all_on_one
from .model import (
    GuardExceeded,
    Instance,
    ObjectiveKind,
    disbalance,
    evaluate,
    instance_from_dict,
    instance_hash,
    instance_to_dict,
    schedule_from_dict,
    schedule_to_dict,
    single_scenario_optimum,
)
from .oracle import brute_force
from .two_scenario import solve_two_scenarios

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONTRACT = 2
EXIT_GUARD = 3

EXACT_ALGOS = {"two-scenario", "dp", "config"}


def _guards() -> dict:
    if os.environ.get("SCHED_GUARD_OVERRIDE"):
        return {"guard_bits": 1e9, "max_states": 10**9, "max_k": 6}
    return {"guard_bits": 32.0, "max_states": 2_000_000, "max_k": 3}


def _load_instance(path: str) -> Instance:
    with open(path) as fh:
        return instance_from_dict(json.load(fh))


def _emit(doc, path: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _default_objective(algo: str) -> str:
    return "minavg" if algo == "approx-minavg" else "minmax"


def _run_algorithm(inst: Instance, algo: str, kind: ObjectiveKind, epsilon, guards):
    """Returns (schedule, value, params) or raises ValueError on bad pairing."""
    if algo == "two-scenario":
        if inst.K != 2:
            raise ValueError(f"two-scenario requires K=2, got K={inst.K}")
        if kind not in (ObjectiveKind.MINMAX, ObjectiveKind.MINAVG):
            raise ValueError("two-scenario reports minmax or minavg objectives")
        sched = solve_two_scenarios(inst)
        return sched, evaluate(inst, sched, kind).aggregate, {}
    if algo == "dp":
        if kind in (ObjectiveKind.MINMAX, ObjectiveKind.REGRET_MAX):
            res = solve_pseudo(inst, kind, max_states=guards["max_states"])
        elif kind is ObjectiveKind.MINAVG:
            res = solve_minavg(inst, max_states=guards["max_states"])
        else:
            res = solve_regret_sum(inst, max_states=guards["max_states"])
        return res.schedule, res.value, {}
    if algo == "fptas":
        if kind is not ObjectiveKind.MINMAX:
            raise ValueError("fptas targets the minmax objective")
        if epsilon is None:
            raise ValueError("fptas requires --epsilon")
        res = fptas(inst, epsilon, max_states=guards["max_states"])
        return res.schedule, res.value, {"epsilon": str(epsilon)}
    if algo == "config":
        if kind not in (ObjectiveKind.MINMAX, ObjectiveKind.MINAVG):
            raise ValueError("config handles minmax or minavg")
        res = solve_config(inst, kind, max_states=guards["max_states"])
        return res.schedule, res.value, {}
    if algo == "approx-minmax2":
        if kind is not ObjectiveKind.MINMAX:
            raise ValueError("approx-minmax2 targets the minmax objective")
        sched = minmax_all_on_one(inst)
        return sched, evaluate(inst, sched, kind).aggregate, {}
    if algo == "approx-minavg":
        if kind is not ObjectiveKind.MINAVG:
            raise ValueError("approx-minavg targets the minavg objective")
        sched = minavg_derandomized(inst)
        return sched, evaluate(inst, sched, kind).aggregate, {}
    raise ValueError(f"unknown algorithm {algo!r}")


def _record(inst, algo, kind, sched, value, params, elapsed_ms) -> dict:
    cost = evaluate(inst, sched, kind)
    rep = disbalance(inst, sched)
    return {
        "instance": instance_hash(inst),
        "n": inst.n,
        "m": inst.m,
        "K": inst.K,
        "algorithm": algo,
        "objective": kind.value,
        "value": value,
        "per_scenario": list(cost.per_scenario),
        "assignment": schedule_to_dict(inst, sched)["assignment"],
        "disbalance": {
            "final_dk": list(rep.final_dk),
            "full_fk": list(rep.full_fk),
            "final_d": rep.final_d,
            "full_f": rep.full_f,
        },
        "params": params,
        "time_ms": elapsed_ms,
    }


def _cmd_solve(args) -> int:
    guards = _guards()
    inst = _load_instance(args.instance)
    kind = ObjectiveKind(args.objective or _default_objective(args.algo))
    epsilon = Fraction(args.epsilon) if args.epsilon else None
    start = time.perf_counter()
    sched, value, params = _run_algorithm(inst, args.algo, kind, epsilon, guards)
    elapsed = round((time.perf_counter() - start) * 1000.0, 3)
    _emit(_record(inst, args.algo, kind, sched, value, params, elapsed), args.output)
    return EXIT_OK


def _approx_bound(algo: str, inst: Instance, epsilon) -> Fraction | None:
    if algo == "approx-minavg":
        return Fraction(3, 2) - Fraction(1, 2 * inst.m)
    if algo == "approx-minmax2":
        return Fraction(2)
    if algo == "fptas":
        return 1 + Fraction(epsilon)
    return None


def _cmd_verify(args) -> int:
    guards = _guards()
    inst = _load_instance(args.instance)
    kind = ObjectiveKind(args.objective or _default_objective(args.algo))
    epsilon = Fraction(args.epsilon) if args.epsilon else None
    sched, value, params = _run_algorithm(inst, args.algo, kind, epsilon, guards)
    oracle = brute_force(inst, kind, guard_bits=guards["guard_bits"])
    ratio = Fraction(value, oracle.best_value) if oracle.best_value else Fraction(1)

    if args.algo == "two-scenario":
        per = [evaluate(inst, sched, kind).per_scenario[k] for k in range(2)]
        opts = [single_scenario_optimum(inst, k) for k in range(2)]
        ok = per == opts
        detail = {"per_scenario": per, "per_scenario_optima": opts}
    elif args.algo in EXACT_ALGOS:
        ok = value == oracle.best_value
        detail = {}
    else:
        bound = _approx_bound(args.algo, inst, epsilon)
        ok = ratio <= bound
        detail = {"bound": str(bound)}
    report = {
        "algorithm": args.algo,
        "objective": kind.value,
        "value": value,
        "oracle_value": oracle.best_value,
        "ratio": str(ratio),
        "ok": ok,
        **detail,
    }
    _emit(report, args.output)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _parse_edges(spec: str) -> tuple[tuple[int, int], ...]:
    if not spec:
        return ()
    edges = []
    for part in spec.split(","):
        u, _, v = part.partition("-")
        edges.append((int(u), int(v)))
    return tuple(edges)


def _cmd_generate(args) -> int:
    if args.family == "coloring":
        g = gen.Graph(args.vertices, _parse_edges(args.edges))
        doc = instance_to_dict(gen.gen_coloring(g, args.m))
    elif args.family == "maxcut":
        g = gen.Graph(args.vertices, _parse_edges(args.edges))
        doc = instance_to_dict(gen.gen_maxcut(g))
    elif args.family == "partition3":
        numbers = [int(v) for v in args.a.split(",")]
        doc = instance_to_dict(gen.gen_partition3(numbers, args.m))
    elif args.family == "unsplittable":
        matrix = gen.gen_unsplittable(args.q, args.t)
        if args.to_instance:
            doc = instance_to_dict(
                gen.matrix_to_instance(matrix, args.eps_denominator)
            )
        else:
            doc = {
                "rows": [list(r) for r in matrix.rows],
                "column_sums": list(matrix.column_sums()),
            }
    elif args.family == "random":
        doc = instance_to_dict(
            gen.gen_random(
                args.n,
                args.m,
                args.K,
                w_max=args.w_max,
                density=float(Fraction(args.density)),
                seed=args.seed,
            )
        )
    else:
        raise ValueError(f"unknown family {args.family!r}")
    _emit(doc, args.output)
    return EXIT_OK


def _cmd_probe(args) -> int:
    guards = _guards()
    report = bal.conjecture_probe(
        args.n,
        args.m,
        args.K,
        args.trials,
        args.seed,
        density=float(Fraction(args.density)),
        guard_bits=guards["guard_bits"],
    )
    _emit(
        {
            "n": report.n,
            "m": report.m,
            "K": report.K,
            "trials": report.trials,
            "seed": report.seed,
            "per_trial": list(report.per_trial),
            "max_observed": report.max_observed,
            "achieving_trials": list(report.achieving_trials),
        },
        args.output,
    )
    return EXIT_OK


def _cmd_balance(args) -> int:
    guards = _guards()
    inst = _load_instance(args.instance)
    with open(args.schedule) as fh:
        sched = schedule_from_dict(inst, json.load(fh))
    before = evaluate(inst, sched, ObjectiveKind.MINAVG).aggregate
    basis = bal.hilbert_basis(inst.K, max_k=guards["max_k"])
    if args.machines:
        i1, i2 = args.machines
        result, rep = bal.equalize_two(
            inst, sched, i1, i2, basis=basis, with_report=True
        )
        report = {
            "machines": list(rep.machines),
            "aux_jobs": list(rep.aux_jobs),
            "pre_final": list(rep.pre_final),
            "pre_full": list(rep.pre_full),
            "post_final": list(rep.post_final),
            "post_full": list(rep.post_full),
            "extended_final": list(rep.extended_final),
        }
    else:
        result = bal.equalize_all(inst, sched, basis=basis)
        report = {"mode": "all-machines"}
    after = evaluate(inst, result, ObjectiveKind.MINAVG).aggregate
    full = disbalance(inst, result)
    _emit(
        {
            "schedule": schedule_to_dict(inst, result),
            "objective_before": before,
            "objective_after": after,
            "full_disbalance": full.full_f,
            "report": report,
        },
        args.output,
    )
    return EXIT_OK


def _bench_items():
    triangle = gen.Graph(3, ((0, 1), (1, 2), (0, 2)))
    path = gen.Graph(4, ((0, 1), (1, 2), (2, 3)))
    return [
        ("coloring-triangle", gen.gen_coloring(triangle, 2)),
        ("coloring-path", gen.gen_coloring(path, 2)),
        ("maxcut-triangle", gen.gen_maxcut(triangle)),
        ("random-a", gen.gen_random(7, 2, 3, w_max=9, density=0.5, seed=42)),
        ("random-b", gen.gen_random(6, 3, 2, w_max=5, density=0.7, seed=43)),
        ("unit-random", gen.gen_random(8, 3, 2, w_max=1, density=0.6, seed=44)),
        ("unsplit-2-2", gen.matrix_to_instance(gen.gen_unsplittable(2, 2), 100)),
    ]


def _bench_algos(inst: Instance):
    algos = [("dp", "minmax", None), ("dp", "minavg", None), ("fptas", "minmax", Fraction(1, 2))]
    if inst.m == 2:
        algos.append(("approx-minmax2", "minmax", None))
    algos.append(("approx-minavg", "minavg", None))
    if all(w == 1 for w in inst.weights):
        algos.append(("config", "minmax", None))
    if inst.K == 2:
        algos.append(("two-scenario", "minmax", None))
    return algos


def _cmd_bench(args) -> int:
    if args.suite != "default":
        raise ValueError(f"unknown suite {args.suite!r}")
    guards = _guards()
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(
        [
            "instance",
            "n",
            "m",
            "K",
            "algo",
            "objective",
            "value",
            "oracle_value",
            "ratio",
            "time_ms",
            "full_disbalance",
        ]
    )
    failures = 0
    for name, inst in _bench_items():
        for algo, objective, eps in _bench_algos(inst):
            kind = ObjectiveKind(objective)
            start = time.perf_counter()
            sched, value, _ = _run_algorithm(inst, algo, kind, eps, guards)
            elapsed = round((time.perf_counter() - start) * 1000.0, 3)
            oracle = brute_force(inst, kind, guard_bits=guards["guard_bits"])
            ratio = Fraction(value, oracle.best_value) if oracle.best_value else Fraction(1)
            bound = _approx_bound(algo, inst, eps)
            if bound is not None and ratio > bound:
                failures += 1
            if algo in EXACT_ALGOS and value != oracle.best_value:
                failures += 1
            writer.writerow(
                [
                    name,
                    inst.n,
                    inst.m,
                    inst.K,
                    algo,
                    objective,
                    value,
                    oracle.best_value,
                    str(ratio),
                    elapsed,
                    disbalance(inst, sched).full_f,
                ]
            )
    text = out.getvalue()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_VERIFY_FAILED if failures else EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scensched",
        description="Solvers and generators for scheduling under job-subset scenarios",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    algo_choices = [
        "two-scenario",
        "dp",
        "fptas",
        "config",
        "approx-minmax2",
        "approx-minavg",
    ]
    objective_choices = [k.value for k in ObjectiveKind]

    p_solve = sub.add_parser("solve", help="run one algorithm on an instance file")
    p_solve.add_argument("--algo", required=True, choices=algo_choices)
    p_solve.add_argument("--objective", choices=objective_choices)
    p_solve.add_argument("--epsilon", help="rational like 1/2 (fptas only)")
    p_solve.add_argument("-i", "--instance", required=True)
    p_solve.add_argument("-o", "--output")
    p_solve.set_defaults(func=_cmd_solve)

    p_verify = sub.add_parser("verify", help="compare an algorithm against the oracle")
    p_verify.add_argument("--algo", required=True, choices=algo_choices)
    p_verify.add_argument("--objective", choices=objective_choices)
    p_verify.add_argument("--epsilon")
    p_verify.add_argument("-i", "--instance", required=True)
    p_verify.add_argument("-o", "--output")
    p_verify.set_defaults(func=_cmd_verify)

    p_gen = sub.add_parser("generate", help="emit a generated instance or matrix")
    p_gen.add_argument(
        "family", choices=["coloring", "maxcut", "partition3", "unsplittable", "random"]
    )
    p_gen.add_argument("--vertices", type=int, default=0)
    p_gen.add_argument("--edges", default="", help='edge list like "0-1,1-2"')
    p_gen.add_argument("--m", type=int, default=2)
    p_gen.add_argument("--a", default="", help='partition numbers like "1,1,1"')
    p_gen.add_argument("--q", type=int, default=2)
    p_gen.add_argument("--t", type=int, default=2)
    p_gen.add_argument("--to-instance", action="store_true")
    p_gen.add_argument("--eps-denominator", type=int, default=100)
    p_gen.add_argument("--n", type=int, default=8)
    p_gen.add_argument("--K", type=int, default=2)
    p_gen.add_argument("--w-max", type=int, default=9)
    p_gen.add_argument("--density", default="1/2")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--output")
    p_gen.set_defaults(func=_cmd_generate)

    p_probe = sub.add_parser("probe", help="empirical disbalance probe")
    p_probe.add_argument("kind", choices=["conjecture"])
    p_probe.add_argument("--n", type=int, required=True)
    p_probe.add_argument("--m", type=int, required=True)
    p_probe.add_argument("--K", type=int, required=True)
    p_probe.add_argument("--trials", type=int, required=True)
    p_probe.add_argument("--seed", type=int, required=True)
    p_probe.add_argument("--density", default="1/2")
    p_probe.add_argument("-o", "--output")
    p_probe.set_defaults(func=_cmd_probe)

    p_bal = sub.add_parser("balance", help="equalize a schedule's disbalance")
    p_bal.add_argument("action", choices=["equalize"])
    p_bal.add_argument("-i", "--instance", required=True)
    p_bal.add_argument("-s", "--schedule", required=True)
    p_bal.add_argument("--machines", type=int, nargs=2, metavar=("I1", "I2"))
    p_bal.add_argument("-o", "--output")
    p_bal.set_defaults(func=_cmd_balance)

    p_bench = sub.add_parser("bench", help="run the benchmark suite to CSV")
    p_bench.add_argument("--suite", default="default")
    p_bench.add_argument("-o", "--output")
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GuardExceeded as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
