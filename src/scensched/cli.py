"""Command-line front end.

Machine-readable JSON/CSV only; value fields are deterministic for identical
invocations (wall-clock fields are reported but excluded from that contract).
Exit codes: 0 success, 1 verification failure, 2 contract violation,
3 resource guard.  The size guards are the oracle's n*log2(m) <= 32, 2M
states per layer for the exact DPs (dp, config, fptas) and K <= 3 for the
Hilbert basis.  Setting SCHED_GUARD_OVERRIDE=1 lifts them (at your own risk:
memory and runtime grow quickly past them).

``solve``, ``verify``, ``bench`` and the ``--algo`` choices all derive from
one table of algorithms, ``ALGORITHMS``.  A process imports only what its
command runs: each solver module on the first call of its runner, the
generators, balance and oracle modules inside the handlers that use them.
``fractions`` (with ``decimal``) loads only where a Fraction is built or a
module that uses one is imported: ``solve --algo fptas``, ``verify``,
``bench``, ``generate``, ``probe`` and ``balance``.  No command loads
``hashlib``: the instance digest uses the interpreter's built-in SHA-256.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import time
from importlib import import_module
from typing import TYPE_CHECKING, Callable, NamedTuple

from .model import (
    GuardExceeded,
    Instance,
    ObjectiveKind,
    Schedule,
    SolveResult,
    disbalance,
    evaluate,
    instance_from_dict,
    instance_hash,
    instance_to_dict,
    schedule_from_dict,
    schedule_to_dict,
    single_scenario_optimum,
)

if TYPE_CHECKING:
    from fractions import Fraction

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONTRACT = 2
EXIT_GUARD = 3

MINMAX, MINAVG = ObjectiveKind.MINMAX, ObjectiveKind.MINAVG
REGRET_MAX, REGRET_SUM = ObjectiveKind.REGRET_MAX, ObjectiveKind.REGRET_SUM


def _fraction(*args) -> Fraction:
    """``Fraction(*args)``; ``fractions`` (and ``decimal``) load only in the
    processes that build one."""
    from fractions import Fraction

    return Fraction(*args)


def _call(module: str, name: str, *args, **kwargs):
    """Calls function ``name`` of submodule ``module``, importing the module
    on first use and looking the name up on every call, so rebinding it in
    its module reaches every call."""
    return getattr(import_module(f".{module}", __package__), name)(*args, **kwargs)


class Algorithm(NamedTuple):
    """``runners`` maps each objective (the first is the default) to
    ``runner(inst, epsilon, max_states)``, returning a Schedule or a solver
    result; it calls its solver through ``_call``.  ``bound(inst, epsilon)``
    is the certified ratio; None marks an exact algorithm.  Instance
    preconditions (K=2, m=2, unit weights) are the solvers' own checks."""

    runners: dict
    epsilon: bool = False
    bound: Callable[[Instance, Fraction | None], Fraction] | None = None


ALGORITHMS = {
    "two-scenario": Algorithm(dict.fromkeys(
        (MINMAX, MINAVG),
        lambda inst, eps, cap: _call("two_scenario", "solve_two_scenarios", inst),
    )),
    "dp": Algorithm({
        MINMAX: lambda inst, eps, cap: _call(
            "dp_minmax", "solve_pseudo", inst, MINMAX, max_states=cap),
        MINAVG: lambda inst, eps, cap: _call(
            "dp_minavg", "solve_minavg", inst, max_states=cap),
        REGRET_MAX: lambda inst, eps, cap: _call(
            "dp_minmax", "solve_pseudo", inst, REGRET_MAX, max_states=cap),
        REGRET_SUM: lambda inst, eps, cap: _call(
            "dp_minavg", "solve_regret_sum", inst, max_states=cap),
    }),
    "fptas": Algorithm(
        {MINMAX: lambda inst, eps, cap: _call("dp_minmax", "fptas", inst, eps, max_states=cap)},
        epsilon=True,
        bound=lambda inst, eps: 1 + eps,
    ),
    "config": Algorithm({
        MINMAX: lambda inst, eps, cap: _call(
            "dp_config", "solve_config", inst, MINMAX, max_states=cap),
        MINAVG: lambda inst, eps, cap: _call(
            "dp_config", "solve_config", inst, MINAVG, max_states=cap),
    }),
    "approx-minmax2": Algorithm(
        {MINMAX: lambda inst, eps, cap: _call("approx", "minmax_all_on_one", inst)},
        bound=lambda inst, eps: _fraction(2),
    ),
    "approx-minavg": Algorithm(
        {MINAVG: lambda inst, eps, cap: _call("approx", "minavg_derandomized", inst)},
        bound=lambda inst, eps: _fraction(3, 2) - _fraction(1, 2 * inst.m),
    ),
}


def _guards() -> dict:
    if os.environ.get("SCHED_GUARD_OVERRIDE") == "1":
        return {"guard_bits": 1e9, "max_states": 10**9, "max_k": 6}
    return {"guard_bits": 32.0, "max_states": 2_000_000, "max_k": 3}


def _rational(text: str) -> Fraction:
    """Parses a rational flag like 1/2; ValueError (exit 2) when malformed."""
    try:
        return _fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _load_instance(path: str) -> Instance:
    with open(path) as fh:
        return instance_from_dict(json.load(fh))


def _write(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(doc, path: str | None) -> None:
    _write(json.dumps(doc, indent=2, sort_keys=True) + "\n", path)


def _run(inst: Instance, algo: str, kind: ObjectiveKind, epsilon, guards):
    """Returns (schedule, value, ms); ValueError on a pairing outside the
    table or an instance the solver rejects."""
    entry = ALGORITHMS[algo]
    if kind not in entry.runners:
        handled = ", ".join(k.value for k in entry.runners)
        raise ValueError(f"{algo} handles {handled}, not {kind.value}")
    if entry.epsilon != (epsilon is not None):
        raise ValueError(f"{algo} {'requires' if entry.epsilon else 'takes no'} --epsilon")
    start = time.perf_counter()
    out = entry.runners[kind](inst, epsilon, guards["max_states"])
    if isinstance(out, Schedule):
        out = SolveResult(evaluate(inst, out, kind).aggregate, out)
    return out.schedule, out.value, round((time.perf_counter() - start) * 1000.0, 3)


def _check(inst, algo, kind, sched, value, epsilon, guards):
    """Compares a run with the oracle; returns (ratio, ok, detail)."""
    from .oracle import brute_force

    best = brute_force(inst, kind, guard_bits=guards["guard_bits"]).best_value
    ratio = _fraction(value, best) if best else _fraction(1)
    detail = {"oracle_value": best}
    bound = ALGORITHMS[algo].bound
    if algo == "two-scenario":
        per = list(evaluate(inst, sched, kind).per_scenario)
        opts = [single_scenario_optimum(inst, k) for k in range(2)]
        ok = per == opts
        detail.update(per_scenario=per, per_scenario_optima=opts)
    elif bound is None:
        ok = value == best
    else:
        limit = bound(inst, epsilon)
        ok = ratio <= limit
        detail["bound"] = str(limit)
    return ratio, ok, detail


def _request(args):
    """The instance, objective and epsilon named by solve/verify arguments."""
    inst = _load_instance(args.instance)
    default = next(iter(ALGORITHMS[args.algo].runners))
    kind = ObjectiveKind(args.objective) if args.objective else default
    epsilon = None if args.epsilon is None else _rational(args.epsilon)
    return inst, kind, epsilon


def _record(inst, algo, kind, sched, value, epsilon, elapsed_ms) -> dict:
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
        "params": {} if epsilon is None else {"epsilon": str(epsilon)},
        "time_ms": elapsed_ms,
    }


def _cmd_solve(args) -> int:
    guards = _guards()
    inst, kind, epsilon = _request(args)
    sched, value, elapsed = _run(inst, args.algo, kind, epsilon, guards)
    _emit(_record(inst, args.algo, kind, sched, value, epsilon, elapsed), args.output)
    return EXIT_OK


def _cmd_verify(args) -> int:
    guards = _guards()
    inst, kind, epsilon = _request(args)
    sched, value, _ = _run(inst, args.algo, kind, epsilon, guards)
    ratio, ok, detail = _check(inst, args.algo, kind, sched, value, epsilon, guards)
    report = {
        "algorithm": args.algo,
        "objective": kind.value,
        "value": value,
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
    from . import generators as gen

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
    else:  # random
        doc = instance_to_dict(
            gen.gen_random(
                args.n,
                args.m,
                args.K,
                w_max=args.w_max,
                density=float(_rational(args.density)),
                seed=args.seed,
            )
        )
    _emit(doc, args.output)
    return EXIT_OK


def _cmd_probe(args) -> int:
    from . import balance as bal

    guards = _guards()
    report = bal.conjecture_probe(
        args.n,
        args.m,
        args.K,
        args.trials,
        args.seed,
        density=float(_rational(args.density)),
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
    from . import balance as bal

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
            "likely_nonoptimal": rep.likely_nonoptimal,
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
    from . import generators as gen

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


def _cmd_bench(args) -> int:
    """Runs every (algorithm, objective) pair of the table on the suite, with
    epsilon 1/2 where it is needed, skipping instances a solver rejects."""
    import csv

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
        for algo, entry in ALGORITHMS.items():
            epsilon = _fraction(1, 2) if entry.epsilon else None
            for kind in entry.runners:
                try:
                    sched, value, elapsed = _run(inst, algo, kind, epsilon, guards)
                except ValueError:
                    continue
                ratio, ok, detail = _check(inst, algo, kind, sched, value, epsilon, guards)
                failures += not ok
                writer.writerow(
                    [
                        name,
                        inst.n,
                        inst.m,
                        inst.K,
                        algo,
                        kind.value,
                        value,
                        detail["oracle_value"],
                        str(ratio),
                        elapsed,
                        disbalance(inst, sched).full_f,
                    ]
                )
    _write(out.getvalue(), args.output)
    return EXIT_VERIFY_FAILED if failures else EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scensched",
        description="Solvers and generators for scheduling under job-subset scenarios",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    epsilon_algos = ", ".join(a for a, entry in ALGORITHMS.items() if entry.epsilon)
    for name, help_text, func in (
        ("solve", "run one algorithm on an instance file", _cmd_solve),
        ("verify", "compare an algorithm against the oracle", _cmd_verify),
    ):
        p_run = sub.add_parser(name, help=help_text)
        p_run.add_argument("--algo", required=True, choices=list(ALGORITHMS))
        p_run.add_argument("--objective", choices=[k.value for k in ObjectiveKind])
        p_run.add_argument("--epsilon", help=f"rational like 1/2 ({epsilon_algos} only)")
        p_run.add_argument("-i", "--instance", required=True)
        p_run.add_argument("-o", "--output")
        p_run.set_defaults(func=func)

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
    p_bench.add_argument("--suite", default="default", choices=("default",))
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
