"""Command-line front end.

Machine-readable JSON/CSV only; value fields are deterministic for identical
invocations (wall-clock fields are reported but excluded from that contract).
Exit codes: 0 success, 1 verification failure, 2 contract violation,
3 resource guard.  The seven size limits are ``model`` constants, each read
by the function that enforces it: GUARD_BITS (the oracle's at most 2^21
canonical assignments: up to 22 jobs on 2 machines, 14 on 3, 12 on 4 or 5,
11 on any larger number), MAX_STATES (2M states that one solve of the
exact solvers, dp, config and fptas, proves dead), MAX_MEMBERSHIPS
(``generate random``'s n*K <= 100 000, and the jobs plus memberships of
``generate coloring``, ``maxcut`` and ``partition3``), MAX_WEIGHT_DIGITS
(the 4300 digits of ``generate partition3``'s largest weight, of the
exponent and of |numerator| + denominator of --epsilon and --density, and
of K*w_1*n(n+1)/2, which bounds every value ``solve`` and ``verify``
write, and of the numerator and denominator of the bound ``verify`` writes),
MAX_ROWS (``generate unsplittable``'s 5000 rows), MAX_SUBSET_ROWS
(``is_unsplittable``'s 20 rows) and MAX_ROUNDS (``equalize_all``'s 10 000
rounds).  The Hilbert basis's K <= 3 is the extent of ``balance``'s basis
table.  No flag or environment variable changes a limit: the package reads
no environment, so a run's values depend on its arguments and input files
alone.
``solve`` and ``verify`` check the value guard once the instance is read
and --epsilon parsed, before the pairing.  ``verify`` checks its bound, the
certified ratio in lowest terms, after the pairing: (3m - 1)/(2m) of
``approx-minavg`` reads ``m``, which the value guard does not.  ``verify``
and ``probe`` check the oracle guard before they run anything: ``verify``
after its bound check but before the algorithm, ``probe`` after its
argument checks but before it builds a trial instance.

``solve``, ``verify``, ``bench`` and the ``--algo`` choices all derive from
one table of algorithms, ``ALGORITHMS``.  The command line is read from one
table of commands, ``COMMANDS``, keyed by the command's one or two words
(``solve``, ``generate random``): each command's handler, help text and
flags (names, type, default, required mark, choices, number of values).
``_parse`` walks it, and the ``-h`` text is rendered from it.  A flag the
command does not list is rejected like any unknown flag.  Flags match only
by their exact names, as ``--flag value`` or ``--flag=value``, and each
value is converted (an edge list, a density in (0, 1]) as it is parsed.

Every solver, generator, balance and oracle call goes through the package
root by its public name (``scensched.solve_pseudo(...)``), whose lazy lookup
imports the defining module on first use and returns its current binding on
every call.  A solver is looked up when its table entry is read, before the
clock of ``time_ms`` starts, so ``time_ms`` leaves out the import.  So a
process imports only what its command runs: no option-parsing library (nor
``gettext`` and ``locale``), and each library module only when a call needs
it.  ``fractions`` (with ``decimal``) loads only where ``model._rational``
builds a Fraction: ``solve`` and ``verify`` with ``--algo fptas`` (to parse
--epsilon), ``bench``, and ``generate random`` and ``probe`` given
--density; ``csv`` only in ``bench``.
``verify`` writes its ratio and bound as ``str(Fraction)`` would, from
integers.
No command loads ``hashlib``: the instance digest uses the interpreter's
built-in SHA-256.

``run`` is the process entry, of ``python -m scensched.cli`` and of the
``scensched`` console script alike.  It calls ``main``, takes a
``SystemExit`` from the parser (0 for -h, 2 for a malformed line) as the
exit code, flushes stdout and stderr, and ends the process with
``os._exit``, so the interpreter's teardown (module and object cleanup)
never runs.  That skips nothing the program needs: the package registers no
``atexit`` hook, and every file it writes is closed by ``with`` before
``main`` returns.  A flush that fails (a full disk, a closed pipe) and
stdout closed at start are reported as ``error: ...`` with exit 2.  ``main``
returns the exit code and is what tests call in-process.
"""

from __future__ import annotations

import io
import json
import math
import os
import sys
import time
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, NamedTuple, NoReturn

import scensched

from .model import (
    MAX_WEIGHT_DIGITS,
    GuardExceeded,
    Instance,
    ObjectiveKind,
    Schedule,
    SolveResult,
    _rational,
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


class Algorithm(NamedTuple):
    """``runners`` maps each objective (the first is the default) to
    ``(name, *args)``: the solver's public name in the package root and the
    arguments after the instance, to which --epsilon is appended where the
    algorithm takes it.  The solver returns a Schedule or a solver result.
    ``bound(inst, epsilon)`` is the certified ratio as an integer pair
    (numerator, denominator); None marks an exact algorithm.  Instance
    preconditions (K=2, m=2, unit weights) are the solvers' own checks."""

    runners: dict
    epsilon: bool = False
    bound: Callable[[Instance, Fraction | None], tuple[int, int]] | None = None


ALGORITHMS = {
    "two-scenario": Algorithm(dict.fromkeys((MINMAX, MINAVG), ("solve_two_scenarios",))),
    "dp": Algorithm({
        MINMAX: ("solve_pseudo", MINMAX),
        MINAVG: ("solve_minavg",),
        REGRET_MAX: ("solve_pseudo", REGRET_MAX),
        REGRET_SUM: ("solve_regret_sum",),
    }),
    "fptas": Algorithm(
        {MINMAX: ("fptas",)},
        epsilon=True,
        bound=lambda inst, eps: (eps.denominator + eps.numerator, eps.denominator),
    ),
    "config": Algorithm({
        MINMAX: ("solve_config", MINMAX),
        MINAVG: ("solve_config", MINAVG),
    }),
    "approx-minmax2": Algorithm(
        {MINMAX: ("minmax_all_on_one",)},
        bound=lambda inst, eps: (2, 1),
    ),
    "approx-minavg": Algorithm(
        {MINAVG: ("minavg_derandomized",)},
        bound=lambda inst, eps: (3 * inst.m - 1, 2 * inst.m),
    ),
}


def _ratio_text(num: int, den: int) -> str:
    """num/den in lowest terms, written as ``str(Fraction(num, den))`` writes
    it, without loading ``fractions``."""
    g = math.gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def _load_json(fh, path: str):
    """``json.load``, with a file nested past the recursion limit rejected as
    malformed (exit 2), not raised as a RecursionError traceback."""
    try:
        return json.load(fh)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def _load_instance(path: str) -> Instance:
    with open(path) as fh:
        return instance_from_dict(_load_json(fh, path))


def _write(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    elif sys.stdout is None:  # the process started with stdout closed
        raise OSError("standard output is closed")
    else:
        sys.stdout.write(text)


def _emit(doc, path: str | None) -> None:
    _write(json.dumps(doc, indent=2, sort_keys=True) + "\n", path)


def _runner(algo: str, kind: ObjectiveKind, epsilon) -> Callable:
    """``runner(inst)``, the table's solver of algo for kind with its
    arguments; ValueError on a pairing outside the table or an --epsilon the
    algorithm does not take.  The solver is looked up here, so its module is
    imported before any clock starts."""
    entry = ALGORITHMS[algo]
    if kind not in entry.runners:
        handled = ", ".join(k.value for k in entry.runners)
        raise ValueError(f"{algo} handles {handled}, not {kind.value}")
    if entry.epsilon != (epsilon is not None):
        raise ValueError(f"{algo} {'requires' if entry.epsilon else 'takes no'} --epsilon")
    name, *args = entry.runners[kind]
    solver = getattr(scensched, name)
    if entry.epsilon:
        args.append(epsilon)
    return lambda inst: solver(inst, *args)


def _run(inst: Instance, runner: Callable, kind: ObjectiveKind):
    """Returns (schedule, value, ms); ValueError on an instance the solver
    rejects."""
    start = time.perf_counter()
    out = runner(inst)
    if isinstance(out, Schedule):
        out = SolveResult(evaluate(inst, out, kind).aggregate, out)
    return out.schedule, out.value, round((time.perf_counter() - start) * 1000.0, 3)


def _check(inst, algo, kind, sched, value, epsilon, best):
    """Compares a run with the oracle value ``best``; returns (ratio, ok,
    detail), the ratio and the bound written as fractions."""
    ratio = (value, best) if best else (1, 1)
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
        num, den = bound(inst, epsilon)
        ok = ratio[0] * den <= num * ratio[1]
        detail["bound"] = _ratio_text(num, den)
    return _ratio_text(*ratio), ok, detail


def _request(args):
    """The instance, objective and epsilon named by solve/verify arguments.
    GuardExceeded when K*w_1*n(n+1)/2, which bounds every value, cost, oracle
    value and ratio a record holds, could not be written as text."""
    inst = _load_instance(args.instance)
    default = next(iter(ALGORITHMS[args.algo].runners))
    kind = ObjectiveKind(args.objective) if args.objective else default
    epsilon = None if args.epsilon is None else _rational(args.epsilon)
    if inst.K * inst.max_weight * inst.n * (inst.n + 1) // 2 >= 10**MAX_WEIGHT_DIGITS:
        raise GuardExceeded("value guard: K*w_1*n(n+1)/2 (w_1 the largest weight) has more "
                            f"than MAX_WEIGHT_DIGITS = {MAX_WEIGHT_DIGITS} digits")
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
    inst, kind, epsilon = _request(args)
    runner = _runner(args.algo, kind, epsilon)
    sched, value, elapsed = _run(inst, runner, kind)
    _emit(_record(inst, args.algo, kind, sched, value, epsilon, elapsed), args.output)
    return EXIT_OK


def _cmd_verify(args) -> int:
    """Checks the pairing and the size of the bound it will write, then takes
    the oracle value, whose guard fires before the algorithm runs, then runs
    and compares."""
    inst, kind, epsilon = _request(args)
    runner = _runner(args.algo, kind, epsilon)
    bound = ALGORITHMS[args.algo].bound
    if bound is not None:
        num, den = bound(inst, epsilon)
        if max(num, den) // math.gcd(num, den) >= 10**MAX_WEIGHT_DIGITS:
            raise GuardExceeded("bound guard: the certified ratio in lowest terms has a numerator "
                                f"or denominator of more than MAX_WEIGHT_DIGITS = "
                                f"{MAX_WEIGHT_DIGITS} digits")
    best = scensched.brute_force(inst, kind).best_value
    sched, value, _ = _run(inst, runner, kind)
    ratio, ok, detail = _check(inst, args.algo, kind, sched, value, epsilon, best)
    report = {
        "algorithm": args.algo,
        "objective": kind.value,
        "value": value,
        "ratio": ratio,
        "ok": ok,
        **detail,
    }
    _emit(report, args.output)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _edge_list(text: str) -> tuple[tuple[int, int], ...]:
    """An edge list like "0-1,1-2" as pairs of ints; "" is no edges."""
    pairs = [part.partition("-") for part in text.split(",")] if text else []
    return tuple((int(u), int(v)) for u, _, v in pairs)


def _int_list(text: str) -> list[int]:
    """A number list like "1,1,1"."""
    return [int(v) for v in text.split(",")]


def _density(text: str) -> float:
    """A rational in (0, 1] like 1/2, as a float.  The range is checked on the
    rational, so a value like 1e400 is rejected, not overflowed, and a value
    like 1e-400, whose float is 0, is rejected too."""
    value = _rational(text)
    if not 0 < value <= 1 or not float(value):
        raise ValueError(f"{text!r} is not in (0, 1]")
    return float(value)


def _emitter(build: Callable) -> Callable:
    """The handler that writes the document ``build(args)`` returns."""

    def handler(args) -> int:
        _emit(build(args), args.output)
        return EXIT_OK

    return handler


def _coloring(args) -> dict:
    g = scensched.Graph(args.vertices, args.edges)
    return instance_to_dict(scensched.gen_coloring(g, args.m))


def _maxcut(args) -> dict:
    return instance_to_dict(scensched.gen_maxcut(scensched.Graph(args.vertices, args.edges)))


def _partition3(args) -> dict:
    return instance_to_dict(scensched.gen_partition3(args.a, args.m))


def _unsplittable(args) -> dict:
    """The matrix, or with --to-instance its instance: only that has weights,
    so only it reads --eps-denominator."""
    if args.eps_denominator is not None and not args.to_instance:
        raise ValueError("generate unsplittable does not read --eps-denominator")
    matrix = scensched.gen_unsplittable(args.q, args.t)
    if not args.to_instance:
        return {"rows": [list(r) for r in matrix.rows], "column_sums": list(matrix.column_sums())}
    eps = () if args.eps_denominator is None else (args.eps_denominator,)
    return instance_to_dict(scensched.matrix_to_instance(matrix, *eps))


def _random(args) -> dict:
    return instance_to_dict(scensched.gen_random(
        args.n, args.m, args.K, w_max=args.w_max, density=args.density, seed=args.seed))


def _probe(args) -> dict:
    report = scensched.conjecture_probe(
        args.n, args.m, args.K, args.trials, args.seed, density=args.density)
    return report._asdict()


def _cmd_balance(args) -> int:
    inst = _load_instance(args.instance)
    with open(args.schedule) as fh:
        sched = schedule_from_dict(inst, _load_json(fh, args.schedule))
    before = evaluate(inst, sched, ObjectiveKind.MINAVG).aggregate
    if args.machines:
        i1, i2 = args.machines
        result, rep = scensched.equalize_two(inst, sched, i1, i2)
        report = rep._asdict()
    else:
        result = scensched.equalize_all(inst, sched)
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
    triangle = scensched.Graph(3, ((0, 1), (1, 2), (0, 2)))
    path = scensched.Graph(4, ((0, 1), (1, 2), (2, 3)))
    return [
        ("coloring-triangle", scensched.gen_coloring(triangle, 2)),
        ("coloring-path", scensched.gen_coloring(path, 2)),
        ("maxcut-triangle", scensched.gen_maxcut(triangle)),
        ("random-a", scensched.gen_random(7, 2, 3, w_max=9, density=0.5, seed=42)),
        ("random-b", scensched.gen_random(6, 3, 2, w_max=5, density=0.7, seed=43)),
        ("unit-random", scensched.gen_random(8, 3, 2, w_max=1, density=0.6, seed=44)),
        ("unsplit-2-2", scensched.matrix_to_instance(scensched.gen_unsplittable(2, 2), 100)),
    ]


def _csv(rows) -> str:
    """The rows as CSV text; ``csv`` loads only in the process that writes it."""
    import csv

    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue()


def _cmd_bench(args) -> int:
    """Runs every (algorithm, objective) pair of the table on the suite, with
    epsilon 1/2 where it is needed, skipping instances a solver rejects.  The
    oracle runs once per instance and objective."""
    rows = [["instance", "n", "m", "K", "algo", "objective", "value", "oracle_value", "ratio",
             "time_ms", "full_disbalance"]]
    failures = 0
    for name, inst in _bench_items():
        oracle = {kind: scensched.brute_force(inst, kind) for kind in ObjectiveKind}
        for algo, entry in ALGORITHMS.items():
            epsilon = _rational("1/2") if entry.epsilon else None
            for kind in entry.runners:
                try:
                    sched, value, elapsed = _run(inst, _runner(algo, kind, epsilon), kind)
                except ValueError:
                    continue
                best = oracle[kind].best_value
                ratio, ok, detail = _check(inst, algo, kind, sched, value, epsilon, best)
                failures += not ok
                rows.append([name, inst.n, inst.m, inst.K, algo, kind.value, value,
                             detail["oracle_value"], ratio, elapsed,
                             disbalance(inst, sched).full_f])
    _write(_csv(rows), args.output)
    return EXIT_VERIFY_FAILED if failures else EXIT_OK


class Flag(NamedTuple):
    """One argument of a command.  ``nargs`` is 1, 2 (a list of two values)
    or 0 (store-true: True when given, else False); ``type`` converts each
    value, and ``choices`` constrains the converted value."""

    names: tuple
    type: Callable = str
    default: object = None
    required: bool = False
    choices: tuple = ()
    nargs: int = 1
    help: str = ""

    @property
    def dest(self) -> str:
        return self.names[-1].lstrip("-").replace("-", "_")

    @property
    def label(self) -> str:
        return "/".join(self.names)


class Command(NamedTuple):
    """``handler(args)`` returns the exit code."""

    handler: Callable
    help: str
    flags: tuple


# flags that several commands read
_OUTPUT = Flag(("-o", "--output"))
_M = Flag(("--m",), int, 2)
_VERTICES = Flag(("--vertices",), int, required=True)
_EDGES = Flag(("--edges",), _edge_list, (), help='edge list like "0-1,1-2"')
_DENSITY = Flag(("--density",), _density, 0.5, help="rational in (0, 1] like 1/2")
_RUN_FLAGS = (
    Flag(("--algo",), required=True, choices=tuple(ALGORITHMS)),
    Flag(("--objective",), choices=tuple(k.value for k in ObjectiveKind)),
    Flag(("--epsilon",), help="rational like 1/2 ("
         + ", ".join(a for a, entry in ALGORITHMS.items() if entry.epsilon) + " only)"),
    Flag(("-i", "--instance"), required=True),
    _OUTPUT,
)

# keyed by the command's words: "generate coloring" is read from the first
# two words of a command line
COMMANDS = {
    "solve": Command(_cmd_solve, "run one algorithm on an instance file", _RUN_FLAGS),
    "verify": Command(_cmd_verify, "compare an algorithm against the oracle", _RUN_FLAGS),
    "generate coloring": Command(_emitter(_coloring), "emit the coloring gadget of a graph",
                                 (_VERTICES, _EDGES, _M, _OUTPUT)),
    "generate maxcut": Command(_emitter(_maxcut), "emit the max-cut gadget of a graph",
                               (_VERTICES, _EDGES, _OUTPUT)),
    "generate partition3": Command(_emitter(_partition3), "emit a three-way partition instance", (
        Flag(("--a",), _int_list, required=True, help='partition numbers like "1,1,1"'),
        _M,
        _OUTPUT,
    )),
    "generate unsplittable": Command(_emitter(_unsplittable), "emit an unsplittable matrix", (
        Flag(("--q",), int, 2),
        Flag(("--t",), int, 2),
        Flag(("--to-instance",), default=False, nargs=0, help="emit its instance instead"),
        Flag(("--eps-denominator",), int,
             help="weight of a row's job, default 100; with --to-instance only"),
        _OUTPUT,
    )),
    "generate random": Command(_emitter(_random), "emit a seeded random instance", (
        Flag(("--n",), int, 8),
        _M,
        Flag(("--K",), int, 2),
        Flag(("--w-max",), int, 9),
        _DENSITY,
        Flag(("--seed",), int, 0),
        _OUTPUT,
    )),
    "probe conjecture": Command(_emitter(_probe), "empirical disbalance probe", (
        *(Flag((name,), int, required=True)
          for name in ("--n", "--m", "--K", "--trials", "--seed")),
        _DENSITY,
        _OUTPUT,
    )),
    "balance equalize": Command(
        _cmd_balance,
        "equalize a schedule's disbalance",
        (
            Flag(("-i", "--instance"), required=True),
            Flag(("-s", "--schedule"), required=True),
            Flag(("--machines",), int, nargs=2, help="the two machines to equalize"),
            _OUTPUT,
        ),
    ),
    "bench": Command(_cmd_bench, "run the benchmark suite to CSV", (_OUTPUT,)),
}

_HELP = ("-h", "--help")


def _spec(flag: Flag) -> str:
    """How a flag is written: ``-i/--instance INSTANCE``."""
    return " ".join((flag.label, *[flag.dest.upper()] * flag.nargs))


def _usage(name: str | None) -> str:
    if name is None:
        return f"usage: scensched [-h] {{{','.join(COMMANDS)}}} ...\n"
    parts = [f"usage: scensched {name} [-h]"]
    parts += [_spec(f) if f.required else f"[{_spec(f)}]" for f in COMMANDS[name].flags]
    return " ".join(parts) + "\n"


def _help(name: str | None) -> str:
    """The -h text: usage, then one line per command or per argument."""
    if name is None:
        title = "Solvers and generators for scheduling under job-subset scenarios"
        heading = "commands (scensched COMMAND -h lists its arguments):"
        rows = [(cmd, COMMANDS[cmd].help) for cmd in COMMANDS]
    else:
        cmd = COMMANDS[name]
        title, heading = cmd.help, "arguments:"
        rows = [("-h/--help", "show this help and exit")]
        for flag in cmd.flags:
            notes = [flag.help] if flag.help else []
            if flag.choices:
                notes.append("one of " + ", ".join(map(str, flag.choices)))
            if flag.required:
                notes.append("required")
            elif flag.nargs and flag.default not in (None, ()):
                notes.append(f"default {flag.default}")
            if flag.type is int:
                notes.append("integer" if flag.nargs == 1 else "integers")
            rows.append((_spec(flag), "; ".join(notes)))
    width = max(len(label) for label, _ in rows) + 2
    lines = [f"  {label:<{width}}{text}".rstrip() for label, text in rows]
    return "\n".join((_usage(name), title, "", heading, *lines)) + "\n"


def _fail(name: str | None, reason: str) -> NoReturn:
    """Writes the usage line and the reason to stderr; exits 2."""
    prog = "scensched" if name is None else f"scensched {name}"
    sys.stderr.write(f"{_usage(name)}{prog}: error: {reason}\n")
    raise SystemExit(EXIT_CONTRACT)


def _convert(name: str, flag: Flag, text: str):
    try:
        value = flag.type(text)
    except ValueError:
        kind = flag.type.__name__.strip("_").replace("_", " ")
        _fail(name, f"argument {flag.label}: invalid {kind} value: {text!r}")
    if flag.choices and value not in flag.choices:
        _fail(name, f"argument {flag.label}: invalid choice: {value!r} "
                    f"(choose from {', '.join(map(repr, flag.choices))})")
    return value


def _parse(argv: list[str]):
    """Returns (handler, args) for a command line; ``args`` holds every flag
    of the command under its dest, at its default when not given.  The
    command is the first word, or else the first two words together.  Only
    exact flag names match, ``--flag=value`` is accepted, and the token after
    a flag is its value even when it starts with "-".  -h prints the help and
    exits 0; a malformed line exits 2."""
    if not argv:
        _fail(None, "the following arguments are required: command")
    if argv[0] in _HELP:
        _write(_help(None), None)
        raise SystemExit(EXIT_OK)
    words = 1 if argv[0] in COMMANDS else 2
    name, rest = " ".join(argv[:words]), argv[words:]
    if name not in COMMANDS or name.split() != argv[:words]:
        _fail(None, f"argument command: invalid choice: {name!r} "
                    f"(choose from {', '.join(map(repr, COMMANDS))})")
    cmd = COMMANDS[name]
    by_name = {n: flag for flag in cmd.flags for n in flag.names}
    values = {flag.dest: flag.default for flag in cmd.flags if not flag.required}
    pos = 0
    while pos < len(rest):
        token = rest[pos]
        pos += 1
        if token in _HELP:
            _write(_help(name), None)
            raise SystemExit(EXIT_OK)
        key, eq, inline = token.partition("=")
        flag = by_name.get(key)
        if flag is None:
            _fail(name, f"unrecognized argument: {key}")
        if eq:
            if flag.nargs != 1:
                _fail(name, f"argument {flag.label}: takes {flag.nargs or 'no'} values, "
                            "not one after '='")
            texts = [inline]
        else:
            texts = rest[pos:pos + flag.nargs]
            pos += flag.nargs
            if len(texts) < flag.nargs:
                _fail(name, f"argument {flag.label}: expected "
                            + ("one value" if flag.nargs == 1 else f"{flag.nargs} values"))
        if flag.nargs == 0:
            values[flag.dest] = True
        elif flag.nargs == 1:
            values[flag.dest] = _convert(name, flag, texts[0])
        else:
            values[flag.dest] = [_convert(name, flag, text) for text in texts]
    missing = [flag.label for flag in cmd.flags if flag.required and flag.dest not in values]
    if missing:
        _fail(name, "the following arguments are required: " + ", ".join(missing))
    return cmd.handler, SimpleNamespace(**values)


def main(argv=None) -> int:
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else list(argv))
        return handler(args)
    except GuardExceeded as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


def run() -> NoReturn:
    """The process entry: runs ``main``, flushes stdout and stderr, and ends
    the process at once with ``os._exit``, skipping interpreter teardown."""
    try:
        code = main()
    except SystemExit as exc:  # -h (0) or a malformed command line (2)
        code = exc.code
    for stream in (sys.stdout, sys.stderr):
        if stream is None:  # started with the stream closed
            continue
        try:
            stream.flush()
        except OSError as exc:  # a full disk or a closed pipe, reported as main does
            code = EXIT_CONTRACT
            if stream is sys.stdout and sys.stderr is not None:
                sys.stderr.write(f"error: {exc}\n")
    os._exit(code)


if __name__ == "__main__":
    run()
