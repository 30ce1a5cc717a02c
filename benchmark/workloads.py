"""Workloads: seeded instance sets, the CLI operations run on them, and the
reference value each operation is checked against.

Three workloads run fixed pools of `gen_random` instances whose exact optima
are pinned in `pins.json` (written by `pin.py`); they are too costly to
recompute in set-up.  The run seed relabels every pool instance: it renumbers
the jobs and reorders the scenarios, which keeps every optimum and changes
the input the solvers see.

`cli-mix` builds small instances straight from the seed and computes its
references with the brute-force oracle during set-up.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Callable

from scensched import balance as bal
from scensched import generators as gen
from scensched.model import (
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
from scensched.oracle import brute_force

PINS = Path(__file__).with_name("pins.json")

# The oracle computes a reference live only when its canonical enumeration
# has at most this many leaves; `pin.py` uses the same cut-off.
ORACLE_BUDGET = 200_000

MINMAX = ObjectiveKind.MINMAX
MINAVG = ObjectiveKind.MINAVG


class Mismatch(Exception):
    """An operation's output failed its correctness check."""


# What a check raises on output it cannot accept; malformed records raise the
# others (json.JSONDecodeError is a ValueError).
CHECK_ERRORS = (Mismatch, KeyError, TypeError, ValueError)


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def oracle_assignments(n: int, m: int) -> int:
    """Leaves of the oracle's canonical enumeration: sum_{i<=m} S(n, i)."""
    return sum(stirling2(n, i) for i in range(1, min(n, m) + 1))


def oracle_value(inst: Instance, kind: ObjectiveKind) -> int:
    """Brute-force optimum.  The oracle's own n*log2(m) guard is a loose proxy
    for its work; the exact leaf count is what is bounded here."""
    if oracle_assignments(inst.n, inst.m) > ORACLE_BUDGET:
        raise ValueError(f"oracle enumeration too large for n={inst.n}, m={inst.m}")
    return brute_force(inst, kind, guard_bits=math.inf).best_value


# ---------------------------------------------------------------------------
# Operations and their checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One CLI invocation.  `check(exit_code, stdout)` raises Mismatch or
    returns the value/reference ratio of an approximate operation."""

    argv: tuple[str, ...]
    check: Callable[[int, str], float | None]


APPROX_BOUNDS = {
    "fptas": lambda inst, eps: 1 + Fraction(eps),
    "approx-minmax2": lambda inst, eps: Fraction(2),
    "approx-minavg": lambda inst, eps: Fraction(3, 2) - Fraction(1, 2 * inst.m),
}


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise Mismatch(msg)


def _load_record(code: int, out: str) -> dict:
    _expect(code == 0, f"exit code {code}, expected 0")
    return json.loads(out)


def _against_reference(inst, algo, eps, value, ref) -> float | None:
    """Exact algorithms must hit the reference; approximate ones its bound."""
    if algo not in APPROX_BOUNDS:
        _expect(value == ref, f"{algo}: value {value} != reference {ref}")
        return None
    bound = APPROX_BOUNDS[algo](inst, eps)
    if ref == 0:
        _expect(value == 0, f"{algo}: value {value} on a zero optimum")
        return 1.0
    ratio = Fraction(value, ref)
    _expect(ratio <= bound, f"{algo}: ratio {ratio} exceeds bound {bound}")
    return float(ratio)


def solve_op(path, inst, algo, kind, ref, eps=None) -> Op:
    argv = ["solve", "--algo", algo, "--objective", kind.value, "-i", str(path)]
    if eps:
        argv += ["--epsilon", eps]

    def check(code, out):
        rec = _load_record(code, out)
        _expect(rec["algorithm"] == algo and rec["objective"] == kind.value,
                "record names another algorithm or objective")
        sched = schedule_from_dict(inst, {"assignment": rec["assignment"]})
        cost = evaluate(inst, sched, kind)
        _expect(rec["value"] == cost.aggregate, "value disagrees with its assignment")
        _expect(rec["per_scenario"] == list(cost.per_scenario),
                "per_scenario disagrees with its assignment")
        if algo == "two-scenario":
            _expect(rec["per_scenario"] == [single_scenario_optimum(inst, k) for k in (0, 1)],
                    "two-scenario schedule misses a scenario optimum")
        return _against_reference(inst, algo, eps, rec["value"], ref)

    return Op(tuple(argv), check)


def verify_op(path, inst, algo, kind, ref, eps=None) -> Op:
    argv = ["verify", "--algo", algo, "--objective", kind.value, "-i", str(path)]
    if eps:
        argv += ["--epsilon", eps]

    def check(code, out):
        rec = _load_record(code, out)
        _expect(rec["oracle_value"] == ref, f"oracle_value {rec['oracle_value']} != {ref}")
        _expect(rec["ok"] is True, "verify reported ok=false")
        return _against_reference(inst, algo, eps, rec["value"], ref)

    return Op(tuple(argv), check)


def equal_doc_op(argv, expected: dict) -> Op:
    def check(code, out):
        _expect(_load_record(code, out) == expected, "output differs from the in-process result")
        return None

    return Op(tuple(argv), check)


def balance_op(inst_path, sched_path, inst, ref, machines=None) -> Op:
    argv = ["balance", "equalize", "-i", str(inst_path), "-s", str(sched_path)]
    if machines:
        argv += ["--machines", *map(str, machines)]

    def check(code, out):
        rec = _load_record(code, out)
        sched = schedule_from_dict(inst, rec["schedule"])
        after = evaluate(inst, sched, MINAVG).aggregate
        _expect(rec["objective_before"] == ref and rec["objective_after"] == after == ref,
                "equalization changed the optimal objective")
        _expect(rec["full_disbalance"] == disbalance(inst, sched).full_f,
                "full_disbalance disagrees with the schedule")
        return None

    return Op(tuple(argv), check)


def reject_op(argv) -> Op:
    def check(code, out):
        _expect(code == 2 and not out.strip(), f"exit code {code}, expected rejection (2)")
        return None

    return Op(tuple(argv), check)


# ---------------------------------------------------------------------------
# Pooled workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Family:
    """The gen_random instances of seeds 0..count-1 with these parameters."""

    name: str
    n: int
    m: int
    K: int
    w_max: int
    count: int

    def instance(self, pool_seed: int) -> Instance:
        return gen.gen_random(self.n, self.m, self.K, w_max=self.w_max, density=0.5,
                              seed=pool_seed)

    def params(self) -> dict:
        return {"n": self.n, "m": self.m, "K": self.K, "w_max": self.w_max,
                "density": "1/2", "count": self.count}


def _minmax_ops(path, inst, ref):
    return [
        solve_op(path, inst, "dp", MINMAX, ref["minmax"]),
        solve_op(path, inst, "dp", ObjectiveKind.REGRET_MAX, ref["regret-max"]),
        solve_op(path, inst, "fptas", MINMAX, ref["minmax"], eps="1/2"),
    ]


def _minavg_ops(path, inst, ref):
    return [
        solve_op(path, inst, "dp", MINAVG, ref["minavg"]),
        solve_op(path, inst, "dp", ObjectiveKind.REGRET_SUM, ref["regret-sum"]),
        solve_op(path, inst, "approx-minavg", MINAVG, ref["minavg"]),
    ]


def _unit_ops(path, inst, ref):
    ops = [
        solve_op(path, inst, algo, kind, ref[kind.value])
        for kind in (MINMAX, MINAVG)
        for algo in ("config", "dp")
    ]
    if inst.K == 2:
        ops.append(solve_op(path, inst, "two-scenario", MINMAX, ref["minmax"]))
    # The only approximate operation here; it gives approx_ratio_max a basis.
    ops.append(solve_op(path, inst, "approx-minavg", MINAVG, ref["minavg"]))
    return ops


@dataclass(frozen=True)
class PooledWorkload:
    families: tuple[Family, ...]
    objectives: tuple[str, ...]
    ops_for: Callable


POOLED = {
    # dp_minmax is the hot path; dp_minavg stays idle.
    "minmax-weighted": PooledWorkload(
        (Family("m3", 12, 3, 3, 9, count=5), Family("m2", 18, 2, 3, 9, count=5)),
        ("minmax", "regret-max"), _minmax_ops),
    # dp_minavg is the hot path; dp_minmax stays idle.
    "minavg-weighted": PooledWorkload(
        (Family("m3", 22, 3, 3, 9, count=5), Family("m2", 50, 2, 3, 9, count=5)),
        ("minavg", "regret-sum"), _minavg_ops),
    # dp_config and the general DPs on the same unit-weight inputs.
    "unit-config": PooledWorkload(
        (Family("m4k3", 10, 4, 3, 1, count=3), Family("m5k2", 16, 5, 2, 1, count=3),
         Family("m6k2", 15, 6, 2, 1, count=2)),
        ("minmax", "minavg"), _unit_ops),
}


def load_pins() -> dict:
    with open(PINS) as fh:
        return json.load(fh)


def relabel(doc: dict, rng: random.Random) -> dict:
    """The same instance with its jobs renumbered and its scenarios reordered.
    Every objective value is unchanged; the order of equal-weight jobs, and
    with it the solvers' state sets and witnesses, is not."""
    n = len(doc["weights"])
    new_id = list(range(n))
    rng.shuffle(new_id)
    weights = [0] * n
    for old, w in enumerate(doc["weights"]):
        weights[new_id[old]] = w
    scenarios = [sorted(new_id[j] for j in s) for s in doc["scenarios"]]
    rng.shuffle(scenarios)
    return {"m": doc["m"], "weights": weights, "scenarios": scenarios}


def build_pooled(workload: str, seed: int, work: Path, pins: dict) -> list[Op]:
    spec = POOLED[workload]
    per_instance: list[list[Op]] = []
    for fam in spec.families:
        fam_pins = pins["workloads"][workload][fam.name]
        if fam_pins["params"] != fam.params():
            raise RuntimeError(f"pins for {workload}/{fam.name} are stale; rerun pin.py")
        for entry in fam_pins["instances"]:
            base = fam.instance(entry["seed"])
            if instance_hash(base) != entry["hash"]:
                raise RuntimeError(f"{workload}/{fam.name} seed {entry['seed']}: "
                                   "generated instance differs from the pinned one")
            rng = random.Random(f"{workload}/{fam.name}/{entry['seed']}/{seed}")
            doc = relabel(instance_to_dict(base), rng)
            path = work / f"{fam.name}-{entry['seed']}.json"
            path.write_text(json.dumps(doc))
            ref = {obj: entry["ref"][obj] for obj in spec.objectives}
            per_instance.append(spec.ops_for(path, instance_from_dict(doc), ref))
    # Kind-major order: an instance's operations cost about the same, and
    # spreading them over the pass keeps one slow moment of a shared machine
    # from moving all of them, and with them the median and the tail.
    width = max(map(len, per_instance))
    return [ops[k] for k in range(width) for ops in per_instance if k < len(ops)]


# ---------------------------------------------------------------------------
# cli-mix: many small instances from every generator family
# ---------------------------------------------------------------------------

CLI_MIX_INSTANCES = 8
WIDE_K = (2, 3, 2)  # scenario counts of the wide-machine instances


def _random_graph(rng: random.Random) -> gen.Graph:
    """4 to 6 vertices and at least three edges, so the gadget has K >= 3."""
    v = rng.randint(4, 6)
    edges = {(a, b) for a in range(v) for b in range(a + 1, v) if rng.random() < 0.35}
    edges |= {(0, 1), (1, 2), (2, 3)} if len(edges) < 3 else set()
    return gen.Graph(v, tuple(sorted(edges)))


def _edge_spec(g: gen.Graph) -> str:
    return ",".join(f"{a}-{b}" for a, b in g.edges)


# Slot i takes family i % 5; its shape (m, K, unit weights) is fixed by the
# slot, so every seed runs the same number of operations of each kind.
RANDOM_SHAPE = (8, 2, 2, 9)  # n, m, K, w_max


def _small_instance(rng: random.Random, i: int) -> Instance:
    family, variant = i % 5, i // 5
    if family == 0:
        return gen.gen_coloring(_random_graph(rng), 2 + variant % 2)
    if family == 1:
        return gen.gen_maxcut(_random_graph(rng))
    if family == 2:
        return gen.gen_partition3([rng.randint(1, 6)], 2 + variant % 2)
    if family == 3:
        return gen.matrix_to_instance(gen.gen_unsplittable(2, 2), rng.randint(3, 30))
    n, m, K, w_max = RANDOM_SHAPE
    return gen.gen_random(n, m, K, w_max=w_max, density=0.5, seed=rng.randrange(10**6))


def _verify_algos(inst: Instance):
    yield "dp", MINMAX, None
    yield "fptas", MINMAX, "1/2"
    yield "approx-minavg", MINAVG, None
    if inst.m == 2:
        yield "approx-minmax2", MINMAX, None
    if inst.K == 2:
        yield "two-scenario", MINMAX, None
    if all(w == 1 for w in inst.weights) and len(set(inst.job_scenarios) - {()}) <= 8:
        yield "config", MINMAX, None


def _write(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc))
    return path


def _probe_doc(report) -> dict:
    return {"n": report.n, "m": report.m, "K": report.K, "trials": report.trials,
            "seed": report.seed, "per_trial": list(report.per_trial),
            "max_observed": report.max_observed,
            "achieving_trials": list(report.achieving_trials)}


def build_cli_mix(seed: int, work: Path) -> list[Op]:
    rng = random.Random(f"cli-mix/{seed}")
    ops: list[Op] = []
    k3_path = None
    for i in range(CLI_MIX_INSTANCES):
        inst = _small_instance(rng, i)
        path = _write(work / f"small-{i}.json", instance_to_dict(inst))
        refs = {kind: oracle_value(inst, kind) for kind in (MINMAX, MINAVG)}
        for algo, kind, eps in _verify_algos(inst):
            ops.append(verify_op(path, inst, algo, kind, refs[kind], eps))
        if inst.K == 3:
            k3_path = path

    wide_path = None
    for i, K in enumerate(WIDE_K):
        inst = gen.gen_random(rng.randint(3, 5), rng.randint(100, 200), K,
                              w_max=9, density=0.5, seed=rng.randrange(10**6))
        wide_path = _write(work / f"wide-{i}.json", instance_to_dict(inst))
        refs = {kind: oracle_value(inst, kind) for kind in (MINMAX, MINAVG)}
        ops.append(solve_op(wide_path, inst, "dp", MINMAX, refs[MINMAX]))
        ops.append(solve_op(wide_path, inst, "approx-minavg", MINAVG, refs[MINAVG]))
        if inst.K == 2:
            ops.append(solve_op(wide_path, inst, "two-scenario", MINMAX, refs[MINMAX]))

    for i, (m, K, machines) in enumerate(((2, 2, (0, 1)), (3, 3, None))):
        inst = gen.gen_random(rng.randint(6, 8), m, K, w_max=1, density=0.5,
                              seed=rng.randrange(10**6))
        best = brute_force(inst, MINAVG, guard_bits=math.inf)
        inst_path = _write(work / f"unit-{i}.json", instance_to_dict(inst))
        sched_path = _write(work / f"unit-{i}-sched.json",
                            schedule_to_dict(inst, best.best_schedule))
        ops.append(balance_op(inst_path, sched_path, inst, best.best_value, machines))

    for _ in range(2):
        n, trials, s = rng.randint(5, 7), 3, rng.randrange(1000)
        report = bal.conjecture_probe(n, 2, 2, trials, s)
        argv = ["probe", "conjecture", "--n", str(n), "--m", "2", "--K", "2",
                "--trials", str(trials), "--seed", str(s)]
        ops.append(equal_doc_op(argv, _probe_doc(report)))

    g = _random_graph(rng)
    m = rng.choice((2, 3))
    a = [rng.randint(1, 9) for _ in range(2)]
    d = rng.randint(3, 30)
    n, s = rng.randint(6, 12), rng.randrange(10**6)
    matrix = gen.gen_unsplittable(2, 3)
    ops += [
        equal_doc_op(["generate", "coloring", "--vertices", str(g.n_vertices),
                      "--edges", _edge_spec(g), "--m", str(m)],
                     instance_to_dict(gen.gen_coloring(g, m))),
        equal_doc_op(["generate", "maxcut", "--vertices", str(g.n_vertices),
                      "--edges", _edge_spec(g)],
                     instance_to_dict(gen.gen_maxcut(g))),
        equal_doc_op(["generate", "partition3", "--a", ",".join(map(str, a)), "--m", str(m)],
                     instance_to_dict(gen.gen_partition3(a, m))),
        equal_doc_op(["generate", "unsplittable", "--q", "2", "--t", "3"],
                     {"rows": [list(r) for r in matrix.rows],
                      "column_sums": list(matrix.column_sums())}),
        equal_doc_op(["generate", "unsplittable", "--q", "2", "--t", "2", "--to-instance",
                      "--eps-denominator", str(d)],
                     instance_to_dict(gen.matrix_to_instance(gen.gen_unsplittable(2, 2), d))),
        equal_doc_op(["generate", "random", "--n", str(n), "--m", "3", "--K", "3",
                      "--w-max", "9", "--seed", str(s)],
                     instance_to_dict(gen.gen_random(n, 3, 3, w_max=9, density=0.5, seed=s))),
    ]

    bad_path = _write(work / "bad-index.json", {"m": 2, "weights": [3, 2, 1],
                                                "scenarios": [[0, 3]]})
    ops += [
        reject_op(["solve", "--algo", "two-scenario", "-i", str(k3_path)]),
        reject_op(["solve", "--algo", "dp", "-i", str(bad_path)]),
        reject_op(["solve", "--algo", "approx-minmax2", "-i", str(wide_path)]),
        reject_op(["solve", "--algo", "fptas", "-i", str(k3_path)]),
    ]
    return ops


WORKLOADS = ("minmax-weighted", "minavg-weighted", "unit-config", "cli-mix")


def build(workload: str, seed: int, work: Path) -> list[Op]:
    """Generate the workload's instances from `seed` into `work`, load the
    references, and return the operations in run order."""
    work.mkdir(parents=True, exist_ok=True)
    if workload == "cli-mix":
        return build_cli_mix(seed, work)
    return build_pooled(workload, seed, work, load_pins())
