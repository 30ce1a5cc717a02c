"""Writes pins.json: the pooled workloads' instances and their exact optima.

    PYTHONPATH=src python3 benchmark/pin.py

For every instance of every pooled workload it records the instance hash, the reference value of
each objective the workload checks, and the solver that produced it.  A
reference comes from the brute-force oracle wherever its enumeration has at
most ORACLE_BUDGET leaves, with the exact DP required to agree; otherwise
from the exact DP (and, on unit weights, the configuration solver, required
to agree).

References are pinned from one commit and must not be regenerated from a
commit whose solvers are under test; rerun this only when a pool family
changes, from the sources of the commit named in the file.
"""

from __future__ import annotations

import json
import sys
import time

from scensched.dp_config import solve_config
from scensched.dp_minavg import solve_minavg, solve_regret_sum
from scensched.dp_minmax import solve_pseudo
from scensched.model import ObjectiveKind, instance_hash

from measure import git_commit
from workloads import ORACLE_BUDGET, PINS, POOLED, oracle_assignments, oracle_value

DP_SOLVERS = {
    "minmax": ("dp_minmax.solve_pseudo",
               lambda inst: solve_pseudo(inst, ObjectiveKind.MINMAX).value),
    "regret-max": ("dp_minmax.solve_pseudo",
                   lambda inst: solve_pseudo(inst, ObjectiveKind.REGRET_MAX).value),
    "minavg": ("dp_minavg.solve_minavg", lambda inst: solve_minavg(inst).value),
    "regret-sum": ("dp_minavg.solve_regret_sum", lambda inst: solve_regret_sum(inst).value),
}


def reference(inst, objective: str) -> tuple[int, str]:
    solver, dp = DP_SOLVERS[objective]
    value = dp(inst)
    if oracle_assignments(inst.n, inst.m) <= ORACLE_BUDGET:
        oracle = oracle_value(inst, ObjectiveKind(objective))
        if oracle != value:
            raise RuntimeError(f"{solver} gives {value}, the oracle {oracle}")
        solver = "oracle.brute_force"
    if all(w == 1 for w in inst.weights) and objective in ("minmax", "minavg"):
        config = solve_config(inst, ObjectiveKind(objective)).value
        if config != value:
            raise RuntimeError(f"{solver} gives {value}, dp_config {config}")
    return value, solver


def pin_family(spec, fam) -> dict:
    entries = []
    for seed in range(fam.count):
        inst = fam.instance(seed)
        refs = {obj: reference(inst, obj) for obj in spec.objectives}
        entries.append({
            "seed": seed,
            "hash": instance_hash(inst),
            "ref": {obj: value for obj, (value, _) in refs.items()},
            "ref_solver": {obj: solver for obj, (_, solver) in refs.items()},
        })
        print(f"  {fam.name} seed {seed}: {refs}", file=sys.stderr)
    return {"params": fam.params(), "instances": entries}


def main() -> int:
    pins = {"commit": git_commit(), "python": sys.version.split()[0], "workloads": {}}
    for name, spec in POOLED.items():
        start = time.perf_counter()
        pins["workloads"][name] = {fam.name: pin_family(spec, fam) for fam in spec.families}
        print(f"{name}: {time.perf_counter() - start:.1f} s", file=sys.stderr)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
