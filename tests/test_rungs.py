"""The hard-rung script rebuilds the rungs it names from ROADMAP.md's
notation, the same instances that BENCH_27.json records; every rung solves
to the optimum the script pins; and the script names the rungs where a run
of either tree misses its pin."""

import importlib.util
import json
import time
from pathlib import Path

import pytest

from scensched.dp_minavg import _walk
from scensched.model import ObjectiveKind, evaluate

ROOT = Path(__file__).resolve().parents[1]


_spec = importlib.util.spec_from_file_location("rungs", ROOT / "tools" / "rungs.py")
rungs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(rungs)


def test_rungs_rebuild_the_recorded_instances():
    recorded = json.loads((ROOT / "BENCH_27.json").read_text())["rungs"]
    assert [(r["rung"], r["objective"]) for r in recorded] == [
        (rung, objective) for rung, objective, _ in rungs.RUNGS]
    for entry in recorded:
        inst = rungs.instance(entry["rung"])
        assert (inst.n, inst.m, inst.K) == (entry["n"], entry["m"], entry["K"])
        assert rungs.instance_hash(inst) == entry["instance"], entry["rung"]


@pytest.mark.parametrize("rung, objective, optimum", rungs.RUNGS,
                         ids=[f"{rung}-{objective}".replace(" ", "-")
                              for rung, objective, _ in rungs.RUNGS])
def test_rung_solves_to_its_pinned_optimum(rung, objective, optimum):
    # the descent's value is the pin, and its witness evaluates to it; no
    # solve takes 0.6 s (Python 3.11.7, 2 vCPU), so 10 s flags a search gone
    # wrong
    inst = rungs.instance(rung)
    kind = ObjectiveKind(objective)
    start = time.perf_counter()
    res = _walk(inst, kind)
    elapsed = time.perf_counter() - start
    assert res.value == optimum == evaluate(inst, res.schedule, kind).aggregate
    assert elapsed < 10, f"{rung} {objective} took {elapsed:.1f} s"


def test_differ_names_the_rungs_whose_exit_or_value_disagree():
    solved = {"exit": 0, "wall_s": 0.1, "value": 5, "time_ms": 3.0, "instance": "ab"}
    slower = dict(solved, wall_s=0.9, time_ms=40.0)
    entries = [
        {"rung": "p3-36", "objective": "minmax", "optimum": 5, "parent": [solved] * 3,
         "change": [slower, solved, slower]},
        {"rung": "unspl", "objective": "minavg", "optimum": 5, "parent": [solved] * 3,
         "change": [dict(solved, value=6)] * 3},
        {"rung": "r(40,3,3,1)", "objective": "minmax", "optimum": 5,
         "parent": [{"exit": 2, "wall_s": 0.1, "stderr": "error"}] * 3,
         "change": [{"exit": 3, "wall_s": 0.1, "stderr": "guard exceeded"}] * 3},
    ]
    assert rungs.differ(entries[:1]) == []
    assert rungs.differ(entries) == ["unspl minavg", "r(40,3,3,1) minmax"]
    # without --parent there is only the change list, which is held to the
    # pin as well
    assert rungs.differ([{"rung": "unspl", "objective": "minmax", "optimum": 5,
                          "change": [solved] * 3}]) == []
    assert rungs.differ([{"rung": "unspl", "objective": "minmax", "optimum": 4,
                          "change": [solved] * 3}]) == ["unspl minmax"]


def test_differ_reads_every_run_not_only_the_median():
    # the median-wall run of each tree agrees; only the slowest change run
    # and the fastest parent run differ
    solved = {"exit": 0, "wall_s": 0.1, "value": 5}
    entries = [
        {"rung": "unspl", "objective": "minmax", "optimum": 5, "parent": [solved] * 3,
         "change": [solved, solved, dict(solved, wall_s=0.9, value=6)]},
        {"rung": "p3-36", "objective": "minavg", "optimum": 5,
         "parent": [dict(solved, wall_s=0.01, exit="timeout", value=None), solved, solved],
         "change": [solved] * 3},
    ]
    assert rungs.differ(entries) == ["unspl minmax", "p3-36 minavg"]
