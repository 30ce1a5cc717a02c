"""The hard-rung script rebuilds the rungs it names from ROADMAP.md's
notation, the same instances that BENCH_27.json records, and names the rungs
where a parent and a change tree disagree."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_rungs():
    spec = importlib.util.spec_from_file_location("rungs", ROOT / "tools" / "rungs.py")
    rungs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(rungs)
    return rungs


def test_rungs_rebuild_the_recorded_instances():
    rungs = _load_rungs()
    recorded = json.loads((ROOT / "BENCH_27.json").read_text())["rungs"]
    assert [(r["rung"], r["objective"]) for r in recorded] == rungs.RUNGS
    for entry in recorded:
        inst = rungs.instance(entry["rung"])
        assert (inst.n, inst.m, inst.K) == (entry["n"], entry["m"], entry["K"])
        assert rungs.instance_hash(inst) == entry["instance"], entry["rung"]


def test_differ_names_the_rungs_whose_exit_or_value_disagree():
    solved = {"exit": 0, "wall_s": 0.1, "value": 5, "time_ms": 3.0, "instance": "ab"}
    slower = dict(solved, wall_s=0.9, time_ms=40.0)
    entries = [
        {"rung": "p3-36", "objective": "minmax", "parent": [solved] * 3,
         "change": [slower, solved, slower]},
        {"rung": "unspl", "objective": "minavg", "parent": [solved] * 3,
         "change": [dict(solved, value=6)] * 3},
        {"rung": "r(40,3,3,1)", "objective": "minmax",
         "parent": [{"exit": 2, "wall_s": 0.1, "stderr": "error"}] * 3,
         "change": [{"exit": 3, "wall_s": 0.1, "stderr": "guard exceeded"}] * 3},
    ]
    rungs = _load_rungs()
    assert rungs.differ(entries[:1]) == []
    assert rungs.differ(entries) == ["unspl minavg", "r(40,3,3,1) minmax"]


def test_differ_reads_every_run_not_only_the_median():
    # the median-wall run of each tree agrees; only the slowest change run
    # and the fastest parent run differ
    solved = {"exit": 0, "wall_s": 0.1, "value": 5}
    entries = [
        {"rung": "unspl", "objective": "minmax", "parent": [solved] * 3,
         "change": [solved, solved, dict(solved, wall_s=0.9, value=6)]},
        {"rung": "p3-36", "objective": "minavg",
         "parent": [dict(solved, wall_s=0.01, exit="timeout", value=None), solved, solved],
         "change": [solved] * 3},
    ]
    assert _load_rungs().differ(entries) == ["unspl minmax", "p3-36 minavg"]
