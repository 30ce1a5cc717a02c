"""The hard-rung script rebuilds the rungs it names from ROADMAP.md's
notation: the same instances that BENCH_27.json records."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_rungs_rebuild_the_recorded_instances():
    spec = importlib.util.spec_from_file_location("rungs", ROOT / "tools" / "rungs.py")
    rungs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(rungs)
    recorded = json.loads((ROOT / "BENCH_27.json").read_text())["rungs"]
    assert [(r["rung"], r["objective"]) for r in recorded] == rungs.RUNGS
    for entry in recorded:
        inst = rungs.instance(entry["rung"])
        assert (inst.n, inst.m, inst.K) == (entry["n"], entry["m"], entry["K"])
        assert rungs.instance_hash(inst) == entry["instance"], entry["rung"]
