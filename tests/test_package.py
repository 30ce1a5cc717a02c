"""The package surface: what a process imports, the lazy package root, and
the immutable value types."""

import copy
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from importlib import import_module
from pathlib import Path

import pytest

import scensched
from scensched.balance import conjecture_probe, equalize_two, hilbert_basis
from scensched.dp_minavg import solve_minavg
from scensched.dp_minmax import fptas
from scensched.generators import Graph, gen_unsplittable
from scensched.model import (
    Instance,
    ObjectiveKind,
    Schedule,
    disbalance,
    evaluate,
    make_instance,
)
from scensched.oracle import brute_force

ROOT = Path(__file__).resolve().parents[1]

# Runs in a fresh interpreter; prints the watched modules loaded after the
# import and after each CLI step, counting only modules that were not loaded
# before the first import.
IMPORT_PROBE = """
import json, sys
before = set(sys.modules)
watched = {watched!r}

def loaded():
    return sorted(m for m in watched if m in sys.modules and m not in before)

import scensched.cli
report = {{"import": loaded(), "codes": []}}
for step, argv in {steps!r}:
    report["codes"].append(scensched.cli.main(argv))
    report[step] = loaded()
print(json.dumps(report))
"""

# hashlib loads OpenSSL; fractions loads decimal; argparse loads gettext
# (with locale).
HEAVY = ["dataclasses", "hashlib", "_hashlib", "fractions", "decimal"]
PARSER = ["argparse", "gettext", "locale"]

WATCHED = [
    *HEAVY,
    *PARSER,
    "csv",
    *(f"scensched.{name}" for name in (
        "balance", "generators", "oracle", "dp_minmax", "dp_minavg", "dp_config",
        "two_scenario", "approx",
    )),
]


def _fresh_python(code: str):
    """The JSON that ``code`` prints, run in a fresh interpreter on this
    tree's ``src``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return json.loads(proc.stdout)


def test_oracle_imports_no_solver():
    # the reference for every solver, and its root-bound stop rests on
    # model.scenario_optima alone
    loaded = _fresh_python(
        "import json, sys; import scensched.oracle; print(json.dumps(sorted(sys.modules)))")
    assert "scensched.oracle" in loaded
    for name in ("dp_minavg", "dp_minmax", "dp_config", "approx", "two_scenario", "balance",
                 "generators"):
        assert f"scensched.{name}" not in loaded


def test_cli_process_imports_only_what_its_command_runs(tmp_path):
    instance = tmp_path / "inst.json"
    instance.write_text(json.dumps({"m": 2, "weights": [3, 2, 1], "scenarios": [[0, 1], [1, 2]]}))
    unit = tmp_path / "unit.json"
    unit.write_text(json.dumps({"m": 2, "weights": [1] * 4, "scenarios": [[0, 1, 2, 3]]}))
    schedule = tmp_path / "sched.json"
    schedule.write_text(json.dumps({"assignment": [0, 0, 0, 1]}))
    out = ["-o", str(tmp_path / "out.json")]
    io_args = ["-i", str(instance), *out]
    steps = [
        ("minavg", ["solve", "--algo", "dp", "--objective", "minavg", *io_args]),
        ("minmax", ["solve", "--algo", "dp", "--objective", "minmax", *io_args]),
        ("coloring", ["generate", "coloring", "--vertices", "3", "--edges", "0-1,1-2", *out]),
        ("equalize", ["balance", "equalize", "-i", str(unit), "-s", str(schedule), *out]),
        ("verify", ["verify", "--algo", "dp", *io_args]),
        ("fptas", ["solve", "--algo", "fptas", "--epsilon", "1/2", *io_args]),
    ]
    report = _fresh_python(IMPORT_PROBE.format(watched=WATCHED, steps=steps))
    assert report["import"] == []
    assert report["codes"] == [0] * len(steps)
    assert "scensched.dp_minavg" in report["minavg"]
    assert "scensched.approx" in report["minavg"]
    for name in ("scensched.dp_minmax", "scensched.oracle", "scensched.balance", *HEAVY):
        assert name not in report["minavg"]
    assert "scensched.dp_minmax" in report["minmax"]
    for name in ("scensched.oracle", "scensched.balance", *HEAVY):
        assert name not in report["minmax"]
    # neither command builds a Fraction
    assert "scensched.generators" in report["coloring"]
    assert "scensched.balance" in report["equalize"]
    assert "scensched.oracle" not in report["equalize"]
    for step in ("coloring", "equalize"):
        assert "fractions" not in report[step] and "decimal" not in report[step]
    # verify writes its ratio from integers: only an --epsilon needs fractions
    assert "scensched.oracle" in report["verify"]
    for name in HEAVY:
        assert name not in report["verify"]
    # fptas parses its epsilon as a Fraction: the probe sees the module load
    assert "fractions" in report["fptas"]
    for step, _ in steps:
        for name in PARSER:
            assert name not in report[step]


def test_dir_lists_every_public_name():
    assert set(scensched.__all__) <= set(dir(scensched))


def test_every_public_name_is_the_defining_modules_object():
    assert len(scensched.__all__) == len(set(scensched.__all__))
    for name in scensched.__all__:
        value = getattr(scensched, name)
        if isinstance(value, type(scensched)):
            assert value is import_module(f"scensched.{name}")
        else:
            assert value is getattr(import_module(value.__module__), name)
            assert value.__module__.startswith("scensched.")
    with pytest.raises(AttributeError):
        scensched.no_such_name
    with pytest.raises(ImportError):
        from scensched import no_such_name  # noqa: F401


def test_package_root_sees_rebinding_of_a_submodule_name(monkeypatch):
    import scensched.dp_minavg as dp_minavg

    def replacement(*args, **kwargs):
        raise AssertionError("not called")

    monkeypatch.setattr(dp_minavg, "solve_minavg", replacement)
    assert scensched.solve_minavg is replacement
    monkeypatch.undo()
    assert scensched.solve_minavg is dp_minavg.solve_minavg
    assert "solve_minavg" not in vars(scensched)


_PAIR = make_instance(2, [2, 1], [[0, 1]])
# an unknown objective kind must not pass for the sum objective, which
# scores Schedule((0, 0, 1)) 10 where min-max scores it 7
_TWO = make_instance(2, [3, 2, 1], [[0, 1], [1, 2]])
# not unit weights, though every weight but the last is 1
_ZERO_LAST = make_instance(2, [1, 1, 0], [[0, 1, 2]])


@pytest.mark.parametrize("call, error, message", [
    (lambda: Instance(1, (), (frozenset(),), ()), ValueError, "need at least one job"),
    (lambda: evaluate(_PAIR, Schedule((0,)), ObjectiveKind.MINMAX), ValueError,
     "schedule length does not match instance"),
    (lambda: disbalance(_PAIR, Schedule((0, 1, 0))), ValueError,
     "schedule length does not match instance"),
    (lambda: scensched.single_scenario_optimum(_PAIR, 1), IndexError,
     "scenario index 1 out of range"),
    (lambda: Instance(2, (1, 1), ([0, 0],), (0, 1)), ValueError,
     "scenario 0 must be a frozenset, got list"),
    (lambda: Instance(2, (1, 1), ({0},), (0, 1)), ValueError,
     "scenario 0 must be a frozenset, got set"),
    (lambda: Instance(2, [1, 1], (frozenset({0}),), (0, 1)), ValueError,
     "weights must be a tuple, got list"),
    (lambda: Instance(2, (1, 1), [frozenset({0})], (0, 1)), ValueError,
     "scenarios must be a tuple, got list"),
    (lambda: Instance(2, (1, 1), (frozenset({0}),), [0, 1]), ValueError,
     "original_order must be a tuple, got list"),
    (lambda: Graph(0, ()), ValueError, "graph needs at least one vertex"),
    (lambda: Graph(3, [(0, 1), (1, 2)]), ValueError, "edges must be a tuple, got list"),
    (lambda: Graph(3, ((0, 1), [1, 2])), ValueError, "edge [1, 2] is not a pair tuple"),
    (lambda: Graph(3, ((0, 1, 2),)), ValueError, "edge (0, 1, 2) is not a pair tuple"),
    (lambda: scensched.ScenarioMatrix(()), ValueError, "matrix needs at least one row"),
    (lambda: scensched.ScenarioMatrix(((1, 0), (1,))), ValueError, "ragged matrix"),
    (lambda: scensched.ScenarioMatrix([[1, 0], [0, 1]]), ValueError,
     "rows must be a tuple, got list"),
    (lambda: scensched.ScenarioMatrix(((1, 0), [0, 1])), ValueError, "row [0, 1] is not a tuple"),
    (lambda: gen_unsplittable(1, 2), ValueError, "need q >= 2 and t >= 2"),
    (lambda: fptas(make_instance(2, [0, 0], [[0, 1]]), Fraction(1, 2)), ValueError,
     "largest weight must be positive"),
    (lambda: scensched.profile_index({2}, 2), ValueError, "scenario 2 out of range for K=2"),
    (lambda: scensched.profile_index({True}, 2), ValueError, "scenario True is not an integer"),
    (lambda: scensched.single_scenario_optimum(_PAIR, True), ValueError,
     "scenario index True is not an integer"),
    (lambda: scensched.evaluate_scenario(_PAIR, Schedule((0, 1)), True), ValueError,
     "scenario index True is not an integer"),
    (lambda: scensched.evaluate_scenario(_PAIR, Schedule((0, 1)), 1.0), ValueError,
     "scenario index 1.0 is not an integer"),
    (lambda: hilbert_basis(0), ValueError, "K must be at least 1"),
    (lambda: hilbert_basis(True), ValueError, "K must be an integer"),
    (lambda: hilbert_basis(2.0), ValueError, "K must be an integer"),
    (lambda: evaluate(_TWO, Schedule((0, 0, 1)), "nope"), ValueError,
     "unknown objective kind 'nope'"),
    (lambda: evaluate(_TWO, Schedule((0, 0, 1)), 42), ValueError, "unknown objective kind 42"),
    (lambda: brute_force(_TWO, None), ValueError, "unknown objective kind None"),
    (lambda: scensched.dp_minavg._walk(_TWO, "nope"), ValueError,
     "unknown objective kind 'nope'"),
    (lambda: scensched.solve_pseudo(_TWO, "nope"), ValueError, "unknown objective kind 'nope'"),
    (lambda: scensched.solve_config(_TWO, "nope"), ValueError, "unknown objective kind 'nope'"),
    (lambda: scensched.solve_pseudo(_TWO, "minavg"), ValueError,
     "solve_pseudo handles minmax and regret-max, not minavg"),
    (lambda: make_instance(2, ["a", 1], [[0]]), ValueError,
     "weight of job 0 must be a nonnegative integer"),
    (lambda: make_instance(2, [1, None], [[0]]), ValueError,
     "weight of job 1 must be a nonnegative integer"),
    (lambda: make_instance(2, [5, 1, -1, 7], [[0]]), ValueError,
     "weight of job 2 must be a nonnegative integer"),
    (lambda: Instance(2, (1, -1), (frozenset({0}),), (0, 1)), ValueError,
     "weight of job 1 must be a nonnegative integer"),
    (lambda: Instance(2, (True, 1), (frozenset({0}),), (0, 1)), ValueError,
     "weight of job 0 must be a nonnegative integer"),
    (lambda: fptas(_PAIR, 0.1), ValueError, "eps must be an int, a Fraction or a string, not 0.1"),
    (lambda: fptas(_PAIR, True), ValueError,
     "eps must be an int, a Fraction or a string, not True"),
    (lambda: fptas(_PAIR, "1e-100000000"), ValueError,
     "the exponent of '1e-100000000' is past 4300"),
    (lambda: scensched.solve_config(_ZERO_LAST), ValueError,
     "configuration solver requires unit weights"),
    (lambda: equalize_two(_ZERO_LAST, Schedule((0, 0, 1)), 0, 1), ValueError,
     "balance procedures require unit weights"),
    (lambda: scensched.equalize_all(_ZERO_LAST, Schedule((0, 0, 1))), ValueError,
     "balance procedures require unit weights"),
    (lambda: scensched.profile_round_robin(_ZERO_LAST, Schedule((0, 0, 1)), 0, 1), ValueError,
     "balance procedures require unit weights"),
], ids=["instance-without-jobs", "evaluate-short-schedule", "disbalance-long-schedule",
        "scenario-optimum-index", "instance-list-scenario", "instance-set-scenario",
        "instance-list-weights", "instance-list-scenarios", "instance-list-order",
        "graph-without-vertices", "graph-list-edges", "graph-list-edge", "graph-triple-edge",
        "empty-matrix", "ragged-matrix", "matrix-list-rows", "matrix-list-row",
        "unsplittable-q-1", "fptas-zero-weights", "profile-scenario-range", "profile-scenario-bool",
        "scenario-optimum-index-bool", "evaluate-scenario-index-bool",
        "evaluate-scenario-index-float", "hilbert-basis-k-0",
        "hilbert-basis-k-bool", "hilbert-basis-k-float", "evaluate-kind-str", "evaluate-kind-int",
        "brute-force-kind-none", "walk-kind-str", "solve-pseudo-kind-str",
        "solve-config-kind-str", "solve-pseudo-value-str", "weight-str", "weight-none",
        "weight-negative", "instance-weight-negative", "instance-weight-bool", "fptas-eps-float",
        "fptas-eps-bool", "fptas-eps-exponent", "solve-config-zero-weight",
        "equalize-two-zero-weight", "equalize-all-zero-weight", "round-robin-zero-weight"])
def test_contract_checks_raise_their_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_readme_quick_start_runs(capsys):
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == "(2, 2)\n"


def _instance():
    return make_instance(2, [1, 3], [[0, 1], [1]])


def test_instance_equality_and_hash_use_the_constructor_fields():
    inst = _instance()
    same = Instance(inst.m, inst.weights, inst.scenarios, inst.original_order)
    assert same == inst and same is not inst
    assert hash(same) == hash(inst)
    assert hash(inst) == hash((inst.m, inst.weights, inst.scenarios, inst.original_order))
    assert inst != Instance(3, inst.weights, inst.scenarios, inst.original_order)
    assert inst != (inst.m, inst.weights, inst.scenarios, inst.original_order)


def test_instance_repr_is_unchanged():
    assert repr(_instance()) == (
        "Instance(m=2, weights=(3, 1), scenarios=(frozenset({0, 1}), frozenset({0})), "
        "original_order=(1, 0))"
    )
    assert repr(Graph(3, ((0, 1), (1, 2)))) == "Graph(n_vertices=3, edges=((0, 1), (1, 2)))"


def test_instance_validates_on_construction():
    inst = _instance()
    with pytest.raises(ValueError, match="positive integer"):
        Instance(True, inst.weights, inst.scenarios, inst.original_order)
    with pytest.raises(ValueError, match="non-increasing"):
        Instance(2, (1, 3), inst.scenarios, inst.original_order)
    with pytest.raises(ValueError, match="permutation"):
        Instance(2, inst.weights, inst.scenarios, (0, 0))
    with pytest.raises(ValueError, match="invalid job index"):
        Instance(2, inst.weights, (frozenset({2}),), inst.original_order)


@pytest.mark.parametrize("duplicate", [
    copy.copy,
    copy.deepcopy,
    lambda obj: pickle.loads(pickle.dumps(obj)),
], ids=["copy", "deepcopy", "pickle"])
def test_instance_copies_are_equal_with_the_same_lookups(duplicate):
    inst = _instance()
    twin = duplicate(inst)
    assert twin == inst and hash(twin) == hash(inst)
    assert twin.scenario_jobs == inst.scenario_jobs == ((0, 1), (0,))
    assert twin.job_scenarios == inst.job_scenarios == ((0, 1), (0,))


def _values():
    """One object of every value type, from the calls that return them."""
    inst = _instance()
    result = solve_minavg(inst)
    unit = make_instance(2, [1] * 4, [[0, 1, 2, 3]])
    _, report = equalize_two(unit, Schedule((0, 0, 1, 1)), 0, 1)
    basis = hilbert_basis(1)
    return [
        inst,
        result,
        result.schedule,
        evaluate(inst, result.schedule, ObjectiveKind.MINMAX),
        disbalance(inst, result.schedule),
        brute_force(inst, ObjectiveKind.MINAVG),
        fptas(inst, Fraction(1, 2)),
        basis,
        basis.elements[0],
        report,
        conjecture_probe(4, 2, 1, 1, 0),
        Graph(3, ((0, 1), (1, 2))),
        gen_unsplittable(2, 2),
    ]


@pytest.mark.parametrize("value", _values(), ids=lambda v: type(v).__name__)
def test_value_types_are_immutable_and_copyable(value):
    names = list(value._fields)
    if isinstance(value, Instance):
        names += ["scenario_jobs", "job_scenarios"]
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value
