import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from scensched import cli, dp_minavg
from scensched.cli import main
from scensched.balance import equalize_all
from scensched.generators import (
    Graph,
    gen_coloring,
    gen_maxcut,
    gen_unsplittable,
    matrix_to_instance,
)
from scensched.model import ObjectiveKind, Schedule, instance_to_dict, make_instance


@pytest.fixture
def five_unit(tmp_path):
    inst = make_instance(2, [1] * 5, [[0, 1, 2, 3, 4]])
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance_to_dict(inst)))
    return path


ROOT = Path(__file__).resolve().parents[1]
PROCESS_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
PROCESS_ENV["PYTHONPATH"] = str(ROOT / "src")


def _process(argv, **kwargs):
    """Runs ``python -m scensched.cli`` on argv as a process of its own."""
    kwargs = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "env": PROCESS_ENV,
              "timeout": 60, **kwargs}
    return subprocess.run([sys.executable, "-m", "scensched.cli", *argv], text=True, **kwargs)


def _write_instance(tmp_path, inst, name="i.json"):
    path = tmp_path / name
    path.write_text(json.dumps(instance_to_dict(inst)))
    return path


def test_solve_dp_minmax_value(five_unit, tmp_path):
    out = tmp_path / "run.json"
    code = main(["solve", "--algo", "dp", "--objective", "minmax",
                 "-i", str(five_unit), "-o", str(out)])
    assert code == 0
    record = json.loads(out.read_text())
    assert record["value"] == 9
    assert record["per_scenario"] == [9]


_CLOCK_PROBE = """
import json, sys, time
from types import SimpleNamespace
from scensched import cli

loaded = []

def perf_counter():
    loaded.append(sorted(name for name in sys.modules if name.startswith("scensched.")))
    return time.perf_counter()

cli.time = SimpleNamespace(perf_counter=perf_counter)
code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "loaded": loaded[0]}))
"""


@pytest.mark.parametrize("argv, module", [
    pytest.param(argv, module, id=" ".join(argv)) for argv, module in [
        (["--algo", "dp", "--objective", "minavg"], "dp_minavg"),
        (["--algo", "dp", "--objective", "minmax"], "dp_minmax"),
        (["--algo", "fptas", "--epsilon", "1/2"], "dp_minmax"),
        (["--algo", "config"], "dp_config"),
        (["--algo", "two-scenario"], "two_scenario"),
        (["--algo", "approx-minmax2"], "approx"),
        (["--algo", "approx-minavg"], "approx"),
    ]
])
def test_solve_clock_starts_after_the_solver_import(tmp_path, argv, module):
    # time_ms times the solve alone: the solver's module is imported when
    # the table entry is looked up, before the clock's first read
    path = _write_instance(tmp_path, make_instance(2, [1, 1, 1], [[0, 1], [1, 2]]))
    argv = ["solve", *argv, "-i", str(path), "-o", str(tmp_path / "run.json")]
    proc = subprocess.run([sys.executable, "-c", _CLOCK_PROBE, *argv], stdout=subprocess.PIPE,
                          env=PROCESS_ENV, text=True, timeout=60, check=True)
    probe = json.loads(proc.stdout)
    assert probe["code"] == 0
    assert f"scensched.{module}" in probe["loaded"], probe["loaded"]


def test_solve_two_scenario_contract_violation(tmp_path, capsys):
    inst = make_instance(2, [1, 1, 1], [[0], [1], [2]])
    path = _write_instance(tmp_path, inst)
    code = main(["solve", "--algo", "two-scenario", "-i", str(path)])
    assert code == 2
    assert "requires K=2" in capsys.readouterr().err


def test_solve_missing_file_is_contract_error(tmp_path):
    assert main(["solve", "--algo", "dp", "-i", str(tmp_path / "nope.json")]) == 2


def test_solve_config_requires_unit_weights(tmp_path, capsys):
    inst = make_instance(2, [3, 2, 1], [[0, 1, 2]])
    path = _write_instance(tmp_path, inst)
    assert main(["solve", "--algo", "config", "-i", str(path)]) == 2
    assert "unit weights" in capsys.readouterr().err


def test_solve_coercible_instance_is_contract_error(tmp_path, capsys):
    path = tmp_path / "i.json"
    path.write_text(json.dumps({"m": 2.9, "weights": [1, 1, 1], "scenarios": [[0, 1, 2]]}))
    assert main(["solve", "--algo", "dp", "-i", str(path)]) == 2
    assert "positive integer" in capsys.readouterr().err


def test_fptas_within_factor_of_verify(five_unit, tmp_path):
    run = tmp_path / "fptas.json"
    ver = tmp_path / "verify.json"
    assert main(["solve", "--algo", "fptas", "--epsilon", "1/2",
                 "-i", str(five_unit), "-o", str(run)]) == 0
    assert main(["verify", "--algo", "dp", "--objective", "minmax",
                 "-i", str(five_unit), "-o", str(ver)]) == 0
    fptas_value = json.loads(run.read_text())["value"]
    oracle_value = json.loads(ver.read_text())["oracle_value"]
    assert fptas_value * 2 <= 3 * oracle_value


def test_verify_exact_and_approx(five_unit, tmp_path):
    out = tmp_path / "v.json"
    assert main(["verify", "--algo", "dp", "--objective", "minavg",
                 "-i", str(five_unit), "-o", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["ok"] and report["value"] == report["oracle_value"]
    assert main(["verify", "--algo", "approx-minavg", "-i", str(five_unit),
                 "-o", str(out)]) == 0
    assert main(["verify", "--algo", "approx-minmax2", "-i", str(five_unit),
                 "-o", str(out)]) == 0


def test_verify_two_scenario_reports_per_scenario_optima(tmp_path):
    inst = make_instance(2, [3, 2, 1], [[0, 1], [1, 2]])
    path = _write_instance(tmp_path, inst)
    out = tmp_path / "v.json"
    assert main(["verify", "--algo", "two-scenario", "-i", str(path), "-o", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["per_scenario"] == report["per_scenario_optima"]


def test_verify_checks_the_oracle_guard_before_the_solver_runs(tmp_path, monkeypatch, capsys):
    # 33 jobs on two machines: 2^32 canonical assignments > 2^21, so verify
    # must stop at the oracle guard without calling the solver
    import scensched.dp_minmax

    def solver_called(*args, **kwargs):
        raise AssertionError("the solver ran before the oracle guard")

    monkeypatch.setattr(scensched.dp_minmax, "solve_pseudo", solver_called)
    path = _write_instance(tmp_path, make_instance(2, [1] * 33, [list(range(33))]))
    assert main(["verify", "--algo", "dp", "--objective", "minmax", "-i", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("guard exceeded: oracle guard: more than 2^21 canonical assignments "
                   "for n=33, m=2\n")


def test_generate_unsplittable_matrix(tmp_path):
    out = tmp_path / "m.json"
    assert main(["generate", "unsplittable", "--q", "2", "--t", "2", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["rows"] == [[1, 0, 1, 1], [0, 1, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]
    assert doc["column_sums"] == [3, 3, 3, 3]


@pytest.mark.parametrize("denominator", [None, 7])
def test_generate_unsplittable_to_instance(tmp_path, denominator):
    out = tmp_path / "u.json"
    flags = [] if denominator is None else ["--eps-denominator", str(denominator)]
    assert main(["generate", "unsplittable", "--q", "2", "--t", "2", "--to-instance",
                 *flags, "-o", str(out)]) == 0
    inst = matrix_to_instance(gen_unsplittable(2, 2), denominator or 100)
    assert json.loads(out.read_text()) == instance_to_dict(inst)


def test_generate_maxcut(tmp_path):
    out = tmp_path / "cut.json"
    assert main(["generate", "maxcut", "--vertices", "4", "--edges", "0-1,1-2,2-3",
                 "-o", str(out)]) == 0
    expected = gen_maxcut(Graph(4, ((0, 1), (1, 2), (2, 3))))
    assert json.loads(out.read_text()) == instance_to_dict(expected)


def test_generate_coloring_without_edges(capsys):
    assert main(["generate", "coloring", "--vertices", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == instance_to_dict(gen_coloring(Graph(3, ()), 2))
    assert doc["scenarios"] == [[]]


def test_generate_unsplittable_past_the_row_guard_exits_3(capsys):
    assert main(["generate", "unsplittable", "--q", "80", "--t", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("guard exceeded: ")


def test_generate_random_past_the_membership_guard_exits_3(capsys):
    assert main(["generate", "random", "--n", "500000", "--m", "2", "--K", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "guard exceeded: random instance guard: n*K = 1000000 memberships exceed 100000\n"
    )


def _limit_address_space():
    # 800 MB: an unguarded generator dies with MemoryError here, not after
    # taking the machine's memory
    resource.setrlimit(resource.RLIMIT_AS, (800_000 << 10, 800_000 << 10))


@pytest.mark.parametrize("argv, message", [
    (["coloring", "--vertices", "200000000"],
     "graph instance guard: 200000000 jobs and 0 memberships exceed 100000"),
    (["partition3", "--a", "1,1,1", "--m", "100000000"],
     "partition3 instance guard: 600000006 jobs and 1800000000 memberships exceed 100000"),
    # inside the membership guard (7200 jobs), but the largest weight would
    # have about 4775 digits, past what the interpreter writes as text
    (["partition3", "--a", ",".join(["1"] * 1200), "--m", "2"],
     "partition3 weight guard: the largest weight has about 4775 digits, more than 4300"),
], ids=["coloring", "partition3", "partition3-weight-digits"])
def test_generate_past_the_size_guard_exits_3_before_building(argv, message):
    proc = _process(["generate", *argv], preexec_fn=_limit_address_space, timeout=20)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == f"guard exceeded: {message}\n"


@pytest.mark.parametrize("argv", [
    ["solve", "--algo", "dp", "-i", "{deep}"],
    ["verify", "--algo", "dp", "-i", "{deep}"],
    ["balance", "equalize", "-i", "{deep}", "-s", "{schedule}"],
    ["balance", "equalize", "-i", "{instance}", "-s", "{deep}"],
], ids=["solve-instance", "verify-instance", "balance-instance", "balance-schedule"])
def test_a_deeply_nested_file_exits_2_without_a_traceback(tmp_path, argv):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 2000 + "]" * 2000)  # 4 KB, past the recursion limit
    paths = {"deep": deep, "instance": _write_instance(tmp_path, make_instance(2, [1], [[0]])),
             "schedule": tmp_path / "s.json"}
    paths["schedule"].write_text(json.dumps({"assignment": [0]}))
    proc = _process([arg.format(**paths) for arg in argv])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {deep}: JSON nested too deeply\n"


def test_generate_coloring_and_solve(tmp_path):
    inst_path = tmp_path / "tri.json"
    assert main(["generate", "coloring", "--vertices", "3",
                 "--edges", "0-1,1-2,0-2", "--m", "2", "-o", str(inst_path)]) == 0
    out = tmp_path / "run.json"
    assert main(["solve", "--algo", "dp", "--objective", "minmax",
                 "-i", str(inst_path), "-o", str(out)]) == 0
    assert json.loads(out.read_text())["value"] == 3


def test_generate_partition3(tmp_path):
    out = tmp_path / "p3.json"
    assert main(["generate", "partition3", "--a", "1,1,1", "--m", "2",
                 "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["weights"]) == 18


@pytest.mark.parametrize("argv, flag", [
    (["maxcut", "--vertices", "3", "--edges", "0-1,1-2", "--m", "5"], "--m"),
    (["random", "--a", "1,2"], "--a"),
    (["random", "--to-instance"], "--to-instance"),
    (["coloring", "--vertices", "3", "--seed", "1"], "--seed"),
    (["partition3", "--a", "1,1,1", "--density", "1/3"], "--density"),
    (["unsplittable", "--n", "4"], "--n"),
    (["unsplittable", "--q", "2", "--t", "2", "--eps-denominator", "7"], "--eps-denominator"),
    # each value below is the default of the flag where another family reads it
    (["coloring", "--vertices", "3", "--n", "8"], "--n"),
    (["maxcut", "--vertices", "3", "--edges", "0-1", "--m", "2"], "--m"),
    (["random", "--q", "2"], "--q"),
], ids=["maxcut-m", "random-a", "random-to-instance", "coloring-seed", "partition3-density",
        "unsplittable-n", "unsplittable-eps-denominator-without-to-instance",
        "coloring-n-at-default", "maxcut-m-at-default", "random-q-at-default"])
def test_generate_rejects_a_flag_its_family_does_not_read(argv, flag, capsys):
    name = f"generate {argv[0]}"
    if flag == "--eps-denominator":  # the family reads it, with --to-instance only
        assert main(["generate", *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {name} does not read {flag}\n")
        return
    with pytest.raises(SystemExit) as exc:
        main(["generate", *argv])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    usage, error = err.splitlines()
    assert out == "" and usage.startswith(f"usage: scensched {name} [-h] ")
    assert error == f"scensched {name}: error: unrecognized argument: {flag}"


def test_probe_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["probe", "conjecture", "--n", "6", "--m", "2", "--K", "2",
            "--trials", "8", "--seed", "7"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_text() == b.read_text()


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_probe_without_trials_is_contract_error(trials, capsys):
    argv = ["probe", "conjecture", "--n", "6", "--m", "2", "--K", "2",
            "--trials", trials, "--seed", "7"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == f"error: trials must be at least 1, got {trials}\n"


def test_balance_equalize_two(tmp_path):
    inst = make_instance(2, [1] * 8, [list(range(8))])
    inst_path = _write_instance(tmp_path, inst)
    sched_path = tmp_path / "s.json"
    sched_path.write_text(json.dumps({"assignment": [0, 1, 0, 1, 0, 1, 0, 1]}))
    out = tmp_path / "bal.json"
    assert main(["balance", "equalize", "-i", str(inst_path), "-s", str(sched_path),
                 "--machines", "0", "1", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["objective_before"] == doc["objective_after"]
    assert doc["report"]["likely_nonoptimal"] is False


def test_balance_equalize_all_machines(tmp_path):
    inst = make_instance(3, [1] * 24, [list(range(24))])
    inst_path = _write_instance(tmp_path, inst)
    sched_path = tmp_path / "s.json"
    sched_path.write_text(json.dumps({"assignment": [0] * 24}))
    out = tmp_path / "bal.json"
    assert main(["balance", "equalize", "-i", str(inst_path), "-s", str(sched_path),
                 "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    expected = equalize_all(inst, Schedule((0,) * 24))
    assert expected != Schedule((0,) * 24)
    assert doc["schedule"] == {"assignment": list(expected.assignment)}
    assert doc["report"] == {"mode": "all-machines"}
    assert doc["objective_before"] > doc["objective_after"]


def test_balance_equalize_flags_nonoptimal_input_with_empty_stderr(tmp_path):
    # a separate process, so that a Python warning would reach its stderr
    inst_path = _write_instance(tmp_path, make_instance(2, [1] * 8, [list(range(8))]))
    sched_path = tmp_path / "s.json"
    sched_path.write_text(json.dumps({"assignment": [0] * 8}))
    proc = _process(["balance", "equalize", "-i", str(inst_path), "-s", str(sched_path),
                     "--machines", "0", "1"])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["report"]["likely_nonoptimal"] is True


def test_balance_reports_an_equalization_that_cannot_settle(tmp_path):
    # a separate process: the potential check was an AssertionError, a
    # traceback and exit 1
    inst_path = tmp_path / "i.json"
    assert main(["generate", "random", "--n", "280", "--m", "5", "--K", "2", "--w-max", "1",
                 "--seed", "13", "-o", str(inst_path)]) == 0
    sched_path = tmp_path / "s.json"
    sched_path.write_text(json.dumps({"assignment": [0] * 280}))
    proc = _process(["balance", "equalize", "-i", str(inst_path), "-s", str(sched_path)])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: equalizing machines 0 and 2 left the potential at 1854 "
                           "(was 1854): pairwise equalization cannot settle this schedule\n")


@pytest.mark.parametrize("machines", [[], ["--machines", "0", "1"]], ids=["all", "pair"])
def test_guard_override_keeps_the_hilbert_basis_guard(tmp_path, machines):
    # a separate process with a timeout, since a K = 4 basis would not
    # finish; SCHED_GUARD_OVERRIDE=1 is set to show that no environment
    # variable lifts a limit
    inst = make_instance(2, [1] * 4, [[0], [1], [2], [3]])
    inst_path = _write_instance(tmp_path, inst)
    sched_path = tmp_path / "s.json"
    sched_path.write_text(json.dumps({"assignment": [0] * 4}))
    proc = _process(["balance", "equalize", "-i", str(inst_path), "-s", str(sched_path),
                     *machines], env={**PROCESS_ENV, "SCHED_GUARD_OVERRIDE": "1"}, timeout=20)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "guard exceeded: Hilbert basis guard: K=4 exceeds 3\n"


def test_malformed_member_message_does_not_depend_on_the_hash_seed(tmp_path):
    path = tmp_path / "i.json"
    path.write_text(json.dumps({"m": 2, "weights": [1, 1, 1, 1],
                                "scenarios": [["0", "1", "2", "3"]]}))
    errors = set()
    for seed in range(4):
        proc = _process(["solve", "--algo", "dp", "-i", str(path)],
                        env={**PROCESS_ENV, "PYTHONHASHSEED": str(seed)})
        assert (proc.returncode, proc.stdout) == (2, "")
        errors.add(proc.stderr)
    assert errors == {"error: scenario member '0' is not a job index in 0..3\n"}


@pytest.mark.parametrize("assignment", [[True, False, True], [0.5, 1, 0], ["0", 1, 0],
                                        [None, 1, 0]],
                         ids=["bools", "float", "string", "null"])
def test_balance_rejects_a_schedule_of_non_machines(tmp_path, capsys, assignment):
    inst_path = _write_instance(tmp_path, make_instance(2, [1] * 3, [[0, 1, 2]]))
    sched_path = tmp_path / "s.json"
    sched_path.write_text(json.dumps({"assignment": assignment}))
    assert main(["balance", "equalize", "-i", str(inst_path), "-s", str(sched_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1


def test_bench_default_suite(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", "-o", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header == ["instance", "n", "m", "K", "algo", "objective", "value",
                      "oracle_value", "ratio", "time_ms", "full_disbalance"]
    assert len(lines) > 10


def _strip_volatile(doc):
    doc = dict(doc)
    doc.pop("time_ms", None)
    return doc


def test_solve_rerun_is_deterministic(five_unit, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for algo, objective in (("dp", "minmax"), ("dp", "minavg"),
                            ("config", "minmax"), ("approx-minavg", "minavg")):
        for out in (a, b):
            assert main(["solve", "--algo", algo, "--objective", objective,
                         "-i", str(five_unit), "-o", str(out)]) == 0
        da = _strip_volatile(json.loads(a.read_text()))
        db = _strip_volatile(json.loads(b.read_text()))
        assert da == db


def test_generate_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["generate", "random", "--n", "7", "--m", "3", "--K", "2",
            "--w-max", "9", "--density", "1/2", "--seed", "13"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_text() == b.read_text()


SUPPORTED_PAIRS = {
    "two-scenario": {"minmax", "minavg"},
    "dp": {kind.value for kind in ObjectiveKind},
    "fptas": {"minmax"},
    "config": {"minmax", "minavg"},
    "approx-minmax2": {"minmax"},
    "approx-minavg": {"minavg"},
}


@pytest.fixture
def k2_unit(tmp_path):
    return _write_instance(tmp_path, make_instance(2, [1] * 4, [[0, 1, 2], [1, 2, 3]]))


def _solve_argv(algo, path, *extra):
    argv = ["solve", "--algo", algo, "-i", str(path), *extra]
    return argv + ["--epsilon", "1/2"] if algo == "fptas" else argv


@pytest.mark.parametrize("kind", list(ObjectiveKind), ids=lambda k: k.value)
@pytest.mark.parametrize("algo", sorted(SUPPORTED_PAIRS))
def test_algorithm_objective_pairing(k2_unit, algo, kind, capsys):
    code = main(_solve_argv(algo, k2_unit, "--objective", kind.value))
    assert code == (0 if kind.value in SUPPORTED_PAIRS[algo] else 2)
    if code == 2:
        assert not capsys.readouterr().out


@pytest.mark.parametrize("algo", sorted(SUPPORTED_PAIRS))
def test_default_objective(k2_unit, tmp_path, algo):
    out = tmp_path / "run.json"
    assert main(_solve_argv(algo, k2_unit, "-o", str(out))) == 0
    expected = "minavg" if algo == "approx-minavg" else "minmax"
    assert json.loads(out.read_text())["objective"] == expected


@pytest.mark.parametrize("argv", [
    ["solve", "--algo", "fptas", "--epsilon", "1/0"],
    ["verify", "--algo", "fptas", "--epsilon", "1/0"],
    ["generate", "random", "--density", "1/0"],
    ["probe", "conjecture", "--n", "4", "--m", "2", "--K", "2", "--trials", "1",
     "--seed", "0", "--density", "1/0"],
], ids=["solve", "verify", "generate", "probe"])
def test_zero_denominator_flag_is_contract_error(five_unit, argv, capsys):
    if argv[0] in ("solve", "verify"):  # --epsilon is read by the handler
        assert main(argv + ["-i", str(five_unit)]) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        return
    with pytest.raises(SystemExit) as exc:  # --density is converted as it is parsed
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.splitlines()[1].endswith("argument --density: invalid density value: '1/0'")


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("algo", sorted(set(SUPPORTED_PAIRS) - {"fptas"}))
def test_epsilon_rejected_where_unused(k2_unit, command, algo, capsys):
    assert main([command, "--algo", algo, "--epsilon", "1/2", "-i", str(k2_unit)]) == 2
    assert "takes no --epsilon" in capsys.readouterr().err


def test_fptas_without_epsilon_is_contract_error(five_unit, capsys):
    assert main(["solve", "--algo", "fptas", "-i", str(five_unit)]) == 2
    assert "requires --epsilon" in capsys.readouterr().err


@pytest.mark.parametrize("epsilon, reason", [
    ("1e-5000", "the exponent of '1e-5000' is past 4300"),
    ("1e5000", "the exponent of '1e5000' is past 4300"),
    ("1e-100000000", "the exponent of '1e-100000000' is past 4300"),
    ("1e-4300", "'1e-4300' has more than 4300 digits in its numerator plus denominator"),
    # 4300 digits, but verify's bound 1 + epsilon would have 4301
    pytest.param("9" * 4300, f"'{'9' * 4300}' has more than 4300 digits in its numerator "
                 "plus denominator", id="4300-nines"),
])
def test_epsilon_past_the_digit_bound_exits_2_before_fptas(five_unit, monkeypatch, epsilon,
                                                          reason, capsys):
    # Fraction builds 10**exponent exactly, and the record could not write a
    # denominator past 4300 digits, so the bound is checked before the oracle
    # or fptas runs
    import scensched.dp_minmax
    import scensched.oracle

    def solver_called(*args, **kwargs):
        raise AssertionError("fptas or the oracle ran on an epsilon past the digit bound")

    monkeypatch.setattr(scensched.dp_minmax, "fptas", solver_called)
    monkeypatch.setattr(scensched.oracle, "brute_force", solver_called)
    for command in ("solve", "verify"):
        argv = [command, "--algo", "fptas", "--epsilon", epsilon, "-i", str(five_unit)]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {reason}\n")


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_values_past_the_digit_bound_exit_3_before_any_work(tmp_path, monkeypatch, command,
                                                            capsys):
    # each weight has 4300 digits, but K*w_1*n(n+1)/2, which bounds the
    # values a record holds, has 4301: the guard fires before the oracle or
    # the solver runs, not after with the interpreter's int-to-text error
    import scensched.dp_minmax
    import scensched.oracle

    def called(*args, **kwargs):
        raise AssertionError("the oracle or the solver ran past the value guard")

    monkeypatch.setattr(scensched.dp_minmax, "solve_pseudo", called)
    monkeypatch.setattr(scensched.oracle, "brute_force", called)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"m": 2, "weights": [9 * 10**4299] * 2, "scenarios": [[0, 1]]}))
    assert main([command, "--algo", "dp", "-i", str(path)]) == 3
    assert capsys.readouterr() == ("", "guard exceeded: value guard: K*w_1*n(n+1)/2 (w_1 the "
                                   "largest weight) has more than MAX_WEIGHT_DIGITS = 4300 "
                                   "digits\n")


def test_verify_checks_its_bound_before_any_work(tmp_path, monkeypatch, capsys):
    # approx-minavg's bound (3m - 1)/(2m) reads m, which the value guard does
    # not.  At m = 5*10**4299 + 1, 3m - 1 has 4301 digits, but the bound in
    # lowest terms, (3m - 1)/2 over m, has 4300 over 4300 and is written; at
    # m = 9*10**4299 it has 4301 over 4301, and verify stops before the
    # oracle or the solver runs, not after with the interpreter's int-to-text
    # error.  solve writes no bound and exits 0 on both.
    import scensched.approx
    import scensched.oracle

    at, past = tmp_path / "at.json", tmp_path / "past.json"
    for path, m in ((at, 5 * 10**4299 + 1), (past, 9 * 10**4299)):
        path.write_text(json.dumps({"m": m, "weights": [3, 2, 1], "scenarios": [[0, 1], [1, 2]]}))
        assert main(["solve", "--algo", "approx-minavg", "-i", str(path)]) == 0
    capsys.readouterr()
    out = tmp_path / "v.json"
    assert main(["verify", "--algo", "approx-minavg", "-i", str(at), "-o", str(out)]) == 0
    assert json.loads(out.read_text())["bound"] == f"{75 * 10**4298 + 1}/{5 * 10**4299 + 1}"

    def called(*args, **kwargs):
        raise AssertionError("the oracle or the solver ran past the bound guard")

    monkeypatch.setattr(scensched.approx, "minavg_derandomized", called)
    monkeypatch.setattr(scensched.oracle, "brute_force", called)
    assert main(["verify", "--algo", "approx-minavg", "-i", str(past)]) == 3
    assert capsys.readouterr() == ("", "guard exceeded: bound guard: the certified ratio in "
                                   "lowest terms has a numerator or denominator of more than "
                                   "MAX_WEIGHT_DIGITS = 4300 digits\n")


def test_a_value_off_the_oracle_exits_1(five_unit, tmp_path, monkeypatch):
    # dp's sum solver one above the optimum: verify writes "ok": false, and
    # bench writes every row of the good run before it exits 1
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    assert main(["bench", "-o", str(good)]) == 0
    shipped = dp_minavg.solve_minavg

    def one_above(inst):
        res = shipped(inst)
        return res._replace(value=res.value + 1)

    monkeypatch.setattr(dp_minavg, "solve_minavg", one_above)
    out = tmp_path / "v.json"
    assert main(["verify", "--algo", "dp", "--objective", "minavg", "-i", str(five_unit),
                 "-o", str(out)]) == 1
    report = json.loads(out.read_text())
    assert (report["ok"], report["value"]) == (False, report["oracle_value"] + 1)
    assert main(["bench", "-o", str(bad)]) == 1
    good, bad = ([line.split(",") for line in p.read_text().splitlines()] for p in (good, bad))
    assert [row[:6] for row in bad] == [row[:6] for row in good]
    off = [row for row in bad if row[4:6] == ["dp", "minavg"]]
    assert off and all(int(row[6]) == int(row[7]) + 1 for row in off)


def test_epsilon_at_the_digit_bound_writes_its_record(five_unit, tmp_path):
    # 10**4299 has 4300 digits, the most an int is written with as text
    out = tmp_path / "run.json"
    assert main(["solve", "--algo", "fptas", "--epsilon", "1e-4299", "-i", str(five_unit),
                 "-o", str(out)]) == 0
    assert json.loads(out.read_text())["params"] == {"epsilon": "1/1" + "0" * 4299}


@pytest.mark.parametrize("env", [{}, {"SCHED_GUARD_OVERRIDE": "1"}], ids=["unset", "1"])
def test_guard_override_changes_no_limit(tmp_path, env):
    # the package reads no environment, so SCHED_GUARD_OVERRIDE=1 leaves the
    # oracle bits and the search states at their shipped values
    env = {**PROCESS_ENV, **env}
    proc = subprocess.run(
        [sys.executable, "-c", "import json; from scensched.model import GUARD_BITS, MAX_STATES; "
         "print(json.dumps([GUARD_BITS, MAX_STATES]))"],
        stdout=subprocess.PIPE, env=env, text=True, timeout=60, check=True)
    assert json.loads(proc.stdout) == [21, 2_000_000]
    # 23 jobs on two machines: 2^22 canonical assignments, past 2^21
    path = tmp_path / "n23.json"
    assert main(["generate", "random", "--n", "23", "--m", "2", "--K", "2", "--seed", "0",
                 "-o", str(path)]) == 0
    guarded = _process(["verify", "--algo", "dp", "-i", str(path)], env=env)
    assert (guarded.returncode, guarded.stdout) == (3, "")
    assert guarded.stderr == ("guard exceeded: oracle guard: more than 2^21 canonical "
                              "assignments for n=23, m=2\n")


def _one_gib_of_memory():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def test_huge_m_runs_like_a_thousand_machines(tmp_path):
    # three jobs leave every machine past the third idle, so 10**20 machines
    # give the values of 1000; the process is capped at 1 GiB and 10 s, since
    # a list of per-machine counts would exhaust the memory
    jobs = {"weights": [3, 2, 2], "scenarios": [[0, 1], [1, 2]]}
    fields = ("value", "per_scenario", "assignment", "disbalance")
    outputs = {}
    for m in (1000, 10**20):
        path = tmp_path / f"m{m}.json"
        path.write_text(json.dumps({"m": m, **jobs}))
        runs = [["solve", "--algo", "dp", "--objective", kind.value] for kind in ObjectiveKind]
        runs += [["solve", "--algo", "approx-minavg"], ["solve", "--algo", "two-scenario"],
                 ["verify", "--algo", "dp"]]
        for argv in runs:
            proc = _process([*argv, "-i", str(path)], timeout=10,
                            preexec_fn=_one_gib_of_memory)
            assert (proc.returncode, proc.stderr) == (0, ""), argv
            doc = json.loads(proc.stdout)
            if argv[0] == "solve":
                doc = {f: doc[f] for f in fields}
            if argv[-1] == "two-scenario":
                # it places the jobs of both scenarios from machine m - 1 down,
                # so those labels are compared as counted from the end
                doc["assignment"] = [a if a < 3 else a - m for a in doc["assignment"]]
            outputs.setdefault(" ".join(argv), []).append(doc)
    for argv, (narrow, wide) in outputs.items():
        assert wide == narrow, argv


def test_huge_m_equalizes_like_a_thousand_machines(tmp_path):
    # twelve unit jobs of one scenario piled on machine 0 pass the K=1
    # threshold of 8, so equalize_all runs a round against the first idle
    # machine; capped at 1 GiB and 10 s like the test above
    schedule = tmp_path / "zero.json"
    schedule.write_text(json.dumps({"assignment": [0] * 12}))
    outputs = []
    for m in (1000, 10**20):
        path = tmp_path / f"m{m}.json"
        path.write_text(json.dumps({"m": m, "weights": [1] * 12, "scenarios": [list(range(12))]}))
        proc = _process(["balance", "equalize", "-i", str(path), "-s", str(schedule)],
                        timeout=10, preexec_fn=_one_gib_of_memory)
        assert (proc.returncode, proc.stderr) == (0, ""), m
        outputs.append(json.loads(proc.stdout))
    narrow, wide = outputs
    assert wide == narrow
    assert narrow["objective_after"] < narrow["objective_before"]


# generate random flags of the instances below
_WIDE = ["--n", "20000", "--m", "20000", "--K", "3", "--seed", "1"]
_PAIR = ["--n", "20000", "--m", "2", "--K", "3", "--w-max", "1"]
_AT_GUARD = ["--n", "22", "--m", "2", "--K", "3", "--w-max", "1", "--seed", "2"]


@pytest.mark.parametrize("instance, argv, limit", [
    # the greedy scans the distinct count rows, not the machines, and the
    # greedy schedule meets the root bound, so both dp descents stop before
    # their first step
    (_WIDE, ["solve", "--algo", "approx-minavg"], 10),
    (_WIDE, ["solve", "--algo", "dp", "--objective", "minavg"], 10),
    (_WIDE, ["solve", "--algo", "dp", "--objective", "minmax"], 10),
    # equalize_two reads one side sequence per profile, not one job at a time
    (_PAIR, ["balance", "equalize", "--machines", "0", "1", "-s", "ZERO"], 10),
    # 22 jobs on 2 machines have 2^21 canonical assignments, exactly the oracle guard
    (_AT_GUARD, ["verify", "--algo", "dp", "--objective", "minmax"], 60),
    (_AT_GUARD, ["verify", "--algo", "dp", "--objective", "minavg"], 60),
], ids=["approx-minavg-n20000-m20000", "dp-minavg-n20000-m20000", "dp-minmax-n20000-m20000",
        "equalize-pair-n20000", "verify-minmax-at-the-oracle-guard",
        "verify-minavg-at-the-oracle-guard"])
def test_process_finishes_within_its_time_limit(tmp_path, instance, argv, limit):
    path = tmp_path / "i.json"
    assert main(["generate", "random", *instance, "-o", str(path)]) == 0
    zero = tmp_path / "zero.json"  # every job on machine 0
    zero.write_text(json.dumps({"assignment": [0] * int(instance[1])}))
    proc = _process([*(str(zero) if a == "ZERO" else a for a in argv), "-i", str(path)],
                    timeout=limit)
    assert (proc.returncode, proc.stderr) == (0, "")
    json.loads(proc.stdout)


@pytest.mark.parametrize("argv, cap", [pytest.param(argv, cap, id=" ".join(argv)) for argv, cap in [
    (["--algo", "dp", "--objective", "minmax"], 2),
    (["--algo", "dp", "--objective", "minavg"], 6),
    (["--algo", "dp", "--objective", "regret-max"], 0),
    (["--algo", "dp", "--objective", "regret-sum"], 0),
    (["--algo", "config", "--objective", "minmax"], 2),
    (["--algo", "config", "--objective", "minavg"], 6),
    (["--algo", "fptas", "--epsilon", "1/2"], 2),
]])
def test_dp_state_guard_exits_3(tmp_path, monkeypatch, argv, cap, capsys):
    # the triangle gadget gen_coloring(triangle, 2): no schedule meets every
    # scenario optimum, and the greedy misses the root bound by one, so the
    # descent runs at the root bound (the cap) and proves more than two states
    # dead (fptas at 1/2 solves the instance unrounded)
    path = _write_instance(tmp_path, make_instance(2, [1, 1, 1], [[0, 1], [1, 2], [0, 2]]))
    monkeypatch.setattr(dp_minavg, "MAX_STATES", 2)
    assert main(["solve", *argv, "-i", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("guard exceeded: count-matrix search guard: more than MAX_STATES=2 states "
                   f"proved dead at cap {cap}\n")


def _sample(flag):
    """(argv tokens, parsed value) of one value for ``flag``, off its default
    where the flag allows another value."""
    if flag.nargs == 0:
        return [], True
    if flag.choices:
        return [flag.choices[-1]], flag.choices[-1]
    if flag.type is int:
        values = [7, 8][:flag.nargs]
        return [str(v) for v in values], values if flag.nargs == 2 else values[0]
    text = {"edges": "0-1", "a": "1,2"}.get(flag.dest, "1/3")
    return [text], flag.type(text)


def _command(argv):
    """The COMMANDS name that argv starts with, or None."""
    return next((name for name in cli.COMMANDS if name.split() == argv[:len(name.split())]), None)


def _flag_cases():
    """One case per first command word and flag form, so ``generate --m``
    covers every generate family that lists --m."""
    cases = {}
    for name, cmd in cli.COMMANDS.items():
        word = name.split()[0]
        for flag in cmd.flags:
            for option in flag.names:
                for equals in (False, True) if flag.nargs == 1 else (False,):
                    form = f"{option}=VALUE" if equals else option
                    cases[f"{word} {form}"] = (word, option, equals)
    return [pytest.param(*case, id=case_id) for case_id, case in cases.items()]


@pytest.mark.parametrize("word, option, equals", _flag_cases())
def test_every_flag_reaches_the_handler(monkeypatch, word, option, equals):
    names = [name for name, cmd in cli.COMMANDS.items() if name.split()[0] == word
             and any(option in flag.names for flag in cmd.flags)]
    assert names
    for name in names:
        cmd = cli.COMMANDS[name]
        flag = next(flag for flag in cmd.flags if option in flag.names)
        seen = []
        monkeypatch.setitem(cli.COMMANDS, name,
                            cmd._replace(handler=lambda args: seen.append(vars(args)) or 0))
        argv = name.split()
        expected = {other.dest: other.default for other in cmd.flags}
        for other in cmd.flags:
            if other.required and other is not flag:
                tokens, expected[other.dest] = _sample(other)
                argv += [other.names[-1], *tokens]
        tokens, expected[flag.dest] = _sample(flag)
        argv += [f"{option}={tokens[0]}"] if equals else [option, *tokens]
        assert main(argv) == 0, name
        assert seen == [expected], name
        assert ({k: type(v) for k, v in seen[0].items()}
                == {k: type(v) for k, v in expected.items()}), name


@pytest.mark.parametrize("argv, reason", [
    ([], "the following arguments are required: command"),
    (["nope"], "argument command: invalid choice: 'nope'"),
    (["solve", "--algo", "dp", "--bogus", "1", "-i", "x"], "unrecognized argument: --bogus"),
    (["solve", "--algo", "dp", "--obj", "minavg", "-i", "x"], "unrecognized argument: --obj"),
    (["solve", "-i", "x", "--algo"], "argument --algo: expected one value"),
    (["balance", "equalize", "-i", "x", "-s", "y", "--machines", "0"],
     "argument --machines: expected 2 values"),
    (["generate", "unsplittable", "--to-instance=yes"], "argument --to-instance: takes no values"),
    (["solve", "--algo", "dp"], "the following arguments are required: -i/--instance"),
    (["probe"], "argument command: invalid choice: 'probe'"),
    (["generate", "random", "--n", "x"], "argument --n: invalid int value: 'x'"),
    (["balance", "equalize", "-i", "x", "-s", "y", "--machines", "0", "1.5"],
     "argument --machines: invalid int value: '1.5'"),
    (["solve", "--algo", "nope", "-i", "x"], "argument --algo: invalid choice: 'nope'"),
    (["generate", "nope"], "argument command: invalid choice: 'generate nope'"),
    (["bench", "extra"], "unrecognized argument: extra"),
    (["generate", "random", "coloring"], "unrecognized argument: coloring"),
    (["generate", "random", "--density", "1e400"],
     "argument --density: invalid density value: '1e400'"),
    (["probe", "conjecture", "--n", "5", "--m", "2", "--K", "2", "--trials", "1", "--seed", "0",
      "--density", "1e400"], "argument --density: invalid density value: '1e400'"),
    (["generate", "random", "--density", "1e-400"],
     "argument --density: invalid density value: '1e-400'"),
    (["generate", "random", "--density", "1e-100000000"],
     "argument --density: invalid density value: '1e-100000000'"),
    (["generate", "coloring", "--vertices", "3", "--edges", "0-1,,1-2"],
     "argument --edges: invalid edge list value: '0-1,,1-2'"),
    (["generate", "partition3", "--a", "1,,2"], "argument --a: invalid int list value: '1,,2'"),
], ids=["no-command", "unknown-command", "unknown-flag", "abbreviated-flag", "missing-value",
        "missing-second-value", "store-true-with-value", "missing-flag", "missing-positional",
        "bad-int", "bad-int-in-pair", "bad-choice", "bad-positional", "extra-positional",
        "second-positional", "density-past-float-generate", "density-past-float-probe",
        "density-float-underflow", "density-exponent-past-the-digit-bound", "bad-edge-list",
        "bad-int-list"])
def test_malformed_command_line_exits_2_with_usage(argv, reason, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error = captured.err.splitlines()
    name = _command(argv)
    prog = f"scensched {name}" if name else "scensched"
    assert usage.startswith(f"usage: {prog} [-h] ")
    assert error.startswith(f"{prog}: error: ") and reason in error


@pytest.mark.parametrize("argv", [["-h"], ["--help"],
                                  *([*name.split(), "-h"] for name in cli.COMMANDS),
                                  ["solve", "--algo", "dp", "--help"]],
                         ids=lambda argv: " ".join(argv))
def test_help_exits_0_and_names_every_flag(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.startswith("usage: scensched")
    usage, body = captured.out.split("\n\n", 1)
    words = set(re.split(r"[\s/,;]+", body))
    if len(argv) == 1:
        assert {word for name in cli.COMMANDS for word in name.split()} <= words
        return
    name = _command(argv)
    own = {n for flag in cli.COMMANDS[name].flags for n in flag.names}
    assert {"-h", "--help", *own} <= words
    if name.startswith("generate "):  # no flag of another family
        others = {n for other, cmd in cli.COMMANDS.items() if other.startswith("generate ")
                  for flag in cmd.flags for n in flag.names}
        assert not (others - own) & words


def _stable(text):
    """Output text with the wall-clock field's value blanked."""
    return re.sub(r'"time_ms": [0-9.e-]+', '"time_ms": 0', text)


@pytest.mark.parametrize("argv", [
    ["solve", "--algo", "dp", "--objective", "minavg", "-i", "INST"],
    ["solve", "--algo", "fptas", "--epsilon", "1/2", "-i", "INST"],
    ["verify", "--algo", "approx-minavg", "-i", "INST"],
    ["generate", "random", "--n", "9", "--m", "3", "--K", "3", "--seed", "4"],
], ids=lambda argv: " ".join(argv[:3]))
def test_process_prints_what_main_prints(five_unit, argv, capsys):
    argv = [str(five_unit) if a == "INST" else a for a in argv]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    proc = _process(argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert _stable(proc.stdout) == _stable(expected)


def test_process_writes_the_output_file_whole(tmp_path):
    # about 70 KB of JSON, many times a write buffer
    argv = ["generate", "random", "--n", "3000", "--m", "3", "--K", "3", "--seed", "5"]
    assert main([*argv, "-o", str(tmp_path / "a.json")]) == 0
    proc = _process([*argv, "-o", str(tmp_path / "b.json")])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert (tmp_path / "b.json").read_text() == (tmp_path / "a.json").read_text()


@pytest.mark.parametrize("argv, code, err_end", [
    (["solve", "--algo", "dp", "-i", "INST"], 0, ""),
    (["solve", "--algo", "two-scenario", "--objective", "regret-max", "-i", "INST"], 2,
     "error: two-scenario handles minmax, minavg, not regret-max\n"),
    (["solve", "--algo", "dp", "--bogus", "1", "-i", "INST"], 2,
     "scensched solve: error: unrecognized argument: --bogus\n"),
    (["verify", "--algo", "approx-minavg", "-i", "WIDE"], 3,
     "guard exceeded: oracle guard: more than 2^21 canonical assignments for n=33, m=2\n"),
    (["-h"], 0, ""),
], ids=["solve", "bad-pairing", "malformed-flag", "oracle-guard", "help"])
def test_process_exit_code(k2_unit, tmp_path, argv, code, err_end):
    wide = _write_instance(tmp_path, make_instance(2, [1] * 33, [list(range(33))]), "wide.json")
    paths = {"INST": str(k2_unit), "WIDE": str(wide)}
    proc = _process([paths.get(a, a) for a in argv])
    assert proc.returncode == code
    assert proc.stderr.endswith(err_end) and bool(proc.stderr) == bool(err_end)
    assert bool(proc.stdout) == (code == 0)


def test_process_with_stdout_closed_exits_2():
    proc = subprocess.run(
        ["sh", "-c", 'exec "$0" -m scensched.cli "$@" >&-', sys.executable,
         "generate", "random", "--n", "4", "--m", "2", "--K", "2"],
        env=PROCESS_ENV, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (2, "error: standard output is closed\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_process_reports_a_failed_flush(k2_unit):
    with open("/dev/full", "w") as full:
        proc = _process(["solve", "--algo", "dp", "-i", str(k2_unit)], stdout=full)
    assert (proc.returncode, proc.stderr) == (2, "error: [Errno 28] No space left on device\n")


def test_console_script_is_the_process_entry():
    assert 'scensched = "scensched.cli:run"' in (ROOT / "pyproject.toml").read_text()
