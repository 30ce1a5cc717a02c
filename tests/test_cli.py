import json

import pytest

from scensched import cli
from scensched.cli import main
from scensched.model import ObjectiveKind, instance_to_dict, make_instance


@pytest.fixture
def five_unit(tmp_path):
    inst = make_instance(2, [1] * 5, [[0, 1, 2, 3, 4]])
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance_to_dict(inst)))
    return path


DEFAULT_GUARDS = {"guard_bits": 32.0, "max_states": 2_000_000, "max_k": 3}


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


def test_generate_unsplittable_matrix(tmp_path):
    out = tmp_path / "m.json"
    assert main(["generate", "unsplittable", "--q", "2", "--t", "2", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["rows"] == [[1, 0, 1, 1], [0, 1, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]
    assert doc["column_sums"] == [3, 3, 3, 3]


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


def test_probe_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["probe", "conjecture", "--n", "6", "--m", "2", "--K", "2",
            "--trials", "8", "--seed", "7"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_text() == b.read_text()


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


def test_bench_default_suite(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", "-o", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header == ["instance", "n", "m", "K", "algo", "objective", "value",
                      "oracle_value", "ratio", "time_ms", "full_disbalance"]
    assert len(lines) > 10


def test_bench_unknown_suite_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--suite", "nope"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


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
    if argv[0] in ("solve", "verify"):
        argv = argv + ["-i", str(five_unit)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("algo", sorted(set(SUPPORTED_PAIRS) - {"fptas"}))
def test_epsilon_rejected_where_unused(k2_unit, command, algo, capsys):
    assert main([command, "--algo", algo, "--epsilon", "1/2", "-i", str(k2_unit)]) == 2
    assert "takes no --epsilon" in capsys.readouterr().err


def test_fptas_without_epsilon_is_contract_error(five_unit, capsys):
    assert main(["solve", "--algo", "fptas", "-i", str(five_unit)]) == 2
    assert "requires --epsilon" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "", "true", "yes"])
def test_guard_override_needs_exactly_one(tmp_path, monkeypatch, value):
    monkeypatch.setenv("SCHED_GUARD_OVERRIDE", value)
    assert cli._guards() == DEFAULT_GUARDS
    wide = _write_instance(tmp_path, make_instance(2, [1] * 33, [list(range(33))]))
    assert main(["verify", "--algo", "approx-minavg", "-i", str(wide)]) == 3


def test_guard_override_lifts_guards(monkeypatch):
    monkeypatch.delenv("SCHED_GUARD_OVERRIDE", raising=False)
    assert cli._guards() == DEFAULT_GUARDS
    monkeypatch.setenv("SCHED_GUARD_OVERRIDE", "1")
    assert cli._guards()["max_states"] > DEFAULT_GUARDS["max_states"]
