"""Command-line interface: subcommands, formats, determinism, exit codes."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from poe_toolkit.solver import SolverInternalError

CLI = [sys.executable, "-m", "poe_toolkit.cli"]


def run(*args, **kw):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, **kw)


@pytest.fixture
def lb_file(tmp_path):
    path = tmp_path / "lb.json"
    assert run("generate", "lb", "--r", "2", "--W", "2", "--out", str(path)).returncode == 0
    return path


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def test_generate_lb_shape(tmp_path):
    out = tmp_path / "inst.json"
    res = run("generate", "lb", "--r", "3", "--W", "4", "--out", str(out))
    assert res.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["n"] == 7 and doc["m"] == 12  # W + r agents, r * W goods
    assert doc["format_version"] == 1


def test_generate_example1(tmp_path):
    res = run("generate", "example1")
    doc = json.loads(res.stdout)
    assert doc["n"] == 4 and doc["m"] == 6
    assert doc["valuations"][0]["row"] == [1, 1, 1, 0, 0, 0]


def test_generate_doubly_infeasible():
    res = run("generate", "doubly", "--n", "3", "--m", "4", "--W", "3", "--Wc", "2")
    assert res.returncode == 1
    assert "infeasible" in res.stderr


def test_generate_missing_params():
    assert run("generate", "lb").returncode == 1


def test_generate_deterministic_bytes(tmp_path):
    a = run("generate", "doubly", "--n", "4", "--m", "6", "--W", "3", "--Wc", "2", "--seed", "7")
    b = run("generate", "doubly", "--n", "4", "--m", "6", "--W", "3", "--Wc", "2", "--seed", "7")
    assert a.stdout == b.stdout


# ---------------------------------------------------------------------------
# solve / check
# ---------------------------------------------------------------------------


def test_solve_reports_exact_poe(lb_file):
    res = run("solve", str(lb_file), "--p", "1", "--p", "nash")
    doc = json.loads(res.stdout)
    assert doc["poe"]["1"] == "4/3"
    assert doc["b"]["owner"] is not None


def test_solve_example1_poe_one(tmp_path):
    inst = tmp_path / "e1.json"
    run("generate", "example1", "--out", str(inst))
    res = run("solve", str(inst), "--p", "1", "--p", "nash")
    doc = json.loads(res.stdout)
    assert doc["poe"]["1"] == "1" and doc["poe"]["nash"] == "1"


def test_solve_submodular_family(tmp_path):
    inst = tmp_path / "sub.json"
    run("generate", "submodular_lb", "--k", "4", "--out", str(inst))
    res = run("solve", str(inst), "--p", "1")
    doc = json.loads(res.stdout)
    num, den = doc["poe"]["1"].split("/")
    assert int(num) * 3 >= int(den) * 4  # at least 4/3


def test_solve_csv_format(lb_file):
    res = run("solve", str(lb_file), "--p", "1", "--format", "csv")
    lines = res.stdout.strip().splitlines()
    assert lines[1] == "p,poe,welfare_optimal,welfare_eq1"
    assert lines[2].startswith("1,1.33333333333,")


def test_solve_round_trip(lb_file, tmp_path):
    out = tmp_path / "solve.json"
    run("solve", str(lb_file), "--p", "1", "--out", str(out))
    doc = json.loads(out.read_text())
    assert json.loads(json.dumps(doc)) == doc


def test_solve_missing_file():
    assert run("solve", "/nonexistent.json").returncode == 1


def test_check_instance_and_allocation(lb_file, tmp_path):
    alloc = tmp_path / "alloc.json"
    alloc.write_text(json.dumps({"owner": [0, 1, 3, 2]}))
    res = run("check", str(lb_file), "--allocation", str(alloc))
    doc = json.loads(res.stdout)
    assert doc["instance"]["W"] == 2 and doc["instance"]["r"] == 2
    assert doc["allocation"]["eq1"] is True  # good 3 is worthless to agent 2
    assert doc["allocation"]["values"] == [1, 1, 0, 1]
    assert doc["allocation"]["wasted_goods"] == [3]

    unbalanced = tmp_path / "alloc2.json"
    unbalanced.write_text(json.dumps({"owner": [0, 1, 3, 3]}))
    res = run("check", str(lb_file), "--allocation", str(unbalanced))
    doc = json.loads(res.stdout)
    assert doc["allocation"]["eq1"] is False  # agent 2 at zero next to value 2


def test_check_rejects_allocation_of_wrong_length(lb_file, tmp_path):
    alloc = tmp_path / "short.json"
    alloc.write_text(json.dumps({"owner": [0, 3]}))
    res = run("check", str(lb_file), "--allocation", str(alloc))
    assert res.returncode == 1
    assert res.stdout == ""
    assert "covers 2 goods, instance has 4" in res.stderr


def _additive(*rows):
    return [{"kind": "additive", "row": row} for row in rows]


@pytest.mark.parametrize(
    "command, instance",
    [
        ("solve", {"valuations": _additive([1.7, 0.2], [True, 1])}),
        ("solve", {"valuations": _additive([1, 0], [True, 1])}),
        ("solve", {"valuations": _additive(["1", "0"], [1, 1])}),
        ("check", {"valuations": [{"kind": "matroid_gf2", "rows": 2.0,
                                   "cols": [[1, 0], [0, 1]]}]}),
        ("check", {"valuations": {"kind": "additive", "row": [1, 0]}}),
        ("check", {"n": True, "m": 2, "valuations": _additive([1, 0])}),
        ("check", {"n": 1, "m": 2.0, "valuations": _additive([1, 0])}),
    ],
    ids=["float_row", "bool_row", "string_row", "float_rows", "valuations_not_list",
         "bool_n", "float_m"],
)
def test_non_integer_instance_rejected(tmp_path, command, instance):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(instance))
    res = run(command, str(path))
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr.startswith("error: bad instance file")
    assert "Traceback" not in res.stderr


def test_check_rejects_non_integer_owner(tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"valuations": _additive([1, 0], [0, 1])}))
    alloc = tmp_path / "alloc.json"
    alloc.write_text(json.dumps({"owner": [0.9, 1.2]}))
    res = run("check", str(inst), "--allocation", str(alloc))
    assert res.returncode == 1
    assert res.stdout == ""
    assert "owner entries must be integer" in res.stderr
    assert str(alloc) in res.stderr


def test_check_unknown_flag_rejected(lb_file):
    assert run("check", str(lb_file), "--bogus").returncode == 1


# ---------------------------------------------------------------------------
# bounds / sweep
# ---------------------------------------------------------------------------


def test_bounds_table_rows():
    res = run("bounds", "--r-max", "10")
    lines = res.stdout.strip().splitlines()
    assert lines[1] == "p,r,s,lower,upper"
    data = {tuple(l.split(",")[:2]): l.split(",") for l in lines[2:]}
    assert data[("1", "10")][3] == "9" and data[("1", "10")][4] == "10"
    row = data[("-10", "5")]
    assert float(row[3]) == pytest.approx(2 ** -0.1 * 4 ** (1 / 11))
    assert float(row[4]) == pytest.approx(2 * 4 ** (1 / 11))


def test_bounds_monotone_in_r_for_negative_p():
    res = run("bounds", "--r-max", "20")
    uppers = [
        float(l.split(",")[4])
        for l in res.stdout.strip().splitlines()[2:]
        if l.startswith("-1,")
    ]
    assert uppers == sorted(uppers)


def test_bounds_extra_p():
    res = run("bounds", "--r-max", "4", "--p", "1/2")
    assert any(l.startswith("1/2,") for l in res.stdout.splitlines())


@pytest.mark.parametrize("p", ["1e-400", "-1e400", "1e-320", "-1e-320", "1e-8", "1e-17", "-1e-7"])
@pytest.mark.parametrize("command", ["solve", "bounds"])
def test_p_beyond_float_range_rejected(lb_file, command, p):
    args = [command, str(lb_file)] if command == "solve" else [command, "--r-max", "3"]
    res = run(*args, f"--p={p}")
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr.startswith("error: bad p value:")
    assert "Traceback" not in res.stderr


def test_very_negative_p_is_a_usage_error(tmp_path):
    # A* is (3, 6) and B is (3, 4); 3^p / 2 is below the normal floats from p = -645
    inst = tmp_path / "neg.json"
    inst.write_text(json.dumps({"valuations": _additive([1] * 3 + [0] * 6, [1] * 9)}))
    for p in ("-678", "-1000"):
        res = run("solve", str(inst), f"--p={p}")
        assert res.returncode == 1 and res.stdout == ""
        assert res.stderr.startswith(f"error: p = {p} ")
        assert "Traceback" not in res.stderr
    res = run("solve", str(inst), "--p=-600", "--format", "csv")
    assert res.stdout.splitlines()[-1] == "-600,1,3.00346773856,3.00346773856"


def test_sweep_p1_exact():
    res = run("sweep", "--family", "lb", "--p", "1", "--r-min", "3", "--r-max", "5")
    lines = [l for l in res.stdout.strip().splitlines() if l.startswith("1,")]
    for line in lines:
        _, r, s, W, empirical, lower, upper = line.split(",")
        assert int(W) == int(s) ** 2
        assert float(empirical) == float(s)  # exactly s under the W = s^2 rule
        assert float(lower) - 1e-9 <= float(empirical) <= float(upper) + 1e-9


def test_sweep_nash_rule():
    res = run("sweep", "--family", "lb", "--p", "nash", "--r-min", "5", "--r-max", "9")
    lines = [l for l in res.stdout.strip().splitlines() if l.startswith("nash,")]
    assert lines
    for line in lines:
        _, r, s, W, empirical, lower, upper = line.split(",")
        assert float(empirical) >= float(lower) - 1e-9
        assert float(empirical) <= float(upper) + 1e-9


def test_sweep_nash_without_lower_bound_prints_nan():
    # the Nash lower bound is undefined at s = 1, so the r = 2 row reads nan
    args = ("--W-rule", "fixed", "--W", "2", "--p", "nash", "--r-min", "2", "--r-max", "3")
    assert run("sweep", *args).stdout == (
        "# poe-toolkit sweep csv format=1\n"
        "p,r,s,W,empirical,lower,upper\n"
        "nash,2,1,2,1.25992104989,nan,1.32109976202\n"
        "nash,3,2,2,1.41421356237,1.06147569085,1.58892154635\n"
    )


def test_sweep_deterministic():
    args = ("sweep", "--family", "lb", "--p", "-1", "--r-min", "2", "--r-max", "6")
    assert run(*args).stdout == run(*args).stdout


# ---------------------------------------------------------------------------
# doubly
# ---------------------------------------------------------------------------


def test_doubly_example1(tmp_path):
    from fractions import Fraction

    inst = tmp_path / "e1.json"
    run("generate", "example1", "--out", str(inst))
    matrix = tmp_path / "eating.csv"
    res = run("doubly", str(inst), "--matrix-csv", str(matrix))
    doc = json.loads(res.stdout)
    assert doc["W"] == 3 and doc["W_c"] == 2
    assert all(v == "3/2" for v in doc["expected_values"])
    assert sum(Fraction(w) for w in doc["weights"]) == 1
    first_row = matrix.read_text().splitlines()[0].split(",")
    assert first_row[:3] == ["1/3", "1/3", "1/3"]


def test_doubly_matrix_csv_builds_the_eating_matrix_once(tmp_path, monkeypatch, capsys):
    # the lottery is decoded from the matrix the CSV prints
    from poe_toolkit import cli, doubly

    inst = tmp_path / "e1.json"
    assert run("generate", "example1", "--out", str(inst)).returncode == 0
    want = run("doubly", str(inst), "--matrix-csv", "-").stdout
    honest, calls = doubly.eating_matrix, []

    def counted(i):
        calls.append(i)
        return honest(i)

    monkeypatch.setattr(doubly, "eating_matrix", counted)
    monkeypatch.setattr(cli, "eating_matrix", counted)
    assert cli.main(["doubly", str(inst), "--matrix-csv", "-"]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == want


def test_doubly_expected_values_match_the_fraction_sums(tmp_path):
    # eating route (W_c does not divide W): weights with several denominators
    from poe_toolkit.model import Allocation, Instance

    inst_path = tmp_path / "d.json"
    gen = ("generate", "doubly", "--n", "10", "--m", "15", "--W", "3", "--Wc", "2", "--seed", "4")
    assert run(*gen, "--out", str(inst_path)).returncode == 0
    doc = json.loads(run("doubly", str(inst_path)).stdout)
    inst = Instance.from_json(json.loads(inst_path.read_text()))
    weights = list(map(Fraction, doc["weights"]))
    assert len({w.denominator for w in weights}) > 1
    values = [Allocation(owner, inst.n).values(inst) for owner in doc["allocations"]]
    want = [str(sum(w * vals[i] for w, vals in zip(weights, values))) for i in range(inst.n)]
    assert doc["expected_values"] == want == ["3/2"] * inst.n


def test_doubly_flow_route_matrix_csv_refused_before_output(tmp_path):
    # W_c divides W: there is no eating matrix, so nothing may be written
    inst = tmp_path / "flow.json"
    gen = ("generate", "doubly", "--n", "6", "--m", "12", "--W", "4", "--Wc", "2", "--seed", "3")
    assert run(*gen, "--out", str(inst)).returncode == 0
    matrix = tmp_path / "eating.csv"
    res = run("doubly", str(inst), "--matrix-csv", str(matrix))
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr == "error: no eating matrix: W divisible by W_c (flow route)\n"
    assert not matrix.exists()


def test_doubly_rejects_non_normalised(tmp_path):
    inst = tmp_path / "r.json"
    run("generate", "remark_3x4", "--out", str(inst))
    assert run("doubly", str(inst)).returncode == 1
    # nobody values anything: W = 0 is not a normalisation constant
    zero = tmp_path / "zero.json"
    row = {"kind": "additive", "row": [0, 0]}
    zero.write_text(json.dumps({"valuations": [row, row]}))
    res = run("doubly", str(zero))
    assert res.returncode == 1 and res.stdout == ""
    assert res.stderr == "error: instance is not doubly normalised\n"


# ---------------------------------------------------------------------------
# files that cannot be read or written
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "case, message",
    [
        ("solve_directory", "error: cannot read instance file"),
        ("allocation_directory", "error: cannot read allocation file"),
        ("generate_out", "error: cannot write"),
        ("matrix_csv", "error: cannot write"),
    ],
)
def test_path_that_cannot_be_read_or_written(tmp_path, lb_file, case, message):
    e1 = tmp_path / "e1.json"
    assert run("generate", "example1", "--out", str(e1)).returncode == 0
    missing = str(tmp_path / "missing" / "out")
    args = {
        "solve_directory": ("solve", str(tmp_path)),
        "allocation_directory": ("check", str(lb_file), "--allocation", str(tmp_path)),
        "generate_out": ("generate", "example1", "--out", missing),
        "matrix_csv": ("doubly", str(e1), "--matrix-csv", missing),
    }[case]
    res = run(*args)
    assert res.returncode == 1
    assert res.stdout == ""  # refused before anything is printed
    assert res.stderr.startswith(message)
    assert str(tmp_path) in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("what", ["instance", "allocation"])
def test_deeply_nested_json_is_a_bad_file(tmp_path, lb_file, what):
    # nesting too deep for the JSON decoder: a bad file, not a RecursionError
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000 + "]" * 200000)
    args = ("solve", str(deep)) if what == "instance" else (
        "check", str(lb_file), "--allocation", str(deep))
    res = run(*args)
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr.startswith(f"error: bad {what} file {deep}: ")
    assert "Traceback" not in res.stderr


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_small_corpus_passes():
    from poe_toolkit.verify import run_verification

    gates = run_verification()
    assert all(g.passed for g in gates)


def test_verify_doubly_gate_passes_at_default_seed():
    from poe_toolkit import verify

    # as run_verification calls it by default
    gate = verify.gate_doubly(verify.doubly_corpus(20240 + 3, 40))
    assert gate.passed and gate.cases == 40 and gate.detail == ""


def test_verify_doubly_gate_catches_a_wrong_weight(monkeypatch):
    from poe_toolkit import verify

    honest = verify.randomized_allocation

    def one_weight_halved(inst):
        (w, alloc), *rest = honest(inst)
        return [(w / 2, alloc), *rest]

    monkeypatch.setattr(verify, "randomized_allocation", one_weight_halved)
    gate = verify.gate_doubly(verify.doubly_corpus(20240 + 3, 40))
    assert not gate.passed and gate.cases == 40
    assert gate.detail.startswith("case 0: lottery weights")


def test_verify_rank_gate_numbers_cases_from_0(monkeypatch):
    from poe_toolkit import verify

    monkeypatch.setattr(verify, "rank_of_instance", lambda inst: Fraction(1, 2))
    gate = verify.gate_rank_bound(verify.rank_corpus(20240 + 1, 80))
    assert not gate.passed and gate.cases == 80
    assert gate.detail.startswith("case 0: PoE ")


def test_verify_default_corpus_exits_0():
    res = run("verify")
    assert res.returncode == 0
    # one timed line per gate, none with a detail
    assert re.sub(r" in \d+\.\d\ds$", "", res.stdout, flags=re.M) == (
        "PASS oracle-optimality: 65 cases\n"
        "PASS rank-bound: 80 cases\n"
        "PASS matroid-floor: 40 cases\n"
        "PASS doubly-normalised: 40 cases\n"
    )


def test_solve_deterministic_bytes(lb_file):
    args = ("solve", str(lb_file), "--p", "1", "--p", "nash", "--p", "-1")
    assert run(*args).stdout == run(*args).stdout


def test_verify_self_test_exits_2():
    res = run("verify", "--self-test")
    assert res.returncode == 2
    assert re.sub(r" in \d+\.\d\ds", "", res.stdout.splitlines()[-1]) == (
        "FAIL self-test(corrupted-B): 1 cases (injected corruption detected (expected failure))"
    )


def test_verify_self_test_runs_the_oracle_gates_check(monkeypatch):
    from poe_toolkit import verify

    # with the oracle gate's check emptied, the corrupted B must go unseen
    monkeypatch.setattr(verify, "_optimality_failures", lambda inst, res, orc: iter(()))
    gate = verify.gate_self_test(10**6)
    assert gate.passed and gate.detail == "injected corruption went undetected"


@pytest.mark.parametrize("error", [SolverInternalError, ValueError])
def test_verify_case_that_raises_fails_its_gate(monkeypatch, capsys, error):
    from poe_toolkit import cli, verify

    honest, calls = verify.solve, []

    def solve_raising_on_case_2(inst, p_list):
        calls.append(inst)
        if len(calls) == 3:  # the oracle gate solves each case once, in order
            raise error("injected")
        return honest(inst, p_list)

    monkeypatch.setattr(verify, "solve", solve_raising_on_case_2)
    assert cli.main(["verify"]) == 2
    out = re.sub(r" in \d+\.\d\ds", "", capsys.readouterr().out)
    assert out == (
        f"FAIL oracle-optimality: 65 cases (case 2: raised {error.__name__}: injected)\n"
        "PASS rank-bound: 80 cases\n"
        "PASS matroid-floor: 40 cases\n"
        "PASS doubly-normalised: 40 cases\n"
    )


def test_verify_budget_refusal():
    res = run("verify", "--budget", "10")
    assert res.returncode == 3
