"""Command-line interface: subcommands, formats, determinism, exit codes."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poe_toolkit import cli
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


@pytest.mark.parametrize("args", [
    ("generate", "lb"),
    # an option the family does not read
    pytest.param(("generate", "lb", "--r", "2", "--W", "2", "--seed", "5"), id="lb-seed"),
    pytest.param(("generate", "example1", "--k", "3"), id="example1-k"),
    pytest.param(("generate", "submodular_lb", "--k", "2", "--W", "7"), id="submodular_lb-W"),
    # an empty r range
    pytest.param(("sweep", "--r-min", "5", "--r-max", "3"), id="sweep-empty-r"),
    pytest.param(("bounds", "--r-max", "1"), id="bounds-r-max-1"),
    pytest.param(("bounds", "--r-max", "0"), id="bounds-r-max-0"),
])
def test_missing_flag_is_one_error_line(args):
    res = run(*args)
    assert res.returncode == 1
    assert res.stdout == ""
    assert len(res.stderr.splitlines()) == 1
    assert res.stderr.startswith("error: ")
    assert "Traceback" not in res.stderr


def test_generate_names_what_it_needs_and_what_it_does_not_read():
    res = run("generate", "doubly", "--n", "4", "--m", "6", "--W", "3")
    assert res.stderr == "error: family 'doubly' needs --n, --m, --W and --Wc\n"
    res = run("generate", "lb", "--r", "2", "--W", "2", "--seed", "5")
    assert res.stderr == "error: family 'lb' does not read --seed\n"
    res = run("generate", "remark_3x4", "--k", "2", "--Wc", "1")
    assert res.stderr == "error: family 'remark_3x4' does not read --k and --Wc\n"


@pytest.mark.parametrize("args", [
    ("verify", "--budget", "10"),
    ("verify", "--self-test"),
    ("sweep", "--family", "lb"),
    ("sweep", "--W-rule", "fixed", "--W", "2"),
])
def test_option_that_nothing_varies_is_refused(args):
    res = run(*args)
    assert res.returncode == 1
    assert res.stdout == ""
    assert "unrecognized arguments" in res.stderr
    assert "Traceback" not in res.stderr


def test_generate_deterministic_bytes(tmp_path):
    a = run("generate", "doubly", "--n", "4", "--m", "6", "--W", "3", "--Wc", "2", "--seed", "7")
    b = run("generate", "doubly", "--n", "4", "--m", "6", "--W", "3", "--Wc", "2", "--seed", "7")
    assert a.returncode == b.returncode == 0
    assert json.loads(a.stdout)["n"] == 4
    assert a.stdout == b.stdout


def test_generate_doubly_seed_defaults_to_0():
    args = ("generate", "doubly", "--n", "4", "--m", "6", "--W", "3", "--Wc", "2")
    a, b = run(*args), run(*args, "--seed", "0")
    assert a.returncode == b.returncode == 0
    assert a.stdout and a.stdout == b.stdout


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


_BIT = st.integers(0, 1)
_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.integers()
    | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["n", "m", "kind", "row", "rows", "cols", "x"]),
                      inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _valid_instance(draw):
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    valuations = []
    for _ in range(n):
        if draw(st.booleans()):
            valuations.append({"kind": "additive", "row": draw(st.lists(_BIT, min_size=m, max_size=m))})
        else:
            k = draw(st.integers(0, 3))
            cols = draw(st.lists(st.lists(_BIT, min_size=k, max_size=k), min_size=m, max_size=m))
            valuations.append({"kind": "matroid_gf2", "rows": k, "cols": cols})
    return {"format_version": 1, "n": n, "m": m, "valuations": valuations}


def _paths(node, path=()):
    """Every position in a JSON document, the root first."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


@st.composite
def _mutated_instance(draw):
    """A valid instance document with one to three edits, each at any
    position: the node is replaced by junk or removed, or a list gains a junk
    entry or a copy of its last one (a row or column one entry too long)."""
    doc = draw(_valid_instance())
    for _ in range(draw(st.integers(1, 3))):
        # deepest first, as sampled_from leans to its first entries
        path = draw(st.sampled_from(sorted(_paths(doc), key=len, reverse=True)))
        if not path:
            doc = draw(_JUNK)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        node = parent[path[-1]]
        edit = draw(st.sampled_from(["replace", "remove", "append"]))
        if edit == "remove":
            del parent[path[-1]]
        elif edit == "append" and isinstance(node, list):
            node.append(copy.deepcopy(node[-1]) if node and draw(st.booleans()) else draw(_JUNK))
        else:
            parent[path[-1]] = draw(_JUNK)
    return doc


@settings(max_examples=200, deadline=None)
@given(_mutated_instance())
def test_malformed_instance_is_one_error_line(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(doc))
    for command in ("check", "solve"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, str(path)])
        assert code in (0, 1), (command, doc)
        if code == 1:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: bad instance file")
            assert len(err.getvalue().splitlines()) == 1


@pytest.mark.parametrize(
    "valuation, allocation, message",
    [
        ({"kind": "matroid_gf2", "cols": [[1]]}, None, "valuation 0: missing key 'rows'"),
        ({"kind": "matroid_gf2", "rows": 1, "cols": [[1], None]}, None,
         "valuation 0: column 1 is not a list"),
        ({"kind": "additive"}, None, "valuation 0: missing key 'row'"),
        ({"kind": "additive", "row": 5}, None, "valuation 0: 'row' is not a list"),
        ({"kind": "matroid_gf2", "rows": 1, "cols": 5}, None, "valuation 0: 'cols' is not a list"),
        ({"kind": "additive", "row": [1, 0]}, "[1]",
         "allocation must be a JSON object with an 'owner' list"),
        # a list is the whole valuations list: the constructors' errors, an
        # unknown kind and a non-object name the valuation by its position
        ([{"kind": "additive", "row": [1, 0]}, {"kind": "additive", "row": [0, 1]},
          {"kind": "additive", "row": [1, 2]}], None,
         "valuation 2: binary additive row must contain only 0/1 integers"),
        ({"kind": "matroid_gf2", "rows": 1, "cols": [[2]]}, None,
         "valuation 0: matroid matrix entries must be 0/1 integers"),
        ({"kind": "matroid_gf2", "rows": -1, "cols": []}, None,
         "valuation 0: row count must be a non-negative integer"),
        ({"kind": "matroid_gf2", "rows": 2, "cols": [[1]]}, None,
         "valuation 0: column length does not match row count"),
        ([{"kind": "additive", "row": [1]}, {"kind": "bogus"}], None,
         "valuation 1: unknown valuation kind: 'bogus'"),
        ([{"kind": "additive", "row": [1]}, 5], None,
         "valuation 1: each valuation must be a JSON object"),
    ],
    ids=["missing_rows", "null_column", "missing_row", "int_row", "int_cols", "owner_not_keyed",
         "row_entry", "matrix_entry", "row_count", "column_length", "unknown_kind", "not_object"],
)
def test_file_shape_error_names_what_is_wrong(tmp_path, valuation, allocation, message):
    path = tmp_path / "instance.json"
    valuations = valuation if isinstance(valuation, list) else [valuation]
    path.write_text(json.dumps({"valuations": valuations}))
    argv = ["check", str(path)]
    if allocation is not None:
        path = tmp_path / "allocation.json"
        path.write_text(allocation)
        argv += ["--allocation", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert cli.main(argv) == 1
    assert out.getvalue() == ""
    assert err.getvalue() == f"error: bad {path.stem} file {path}: {message}\n"


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
    res = run("sweep", "--p", "1", "--r-min", "3", "--r-max", "5")
    assert res.returncode == 0
    lines = [l for l in res.stdout.strip().splitlines() if l.startswith("1,")]
    assert [line.split(",")[1] for line in lines] == ["3", "4", "5"]
    for line in lines:
        _, r, s, W, empirical, lower, upper = line.split(",")
        assert int(W) == int(s) ** 2
        assert float(empirical) == float(s)  # exactly s under the W = s^2 rule
        assert float(lower) - 1e-9 <= float(empirical) <= float(upper) + 1e-9


def test_sweep_nash_rule():
    res = run("sweep", "--p", "nash", "--r-min", "5", "--r-max", "9")
    lines = [l for l in res.stdout.strip().splitlines() if l.startswith("nash,")]
    assert lines
    for line in lines:
        _, r, s, W, empirical, lower, upper = line.split(",")
        assert float(empirical) >= float(lower) - 1e-9
        assert float(empirical) <= float(upper) + 1e-9


def test_sweep_nash_without_lower_bound_prints_nan():
    # the Nash lower bound is undefined at s = 1, so the r = 2 row reads nan
    args = ("--W", "2", "--p", "nash", "--r-min", "2", "--r-max", "3")
    assert run("sweep", *args).stdout == (
        "# poe-toolkit sweep csv format=1\n"
        "p,r,s,W,empirical,lower,upper\n"
        "nash,2,1,2,1.25992104989,nan,1.32109976202\n"
        "nash,3,2,2,1.41421356237,1.06147569085,1.58892154635\n"
    )


def test_sweep_prints_the_row_the_proof_rule_has_no_W_for():
    # the proof picks no W for Nash at s = 1: the row keeps the bounds
    # row's upper bound, with nan for W, the empirical PoE and the lower bound
    assert run("sweep", "--p", "nash", "--p", "1", "--r-max", "3").stdout == (
        "# poe-toolkit sweep csv format=1\n"
        "p,r,s,W,empirical,lower,upper\n"
        "nash,2,1,nan,nan,nan,1.32109976202\n"
        "nash,3,2,3,1.55184557392,1.06147569085,1.58892154635\n"
        "1,2,1,1,1,1,2\n"
        "1,3,2,4,2,2,3\n"
    )
    res = run("sweep", "--p", "nash", "--r-max", "2")
    assert res.returncode == 0
    assert res.stdout.splitlines()[2:] == ["nash,2,1,nan,nan,nan,1.32109976202"]
    bounds = run("bounds", "--r-max", "2").stdout.splitlines()
    assert "nash,2,1,nan,1.32109976202" in bounds


def test_sweep_deterministic():
    args = ("sweep", "--p", "-1", "--r-min", "2", "--r-max", "6")
    a, b = run(*args), run(*args)
    assert a.returncode == b.returncode == 0
    assert len(a.stdout.splitlines()) == 7  # format line, header, r = 2..6
    assert a.stdout == b.stdout


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
    gate = verify.gate_doubly(verify.doubly_corpus(verify.DEFAULT_SEED + 3, 40))
    assert gate.passed and gate.cases == 40 and gate.detail == ""


def test_verify_doubly_gate_catches_a_wrong_weight(monkeypatch):
    from poe_toolkit import verify

    honest = verify.randomized_allocation

    def one_weight_halved(inst):
        (w, alloc), *rest = honest(inst)
        return [(w / 2, alloc), *rest]

    monkeypatch.setattr(verify, "randomized_allocation", one_weight_halved)
    gate = verify.gate_doubly(verify.doubly_corpus(verify.DEFAULT_SEED + 3, 40))
    assert not gate.passed and gate.cases == 40
    assert gate.detail.startswith("case 0: lottery weights")


def test_verify_rank_gate_numbers_cases_from_0(monkeypatch):
    from poe_toolkit import verify

    monkeypatch.setattr(verify, "rank_of_instance", lambda inst: Fraction(1, 2))
    gate = verify.gate_rank_bound(verify.rank_corpus(verify.DEFAULT_SEED + 1, 80))
    assert not gate.passed and gate.cases == 80
    assert gate.detail.startswith("case 0: PoE ")


@pytest.mark.parametrize("name, first", [("lambda_family_poe", 0), ("poe_formula_submodular", 1)])
def test_verify_closed_form_gate_catches_a_wrong_formula(monkeypatch, name, first):
    from poe_toolkit import verify

    # the default corpus opens with lb(64, 64), then submodular_lb 32 and 64
    cases = verify.closed_form_corpus(verify.DEFAULT_SEED + 4, 12)
    assert verify.gate_closed_forms(cases).passed
    honest = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda *args: honest(*args) + 1)
    gate = verify.gate_closed_forms(cases)
    assert not gate.passed and gate.cases == 12
    # the detail shows the first five failures: the first such case at every p
    inst, formula = cases[first]
    poe = verify.solve(inst, verify.GATE_P_LIST).poe
    assert formula(verify.UTILITARIAN) == poe[verify.UTILITARIAN] + 1
    assert gate.detail == "; ".join(
        f"case {first}: PoE {poe[p]} != closed form {formula(p)} at p={p}"
        for p in verify.GATE_P_LIST
    )


def test_verify_default_corpus_exits_0():
    res = run("verify")
    assert res.returncode == 0
    # one timed line per gate, none with a detail
    assert re.sub(r" in \d+\.\d\ds$", "", res.stdout, flags=re.M) == (
        "PASS oracle-optimality: 65 cases\n"
        "PASS rank-bound: 80 cases\n"
        "PASS matroid-floor: 40 cases\n"
        "PASS doubly-normalised: 40 cases\n"
        "PASS closed-forms: 12 cases\n"
        "PASS self-test(corrupted-B): 1 cases\n"
    )


def test_solve_deterministic_bytes(lb_file):
    args = ("solve", str(lb_file), "--p", "1", "--p", "nash", "--p", "-1")
    a, b = run(*args), run(*args)
    assert a.returncode == b.returncode == 0
    assert json.loads(a.stdout)["poe"]["1"] == "4/3"
    assert a.stdout == b.stdout


def test_verify_self_test_exits_2(monkeypatch, capsys):
    from poe_toolkit import verify

    # an oracle gate whose check sees nothing lets the corrupted B through,
    # and the standing self-test turns that into a failed run
    monkeypatch.setattr(verify, "_optimality_failures", lambda inst, res, orc: iter(()))
    assert cli.main(["verify"]) == 2
    assert re.sub(r" in \d+\.\d\ds", "", capsys.readouterr().out.splitlines()[-1]) == (
        "FAIL self-test(corrupted-B): 1 cases (case 0: injected corruption went undetected)"
    )


def test_verify_self_test_runs_the_oracle_gates_check(monkeypatch):
    from poe_toolkit import verify

    assert verify.gate_self_test().passed
    # with the oracle gate's check emptied, the corrupted B must go unseen
    monkeypatch.setattr(verify, "_optimality_failures", lambda inst, res, orc: iter(()))
    gate = verify.gate_self_test()
    assert not gate.passed and gate.cases == 1
    assert gate.detail == "case 0: injected corruption went undetected"


def test_gate_records_a_budget_refusal_as_a_failed_case():
    from poe_toolkit import verify
    from poe_toolkit.generators import random_binary_additive
    from poe_toolkit.oracle import BUDGET

    inst = random_binary_additive(__import__("random").Random(0), 2, 24)
    assert inst.n ** inst.m > BUDGET
    gate = verify.gate_optimal_allocations([inst])
    assert not gate.passed and gate.cases == 1
    assert gate.detail == (
        f"case 0: raised BudgetExceededError: 2^24 = {2**24} assignments exceed the budget of {BUDGET}"
    )


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
        "PASS closed-forms: 12 cases\n"
        "PASS self-test(corrupted-B): 1 cases\n"
    )
