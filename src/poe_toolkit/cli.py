"""Command-line front end: instance I/O, solving, bound tables, sweeps, and
verification.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 oracle
budget refusal.  Output is byte-identical for identical inputs, seeds, and
flags, on every supported Python, 3.10+; rationals are printed as "a/b" in
JSON and as 12-significant-digit decimals in CSV.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bounds import bound_table, proof_rule_W
from .doubly import (
    doubly_degrees, eating_lottery, eating_matrix, expected_values, randomized_allocation,
)
from .generators import (
    example1_instance,
    gen_doubly_normalised,
    gen_lower_bound_instance,
    gen_submodular_lb_instance,
    remark_3x4_instance,
)
from .model import (
    Allocation,
    Instance,
    is_ef,
    is_ef1,
    is_eq,
    is_eq1,
    validate,
    wasted_goods,
)
from .oracle import DEFAULT_BUDGET, BudgetExceededError
from .solver import solve
from .welfare import NASH, PParam, UTILITARIAN

FORMAT_VERSION = 1

DEFAULT_BOUND_PS = (UTILITARIAN, NASH, PParam.real(-1), PParam.real(-10))


class UsageError(Exception):
    pass


def _fmt(x) -> str:
    """Fixed 12-significant-digit decimal for CSV cells."""
    return f"{float(x):.12g}"


def _parse_p_list(tokens, default) -> list[PParam]:
    if not tokens:
        return list(default)
    try:
        return [PParam.parse(t) for t in tokens]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad p value: {exc}") from exc


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc.strerror}") from exc


def _emit_json(doc: dict, out: str | None) -> None:
    doc = {"format_version": FORMAT_VERSION, **doc}
    _emit(json.dumps(doc, indent=2) + "\n", out)


def _load(path: str, what: str, parse):
    """``parse`` of the JSON document in ``path``; a file that cannot be
    read or parsed (too deeply nested included) is a usage error naming it."""
    try:
        with open(path) as fh:
            return parse(json.load(fh))
    except FileNotFoundError as exc:
        raise UsageError(f"{what} file not found: {path}") from exc
    except OSError as exc:
        raise UsageError(f"cannot read {what} file {path}: {exc.strerror}") from exc
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise UsageError(f"bad {what} file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    if args.family == "lb":
        if args.r is None or args.W is None:
            raise UsageError("family 'lb' needs --r and --W")
        inst = gen_lower_bound_instance(args.r, args.W)
    elif args.family == "submodular_lb":
        if args.k is None:
            raise UsageError("family 'submodular_lb' needs --k")
        inst = gen_submodular_lb_instance(args.k)
    elif args.family == "doubly":
        if args.n is None or args.m is None or args.W is None or args.Wc is None:
            raise UsageError("family 'doubly' needs --n, --m, --W and --Wc")
        inst = gen_doubly_normalised(args.n, args.m, args.W, args.Wc, seed=args.seed)
    elif args.family == "example1":
        inst = example1_instance()
    elif args.family == "remark_3x4":
        inst = remark_3x4_instance()
    else:
        raise UsageError(f"unknown family: {args.family}")
    _emit_json(inst.to_json(), args.out)
    return 0


def cmd_solve(args) -> int:
    inst = _load(args.instance, "instance", Instance.from_json)
    p_list = _parse_p_list(args.p, (UTILITARIAN, NASH))
    result = solve(inst, p_list)
    if args.format == "csv":
        lines = [f"# poe-toolkit solve csv format={FORMAT_VERSION}",
                 "p,poe,welfare_optimal,welfare_eq1"]
        for p in p_list:
            lines.append(
                f"{p},{_fmt(result.poe[p])},{_fmt(result.report_a_star.pmean[p])},"
                f"{_fmt(result.report_b.pmean[p])}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit_json(result.to_json(), args.out)
    return 0


def cmd_check(args) -> int:
    inst = _load(args.instance, "instance", Instance.from_json)
    report = validate(inst)
    doc = {"instance": report.to_json()}
    if args.allocation:
        alloc = _load(args.allocation, "allocation",
                      lambda obj: Allocation.from_json(obj, inst.n, inst.m))
        doc["allocation"] = {
            "complete": alloc.is_complete,
            "values": list(alloc.values(inst)),
            "wasted_goods": sorted(wasted_goods(inst, alloc)),
        }
        if alloc.is_complete:
            doc["allocation"].update(
                eq=is_eq(inst, alloc),
                eq1=is_eq1(inst, alloc),
                ef=is_ef(inst, alloc),
                ef1=is_ef1(inst, alloc),
            )
    _emit_json(doc, args.out)
    return 0


def cmd_bounds(args) -> int:
    p_list = list(DEFAULT_BOUND_PS) + _parse_p_list(args.p, ())
    rows = bound_table(p_list, range(2, args.r_max + 1))
    lines = [f"# poe-toolkit bounds csv format={FORMAT_VERSION}", "p,r,s,lower,upper"]
    for row in rows:
        lines.append(f"{row.p},{row.r},{row.s},{_fmt(row.lower)},{_fmt(row.upper)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_sweep(args) -> int:
    if args.family != "lb":
        raise UsageError("only the 'lb' family is sweepable")
    if args.W_rule == "fixed" and args.W is None:
        raise UsageError("--W-rule fixed needs --W")
    p_list = _parse_p_list(args.p, (UTILITARIAN,))
    lines = [f"# poe-toolkit sweep csv format={FORMAT_VERSION}",
             "p,r,s,W,empirical,lower,upper"]
    for p in p_list:
        for r in range(args.r_min, args.r_max + 1):
            s = r - 1
            W = args.W if args.W_rule == "fixed" else proof_rule_W(p, s)
            if W is None:
                continue
            inst = gen_lower_bound_instance(r, W)
            result = solve(inst, [p])
            bound = bound_table([p], [r])[0]
            lines.append(
                f"{p},{r},{s},{W},{_fmt(result.poe[p])},{_fmt(bound.lower)},{_fmt(bound.upper)}"
            )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_doubly(args) -> int:
    inst = _load(args.instance, "instance", Instance.from_json)
    W, W_c = doubly_degrees(inst)
    # the lottery is decoded from the matrix the CSV prints
    eating = eating_matrix(inst) if args.matrix_csv else None
    lottery = eating_lottery(inst, eating) if eating else randomized_allocation(inst)
    doc = {
        "W": W,
        "W_c": W_c,
        "weights": [str(w) for w, _ in lottery],
        "allocations": [list(a.owner) for _, a in lottery],
        "expected_values": [str(v) for v in expected_values(inst, lottery)],
    }
    # the CSV file is written first, so a path that cannot be written is
    # refused before the document is out; on stdout the document comes first
    if eating and args.matrix_csv != "-":
        _emit(eating.to_csv(), args.matrix_csv)
    _emit_json(doc, args.out)
    if eating and args.matrix_csv == "-":
        _emit(eating.to_csv(), "-")
    return 0


def cmd_verify(args) -> int:
    from .verify import run_verification

    gates = run_verification(budget=args.budget, seed=args.seed, self_test=args.self_test)
    for gate in gates:
        status = "PASS" if gate.passed else "FAIL"
        line = f"{status} {gate.name}: {gate.cases} cases in {gate.seconds:.2f}s"
        if gate.detail:
            line += f" ({gate.detail})"
        print(line)
    return 0 if all(g.passed for g in gates) else 2


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poe-toolkit",
        description="Price-of-equity solver and bound certification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write an instance file for a named family")
    g.add_argument("family", choices=["lb", "submodular_lb", "doubly", "example1", "remark_3x4"])
    g.add_argument("--r", type=int)
    g.add_argument("--W", type=int)
    g.add_argument("--k", type=int)
    g.add_argument("--n", type=int)
    g.add_argument("--m", type=int)
    g.add_argument("--Wc", type=int)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out")
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", help="optimal and optimal-EQ1 allocations with PoE")
    s.add_argument("instance")
    s.add_argument("--p", action="append", default=[])
    s.add_argument("--format", choices=["json", "csv"], default="json")
    s.add_argument("--out")
    s.set_defaults(func=cmd_solve)

    c = sub.add_parser("check", help="validate an instance (and optionally an allocation)")
    c.add_argument("instance")
    c.add_argument("--allocation")
    c.add_argument("--out")
    c.set_defaults(func=cmd_check)

    b = sub.add_parser("bounds", help="closed-form bound table as CSV")
    b.add_argument("--p", action="append", default=[])
    b.add_argument("--r-max", type=int, default=64, dest="r_max")
    b.add_argument("--out")
    b.set_defaults(func=cmd_bounds)

    w = sub.add_parser("sweep", help="empirical family PoE against the bounds")
    w.add_argument("--family", default="lb")
    w.add_argument("--p", action="append", default=[])
    w.add_argument("--r-min", type=int, default=2, dest="r_min")
    w.add_argument("--r-max", type=int, default=8, dest="r_max")
    w.add_argument("--W-rule", choices=["proof", "fixed"], default="proof", dest="W_rule")
    w.add_argument("--W", type=int)
    w.add_argument("--out")
    w.set_defaults(func=cmd_sweep)

    d = sub.add_parser("doubly", help="lottery decomposition for a doubly normalised instance")
    d.add_argument("instance")
    d.add_argument("--out")
    d.add_argument("--matrix-csv", dest="matrix_csv")
    d.set_defaults(func=cmd_doubly)

    v = sub.add_parser("verify", help="run the oracle and closed-form gates")
    v.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    v.add_argument("--seed", type=int, default=20240)
    v.add_argument("--self-test", action="store_true", dest="self_test")
    v.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceededError as exc:
        print(f"budget refused: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
