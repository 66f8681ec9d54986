"""Command-line front end: instance I/O, solving, bound tables, sweeps, and
verification.

Exit codes: 0 success, 1 usage error, 2 verification failure.  Output is
byte-identical for identical inputs, seeds, and flags, on every supported
Python, 3.10+; rationals are printed as "a/b" in JSON and as
12-significant-digit decimals in CSV.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bounds import bound_table, proof_rule_W
from .doubly import eating_lottery, eating_matrix, expected_values, randomized_allocation
from .generators import (
    example1_instance,
    gen_doubly_normalised,
    gen_lower_bound_instance,
    gen_submodular_lb_instance,
    remark_3x4_instance,
)
from .model import Allocation, Instance, check_allocation, validate
from .solver import solve
from .verify import DEFAULT_SEED, run_verification
from .welfare import NASH, PParam, UTILITARIAN

FORMAT_VERSION = 1

DEFAULT_BOUND_PS = (UTILITARIAN, NASH, PParam.real(-1), PParam.real(-10))

# each family's builder, the options it needs and those it may take, with their
# defaults, in the builder's argument order; ``generate`` refuses any other
FAMILIES = {
    "lb": (gen_lower_bound_instance, ("r", "W"), {}),
    "submodular_lb": (gen_submodular_lb_instance, ("k",), {}),
    "doubly": (gen_doubly_normalised, ("n", "m", "W", "Wc"), {"seed": 0}),
    "example1": (example1_instance, (), {}),
    "remark_3x4": (remark_3x4_instance, (), {}),
}
FAMILY_OPTIONS = ("r", "W", "k", "n", "m", "Wc", "seed")


def _fmt(x) -> str:
    """Fixed 12-significant-digit decimal for CSV cells."""
    return f"{float(x):.12g}"


def _parse_p_list(tokens, default) -> list[PParam]:
    if not tokens:
        return list(default)
    try:
        return [PParam.parse(t) for t in tokens]
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad p value: {exc}") from exc


def _flags(names) -> str:
    """``--a``, ``--a and --b``, ``--a, --b and --c``."""
    *rest, last = [f"--{name}" for name in names]
    return f"{', '.join(rest)} and {last}" if rest else last


def _r_range(r_min: int, r_max: int) -> range:
    if r_max < r_min:
        raise ValueError(f"empty r range: --r-max {r_max} is below the least r, {r_min}")
    return range(r_min, r_max + 1)


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc.strerror}") from exc


def _emit_json(doc: dict, out: str | None) -> None:
    doc = {"format_version": FORMAT_VERSION, **doc}
    _emit(json.dumps(doc, indent=2) + "\n", out)


def _emit_csv(command: str, header: str, rows, out: str | None) -> None:
    lines = [f"# poe-toolkit {command} csv format={FORMAT_VERSION}", header]
    lines += (",".join(map(str, row)) for row in rows)
    _emit("\n".join(lines) + "\n", out)


def _load(path: str, what: str, parse):
    """``parse`` of the JSON document in ``path``; a file that cannot be
    read or parsed (too deeply nested included) is a usage error naming it."""
    try:
        with open(path) as fh:
            return parse(json.load(fh))
    except FileNotFoundError as exc:
        raise ValueError(f"{what} file not found: {path}") from exc
    except OSError as exc:
        raise ValueError(f"cannot read {what} file {path}: {exc.strerror}") from exc
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise ValueError(f"bad {what} file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    build, needs, takes = FAMILIES[args.family]
    given = {name: getattr(args, name) for name in FAMILY_OPTIONS if getattr(args, name) is not None}
    if any(name not in given for name in needs):
        raise ValueError(f"family '{args.family}' needs {_flags(needs)}")
    unread = [name for name in given if name not in needs and name not in takes]
    if unread:
        raise ValueError(f"family '{args.family}' does not read {_flags(unread)}")
    inst = build(*(given[name] for name in needs),
                 *(given.get(name, default) for name, default in takes.items()))
    _emit_json(inst.to_json(), args.out)
    return 0


def cmd_solve(args) -> int:
    inst = _load(args.instance, "instance", Instance.from_json)
    p_list = _parse_p_list(args.p, (UTILITARIAN, NASH))
    result = solve(inst, p_list)
    if args.format == "csv":
        rows = [(p, _fmt(result.poe[p]), _fmt(result.report_a_star.pmean[p]),
                 _fmt(result.report_b.pmean[p])) for p in p_list]
        _emit_csv("solve", "p,poe,welfare_optimal,welfare_eq1", rows, args.out)
    else:
        _emit_json(result.to_json(), args.out)
    return 0


def cmd_check(args) -> int:
    inst = _load(args.instance, "instance", Instance.from_json)
    doc = {"instance": validate(inst)}
    if args.allocation:
        alloc = _load(args.allocation, "allocation",
                      lambda obj: Allocation.from_json(obj, inst.n, inst.m))
        doc["allocation"] = check_allocation(inst, alloc)
    _emit_json(doc, args.out)
    return 0


def cmd_bounds(args) -> int:
    p_list = list(DEFAULT_BOUND_PS) + _parse_p_list(args.p, ())
    rows = [(row.p, row.r, row.s, _fmt(row.lower), _fmt(row.upper))
            for row in bound_table(p_list, _r_range(2, args.r_max))]
    _emit_csv("bounds", "p,r,s,lower,upper", rows, args.out)
    return 0


def cmd_sweep(args) -> int:
    p_list = _parse_p_list(args.p, (UTILITARIAN,))
    rows = []
    for p in p_list:
        for r in _r_range(args.r_min, args.r_max):
            s = r - 1
            W = proof_rule_W(p, s) if args.W is None else args.W
            bound = bound_table([p], [r])[0]
            if W is None:  # the proof picks no W (Nash, s < 2): nothing to solve, no lower bound
                rows.append((p, r, s, "nan", "nan", _fmt(bound.lower), _fmt(bound.upper)))
                continue
            result = solve(gen_lower_bound_instance(r, W), [p])
            rows.append((p, r, s, W, _fmt(result.poe[p]), _fmt(bound.lower), _fmt(bound.upper)))
    _emit_csv("sweep", "p,r,s,W,empirical,lower,upper", rows, args.out)
    return 0


def cmd_doubly(args) -> int:
    inst = _load(args.instance, "instance", Instance.from_json)
    # the lottery is decoded from the matrix the CSV prints
    eating = eating_matrix(inst) if args.matrix_csv else None
    lottery = eating_lottery(inst, eating) if eating else randomized_allocation(inst)
    # the route has detected the instance: W is its normalisation, and both
    # n*W and m*W_c count the agent-good pairs, so W_c = W*n/m exactly
    W = inst.normalisation()
    doc = {
        "W": W,
        "W_c": W * inst.n // inst.m,
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
    gates = run_verification(seed=args.seed)
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
    g.add_argument("family", choices=list(FAMILIES))
    for name in FAMILY_OPTIONS:
        g.add_argument(f"--{name}", type=int)
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
    w.add_argument("--p", action="append", default=[])
    w.add_argument("--r-min", type=int, default=2, dest="r_min")
    w.add_argument("--r-max", type=int, default=8, dest="r_max")
    w.add_argument("--W", type=int)
    w.add_argument("--out")
    w.set_defaults(func=cmd_sweep)

    d = sub.add_parser("doubly", help="lottery decomposition for a doubly normalised instance")
    d.add_argument("instance")
    d.add_argument("--out")
    d.add_argument("--matrix-csv", dest="matrix_csv")
    d.set_defaults(func=cmd_doubly)

    v = sub.add_parser("verify", help="run the oracle and closed-form gates")
    v.add_argument("--seed", type=int, default=DEFAULT_SEED)
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
