#!/usr/bin/env python3
"""Self-tests of the benchmark: each workload's check catches a corrupted
result and a raising instance, the tracer restores the package and repeats
its counts, op times rescale by the speed probes around them, and a
checkout without the package source is refused.

    python3 perfbench/selftest.py

Exits 0 when every test passes.  Runs in about a minute; it uses the
smallest instances of each workload at the default seed.
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import subprocess
import sys
import traceback
from fractions import Fraction

import run
import tracing

SMALL = 12  # items per workload used by the pass-level tests


def _break_eq1(inst, alloc):
    """Give one good to another good's owner so that the allocation stops
    being EQ1, as ``verify.gate_self_test`` does; None if impossible."""
    from poe_toolkit.model import Allocation, is_eq1

    owner = list(alloc.owner)
    for g in range(inst.m):
        for h in range(inst.m):
            if g != h and owner[g] != owner[h]:
                trial = list(owner)
                trial[h] = trial[g]
                cand = Allocation(trial, inst.n)
                if not is_eq1(inst, cand):
                    return cand
    return None


def _corrupt_b(inst, res, p_list):
    from poe_toolkit.welfare import welfare_report

    bad = _break_eq1(inst, res.b)
    if bad is None:
        return None
    res.b = bad
    res.report_b = welfare_report(inst, bad, p_list, restrict=res.report_b.restrict)
    return res


def corrupt_solve(item, out):
    import workloads

    res = _corrupt_b(item.inst, out[0], workloads.SOLVE_PS)
    return None if res is None else (res, res.to_json())


def corrupt_doubly(item, out):
    lottery, res = out
    (w0, a0), rest = lottery[0], lottery[1:]
    return [(w0 + Fraction(1, 1000), a0)] + rest, res


def corrupt_oracle(item, out):
    from poe_toolkit.verify import GATE_P_LIST

    res, orc, mismatches = out
    res = _corrupt_b(item.inst, res, GATE_P_LIST)
    return None if res is None else (res, orc, mismatches)


# One corruption of a single result per workload; the check must catch it.
CORRUPT = {
    "lb_ladder": corrupt_solve,
    "gf2_corpus": corrupt_solve,
    "doubly_lottery": corrupt_doubly,
    "oracle_gates": corrupt_oracle,
}


def _small_items(wl, items, extra=()):
    """The SMALL cheapest items plus ``extra``, in build order."""
    cheap = sorted(items, key=lambda it: (it.inst.n ** min(it.inst.m, 12), it.idx))[:SMALL]
    keep = {it.idx for it in cheap} | {it.idx for it in extra}
    return [it for it in items if it.idx in keep]


def _corruptible(wl, items):
    """First item (cheapest first) whose result can be corrupted."""
    for item in sorted(items, key=lambda it: (it.inst.n * it.inst.m, it.idx)):
        if CORRUPT[wl.name](item, wl.op(item.inst)) is not None:
            return item
    raise AssertionError(f"{wl.name}: no item can be corrupted")


def test_corrupted_result_raises_error_rate():
    for name in run.WORKLOAD_NAMES:
        wl, items, *_ = run.setup(name, run.DEFAULT_SEED)
        target = _corruptible(wl, items)
        subset = _small_items(wl, items, [target])
        clean = run.run_pass(wl, subset)
        assert not clean.failures, (name, clean.failures)

        def corrupting_op(inst, _op=wl.op, _corrupt=CORRUPT[name], _target=target):
            out = _op(inst)
            return _corrupt(_target, out) if inst is _target.inst else out

        bad = run.run_pass(dataclasses.replace(wl, op=corrupting_op), subset)
        assert len(bad.failures) == 1 and f"item {target.idx} " in bad.failures[0], (
            name, bad.failures)
        assert bad.digest.hexdigest() != clean.digest.hexdigest(), name


def test_raising_instance_is_counted():
    wl, items, *_ = run.setup("lb_ladder", run.DEFAULT_SEED)
    subset = _small_items(wl, items)
    victim = subset[len(subset) // 2]

    def raising_op(inst, _op=wl.op):
        if inst is victim.inst:
            raise RuntimeError("injected")
        return _op(inst)

    result = run.run_pass(dataclasses.replace(wl, op=raising_op), subset)
    assert len(result.seconds) == len(subset)
    assert len(result.failures) == 1 and "raised RuntimeError" in result.failures[0]


def test_tracer_restores_package_and_repeats_counts():
    import poe_toolkit.model as model
    import poe_toolkit.solver as solver

    before = (solver.solve, solver.max_positive_count, model.BinaryAdditive.value)
    for name in run.WORKLOAD_NAMES:
        wl, items, *_ = run.setup(name, run.DEFAULT_SEED)
        subset = _small_items(wl, items)
        recs = [tracing.Recorder(), tracing.Recorder()]
        passes = [run.run_pass(wl, subset, rec) for rec in recs]
        assert recs[0].counts["op"] == recs[1].counts["op"], name
        assert passes[0].digest.hexdigest() == passes[1].digest.hexdigest(), name
        for rec in recs:
            assert not rec.stack
            for span_name, (total, self_s) in rec.totals("op").items():
                assert 0 <= self_s <= total + 1e-9, (name, span_name)
            for _, start, end, parent, _, _ in rec.spans:
                if parent is not None:
                    p_start, p_end = rec.spans[parent][1:3]
                    assert p_start <= start <= end <= p_end
    assert before == (solver.solve, solver.max_positive_count, model.BinaryAdditive.value)


def test_value_counter_sees_solver_calls():
    wl, items, *_ = run.setup("lb_ladder", run.DEFAULT_SEED)
    rec = tracing.Recorder()
    run.run_pass(wl, items[:3], rec)
    op = rec.counts["op"]
    assert op["model.value_calls.additive"] > 0 and op["model.value_calls.gf2"] == 0
    assert op["solver.clean_value"] > 0
    names = {s[0] for s in rec.spans}
    assert {"solver.solve", "solver.nash_optimal", "solver.max_utilitarian_clean",
            "welfare.max_positive_count", "solver.truncate", "model.is_eq1",
            "bounds.lambda_family_poe"} <= names


def test_times_rescale_to_reference_speed():
    ref = run.PROBE_REF_S
    assert run.at_ref_speed(0.01, ref, ref) == 0.01
    assert math.isclose(run.at_ref_speed(0.02, 2 * ref, 2 * ref), 0.01)
    wl, items, *_ = run.setup("lb_ladder", run.DEFAULT_SEED)
    passes = [run.run_pass(wl, items[:4]) for _ in range(3)]
    assert all(len(p.probes) == len(p.seconds) == 4 for p in passes)
    assert all(0 < x for p in passes for pr in p.probes for x in pr)
    # A pass whose probes ran twice as slow counts its op times half.
    slow = run.Pass()
    slow.seconds = list(passes[0].seconds)
    slow.probes = [(2 * a, 2 * b) for a, b in passes[0].probes]
    for got, want in zip(run.median_times([slow]), run.median_times(passes[:1])):
        assert math.isclose(2 * got, want)


def test_refuses_checkout_without_source():
    scratch = run.OUT_DIR / "selftest-bare"
    shutil.rmtree(scratch, ignore_errors=True)
    shutil.copytree(run.HERE, scratch / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", scratch / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "lb_ladder",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=scratch, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except Exception:
            failed += 1
            print(f"FAIL {name}")
            traceback.print_exc()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
