#!/usr/bin/env python3
"""Seeded benchmark of poe-toolkit.  See README.md in this directory.

    python3 perfbench/run.py --workload lb_ladder --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``.  One process, one client, one instance at a time.  With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer ones; the last line of stdout is the result object.  Spans and run
details are written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

WORKLOAD_NAMES = ("lb_ladder", "gf2_corpus", "doubly_lottery", "oracle_gates")
DEFAULT_SEED = 1
HELD_OUT_SEED = 8191
SETUP_SAMPLES = 5  # this process plus four fresh interpreters
# Seconds the speed probe takes on the build host (Intel Xeon, CPython
# 3.11) in its usual state; timings are reported at this probe speed.
PROBE_REF_S = 0.0005
FORMAT_VERSION = 1  # cli.FORMAT_VERSION, fixed here so the digests are too

# Per-layer seconds over the ``op`` phase of a traced pass:
# metric -> (span name, "total" or "self" time).
LAYER_SPANS = {
    "welfare.max_positive_count_s": ("welfare.max_positive_count", "total"),
    "solver.max_utilitarian_clean_s": ("solver.max_utilitarian_clean", "total"),
    "solver.nash_optimal_self_s": ("solver.nash_optimal", "self"),
    "solver.truncate_self_s": ("solver.truncate", "self"),
    "model.is_eq1_s": ("model.is_eq1", "total"),
    "welfare.welfare_report_s": ("welfare.welfare_report", "total"),
    "solver.diagnostics_s": ("solver.diagnostics", "total"),
    "solver.solve_self_s": ("solver.solve", "self"),
    "solver.to_json_s": ("solver.to_json", "total"),
    "doubly.solve_flow_s": ("doubly.solve_flow", "total"),
    "doubly.eating_matrix_s": ("doubly.eating_matrix", "total"),
    "doubly.bvn_decompose_s": ("doubly.bvn_decompose", "total"),
    "doubly.decode_allocation_s": ("doubly.decode_allocation", "total"),
    "oracle.enumerate_s": ("oracle.enumerate_allocations", "self"),
}
# Exact counters of a traced pass (tracing.Recorder counter keys).
COUNTS = (
    "model.value_calls.additive", "model.value_calls.gf2", "solver.clean_value",
    "doubly.bvn_terms", "oracle.assignments",
)


class SetupError(Exception):
    """The checkout cannot run the benchmark (no package source)."""


_PROBE_KEYS = [(i * 7919) & 1023 for i in range(2400)]
_PROBE_FLOATS = [((i * 2654435761) % 1000003) / 1000003 for i in range(1600)]


def probe() -> float:
    """Seconds for a fixed pure-Python task (dict updates, a sort, small
    list allocations): a gauge of how fast the host runs the interpreter
    right now.  Nothing of the package runs in it."""
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    for k in _PROBE_KEYS:
        counts[k] = counts.get(k, 0) + 1
    sorted(_PROBE_FLOATS)
    [[j, j, j] for j in range(1000)]
    return time.perf_counter() - t0


def at_ref_speed(seconds: float, before: float, after: float) -> float:
    """``seconds`` rescaled to the host running at ``PROBE_REF_S`` probe
    speed, from the probe times just before and just after the work."""
    return seconds * 2 * PROBE_REF_S / (before + after)


def setup(workload: str, seed: int, recorder=None):
    """Import the package, build the workload's instances and warm up on the
    smallest one.  Returns (workload, items, seconds at reference speed,
    wall seconds).  With a recorder, the instance generation is traced as
    the ``build`` phase."""
    before = min(probe() for _ in range(3))
    start = time.perf_counter()
    if not (SRC / "poe_toolkit" / "__init__.py").is_file():
        raise SetupError(f"no package source at {SRC / 'poe_toolkit'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import poe_toolkit
    import workloads

    if Path(poe_toolkit.__file__).resolve().parent != SRC / "poe_toolkit":
        raise SetupError(f"imported {poe_toolkit.__file__}, not the checkout's package")
    wl = workloads.WORKLOADS[workload]
    if recorder is None:
        items = wl.build(seed)
    else:
        with tracing.installed(recorder), recorder.root("build"):
            items = wl.build(seed)
    smallest = min(items, key=lambda it: (it.inst.n * it.inst.m, it.idx))
    wl.op(smallest.inst)
    wall = time.perf_counter() - start
    after = min(probe() for _ in range(3))
    return wl, items, at_ref_speed(wall, before, after), wall


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Set-up seconds (at reference speed, wall) measured in a fresh
    interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True,
    )
    ref, wall = proc.stdout.strip().splitlines()[-1].split()
    return float(ref), float(wall)


def render(docs) -> str:
    """Each document as ``poe-toolkit`` prints it (cli._emit_json)."""
    return "".join(
        json.dumps({"format_version": FORMAT_VERSION, **doc}, indent=2) + "\n" for doc in docs
    )


class Pass:
    """One pass over every item: per-item op seconds, the probe seconds just
    before and just after each op, failures, output digest."""

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.traced = recorder is not None
        self.seconds: list[float] = []
        self.probes: list[tuple[float, float]] = []
        self.failures: list[str] = []
        self.digest = hashlib.sha256()

    @property
    def op_seconds(self) -> float:
        return sum(self.seconds)


def run_pass(wl, items, recorder=None) -> Pass:
    """Closed loop over the items; only ``wl.op`` is inside the timed
    region.  With a recorder, the whole pass runs traced and each item's
    op, check and output rendering run under their own root spans."""
    result = Pass(recorder)
    if recorder is None:
        _loop(wl, items, result, None)
    else:
        with tracing.installed(recorder):
            _loop(wl, items, result, recorder)
    return result


def _loop(wl, items, result: Pass, rec) -> None:
    clock = time.perf_counter
    phase = (lambda name, idx: rec.root(name, idx)) if rec else (lambda name, idx: nullcontext())
    for item in items:
        before = probe()
        with phase("op", item.idx):
            t0 = clock()
            try:
                out, err = wl.op(item.inst), None
            except Exception as exc:  # a raising instance counts as failed
                out, err = None, exc
            result.seconds.append(clock() - t0)
        result.probes.append((before, probe()))
        if err is not None:
            result.failures.append(f"item {item.idx}: raised {type(err).__name__}: {err}")
            result.digest.update(f"item {item.idx} raised\n".encode())
            continue
        with phase("check", item.idx):
            errs = wl.check(item, out)
        if errs:
            result.failures.append(f"item {item.idx} {item.meta}: {'; '.join(errs[:3])}")
        with phase("render", item.idx):
            result.digest.update(render(wl.docs(item, out)).encode())


def _spin() -> float:
    """Seconds for a short fixed loop: a probe of how fast the CPU runs now."""
    t0 = time.perf_counter()
    x = 0
    for i in range(20_000):
        x += i
    return time.perf_counter() - t0


def pin_fastest(cpus: list[int]) -> None:
    """Pin the process to the CPU on which ``_spin`` runs fastest now.

    On the shared 2-vCPU host this was built on, each vCPU slows down by
    1.5x or more for spells of a fraction of a second to tens of seconds,
    independently of the other.  Choosing the faster one before each pass
    makes slow spells rarer."""
    speed = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = min(_spin() for _ in range(3))
    os.sched_setaffinity(0, {min(cpus, key=speed.get)})


def run_passes(wl, items, seconds: float, traced: bool) -> list[Pass]:
    """Whole passes until ``seconds`` are used: a pass starts only if one
    more pass of the longest length so far still fits.  Untraced and traced
    passes alternate when ``traced``.  Each pass runs on the CPU that
    ``pin_fastest`` picks just before it."""
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    passes: list[Pass] = []
    start = time.perf_counter()
    longest = 0.0
    try:
        while True:
            if len(cpus) > 1:
                pin_fastest(cpus)
            t0 = time.perf_counter()
            rec = tracing.Recorder() if traced and len(passes) % 2 == 1 else None
            passes.append(run_pass(wl, items, rec))
            longest = max(longest, time.perf_counter() - t0)
            if len(passes) >= (2 if traced else 1) and time.perf_counter() - start + longest > seconds:
                return passes
    finally:
        if len(cpus) > 1:
            os.sched_setaffinity(0, cpus)


def median_times(passes: list[Pass], ref_speed: bool = True) -> list[float]:
    """Each item's median op time over the passes, each time first rescaled
    to reference speed by the probes around it (``ref_speed``) or as read.

    The host this was built on runs the same code 1.3-2x slower for spells
    from a fraction of a second to minutes; the probe slows with it, so
    the ratio of an op's time to the probes around it moves far less
    between runs than the op's wall time does."""
    per_pass = [
        [at_ref_speed(t, *pr) for t, pr in zip(p.seconds, p.probes)] if ref_speed else p.seconds
        for p in passes
    ]
    return [statistics.median(col) for col in zip(*per_pass)]


def latency_metrics(times: list[float]) -> dict:
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    return {
        "instances_per_s": len(times) / sum(times),
        "latency_p50_ms": 1000 * deciles[4],
        "latency_p90_ms": 1000 * deciles[8],
    }


def end_to_end(passes: list[Pass], setup_samples: list[float]) -> dict:
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return {
        "setup_s": statistics.median(setup_samples),
        **latency_metrics(median_times(passes)),
        "peak_rss_mb": rss_kb / 1024,
    }


def per_layer(build_rec, passes: list[Pass]) -> tuple[dict, list[str]]:
    """Median over the traced passes of each layer's seconds, and the exact
    counters, which every traced pass must repeat."""
    traced = [p for p in passes if p.traced]
    rows = []
    for p in traced:
        op = p.recorder.totals("op")
        row = {}
        for metric, (span, kind) in LAYER_SPANS.items():
            total, self_s = op.get(span, (0.0, 0.0))
            row[metric] = total if kind == "total" else self_s
        check = p.recorder.totals("check")
        row["bounds.reference_s"] = sum(v[0] for k, v in check.items() if k.startswith("bounds."))
        rows.append(row)
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    counts = [p.recorder.counts.get("op", {}) for p in traced]
    problems = []
    for name in COUNTS:
        values = {c.get(name, 0) for c in counts}
        if len(values) != 1:
            problems.append(f"count {name} differs between traced passes: {sorted(values)}")
        metrics[name] = counts[0].get(name, 0)
    build = build_rec.totals("build")
    metrics["generators.build_s"] = sum(v[1] for k, v in build.items() if k.startswith("generators."))
    enum_s = metrics["oracle.enumerate_s"]
    metrics["oracle.assignments_per_s"] = metrics["oracle.assignments"] / enum_s if enum_s else 0.0
    untraced = [p for p in passes if not p.traced]
    overhead = sum(median_times(traced)) / sum(median_times(untraced)) - 1
    metrics["trace.overhead_pct"] = 100 * overhead
    return metrics, problems


def git_commit() -> str | None:
    """Commit of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def expected_digest(workload: str, seed: int) -> str | None:
    recorded = json.loads((HERE / "digests.json").read_text())
    return recorded.get(workload, {}).get(str(seed))


def write_out(name: str, doc: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / name).write_text(json.dumps(doc, indent=1) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    try:
        if args.setup_probe:
            print(*setup(args.workload, args.seed)[2:])
            return 0
        build_rec = tracing.Recorder() if args.trace else None
        wl, items, *setup_s = setup(args.workload, args.seed, build_rec)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setup_samples = [tuple(setup_s)]
    if not args.trace:
        setup_samples += [probe_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]

    passes = run_passes(wl, items, args.seconds, traced=bool(args.trace))
    untraced = [p for p in passes if not p.traced]
    problems = []
    attempted = sum(len(p.seconds) for p in passes)
    failures = [f for p in passes for f in p.failures]
    digests = sorted({p.digest.hexdigest() for p in passes})
    if len(digests) != 1:
        problems.append("output digest differs between passes")
    expected = expected_digest(args.workload, args.seed)
    if expected is not None and digests != [expected]:
        problems.append(f"output digest {digests} != recorded {expected}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        values, trace_problems = per_layer(build_rec, passes)
        problems += trace_problems
        declared = spec["per_layer"]
    else:
        values = end_to_end(untraced, [s[0] for s in setup_samples])
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "seconds": args.seconds,
        "instances": len(items),
        "passes": len(passes),
        "pass_op_seconds": [p.op_seconds for p in passes],
        "latency_samples": len(items),
        "setup_samples": [s[0] for s in setup_samples],
        "setup_wall_samples": [s[1] for s in setup_samples],
        "error_rate": len(failures) / attempted,
        "digest": digests[0] if len(digests) == 1 else digests,
        "digest_recorded": expected,
        "problems": problems,
        "failures": failures[:20],
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "commit": git_commit(),
    }
    info["wall"] = {
        "setup_s": statistics.median(s[1] for s in setup_samples),
        **latency_metrics(median_times(untraced, ref_speed=False)),
        "probe_median_s": statistics.median(x for p in untraced for pr in p.probes for x in pr),
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    write_out(f"{stem}.run.json", {
        **info,
        "metrics": metrics,
        "median_op_seconds": median_times(untraced),
        "samples": [{"seconds": p.seconds, "probes": p.probes} for p in untraced],
    })
    if args.trace:
        write_out(f"{stem}.spans.json", {
            "fields": ["name", "start", "end", "parent", "instance", "phase"],
            "build": build_rec.spans,
            "passes": [p.recorder.spans for p in passes if p.traced],
        })
    print(json.dumps({"run": info}))
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
