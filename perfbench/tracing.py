"""Span recorder and counters for the traced pass.

The recorder is installed from outside the package: each traced function is
replaced by a wrapper in every ``poe_toolkit`` module namespace that holds
it (``solver`` calls ``max_positive_count`` through its own import, for
instance), and the two ``value`` methods are wrapped on their classes.
``installed`` restores every original on exit, so untraced passes run the
package exactly as shipped.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager

# module -> functions recorded as spans named "<module>.<function>".
SPANNED = {
    "generators": (
        "gen_lower_bound_instance", "gen_submodular_lb_instance", "gen_doubly_normalised",
        "random_binary_additive", "random_matroid_gf2", "example1_instance",
        "remark_3x4_instance",
    ),
    "welfare": ("max_positive_count", "welfare_report"),
    "solver": ("solve", "nash_optimal", "max_utilitarian_clean", "truncate", "diagnostics"),
    "model": ("is_eq1",),
    "doubly": (
        "randomized_allocation", "solve_flow", "eating_matrix", "bvn_decompose",
        "decode_allocation",
    ),
    "oracle": ("enumerate_allocations",),
    "bounds": ("lambda_family_poe", "poe_formula_submodular"),
}
# (module, class, method, span name)
SPANNED_METHODS = (("solver", "SolveResult", "to_json", "solver.to_json"),)
# (module, class, counter kind): every call of ``value`` is counted.
COUNTED_VALUE = (("model", "BinaryAdditive", "additive"), ("model", "LinearMatroidGF2", "gf2"))


def _clean_value(alloc) -> int:
    # A clean allocation's value is its number of assigned goods; counting
    # them avoids value() calls that would inflate the counters.
    return sum(1 for a in alloc.owner if a >= 0)


# Counters derived from a traced function's result.
RESULT_COUNTERS = {
    "solver.max_utilitarian_clean": ("solver.clean_value", _clean_value),
    "doubly.bvn_decompose": ("doubly.bvn_terms", lambda d: len(d.terms)),
    "oracle.enumerate_allocations": ("oracle.assignments", lambda r: r.enumeration_count),
}


class Recorder:
    """Spans and counters of one traced pass, kept in memory.

    A span is ``[name, start, end, parent, instance, phase]`` with ``parent``
    the index of the enclosing span (None for a root).  Every span and
    counter belongs to the phase of its root span: ``build`` (instance
    generation), ``op`` (the timed operation) or ``check`` (the reference
    check).
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.instance: int | None = None
        self.phase = "idle"
        self.counts: dict[str, Counter] = {}
        self.counter = Counter()

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.instance, self.phase])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def root(self, phase: str, instance: int | None = None):
        """Root span for one phase of one instance."""
        self.phase, self.instance = phase, instance
        self.counter = self.counts.setdefault(phase, Counter())
        sid = self.open(phase)
        try:
            yield
        finally:
            self.close(sid)
            self.phase, self.instance = "idle", None
            self.counter = Counter()

    def totals(self, phase: str) -> dict[str, tuple[float, float]]:
        """Span name -> (total seconds, self seconds) over one phase; self
        time is a span's duration minus its direct children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, list[float]] = {}
        for sid, (name, start, end, _, _, ph) in enumerate(self.spans):
            if ph == phase:
                acc = out.setdefault(name, [0.0, 0.0])
                acc[0] += end - start
                acc[1] += end - start - child[sid]
        return {k: (v[0], v[1]) for k, v in out.items()}


def _span_wrapper(rec: Recorder, name: str, fn):
    derived = RESULT_COUNTERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(sid)
        if derived is not None:
            rec.counter[derived[0]] += derived[1](result)
        return result

    return wrapper


def _count_wrapper(rec: Recorder, key: str, fn):
    @functools.wraps(fn)
    def wrapper(self, bundle):
        rec.counter[key] += 1
        return fn(self, bundle)

    return wrapper


@contextmanager
def installed(rec: Recorder):
    """Route the traced functions and methods through ``rec``."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "poe_toolkit" or n.startswith("poe_toolkit."))]
    patches: list[tuple[object, str, object]] = []

    def patch(owner, attr, new):
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    try:
        for mod_name, names in SPANNED.items():
            mod = sys.modules[f"poe_toolkit.{mod_name}"]
            for fname in names:
                orig = getattr(mod, fname)
                wrapped = _span_wrapper(rec, f"{mod_name}.{fname}", orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            patch(m, attr, wrapped)
        for mod_name, cls_name, meth, span in SPANNED_METHODS:
            cls = getattr(sys.modules[f"poe_toolkit.{mod_name}"], cls_name)
            patch(cls, meth, _span_wrapper(rec, span, getattr(cls, meth)))
        for mod_name, cls_name, kind in COUNTED_VALUE:
            cls = getattr(sys.modules[f"poe_toolkit.{mod_name}"], cls_name)
            patch(cls, "value", _count_wrapper(rec, f"model.value_calls.{kind}", cls.value))
        yield rec
    finally:
        for owner, attr, orig in reversed(patches):
            setattr(owner, attr, orig)
