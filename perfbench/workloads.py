"""The four benchmark workloads: seeded instance builders, the timed
operation, the untimed reference check and the CLI-format output documents.

Every workload is a list of ``Item``s built from the seed alone.  Instance
*sizes* sit on a fixed grid and the seed only chooses contents (random
matrices, agent and good permutations, shuffle seeds), so the cost of a pass
changes little from seed to seed while the outputs do change.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from poe_toolkit import bounds, doubly, generators, model, oracle, solver, verify
from poe_toolkit.welfare import NASH, NEG_INF, UTILITARIAN, PParam, max_positive_count

TOL = 1e-9
SOLVE_PS = (UTILITARIAN, NASH, PParam.real(-1), NEG_INF)
DOUBLY_PS = (UTILITARIAN, NASH)
FLOOR_PS = (UTILITARIAN, NASH, PParam.real(-1))


@dataclass
class Item:
    idx: int
    inst: model.Instance
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Instance builders
# ---------------------------------------------------------------------------


def _permuted(rng: random.Random, inst: model.Instance) -> model.Instance:
    """The same instance with agents and goods relabelled by ``rng``."""
    agents = list(range(inst.n))
    goods = list(range(inst.m))
    rng.shuffle(agents)
    rng.shuffle(goods)
    vals = []
    for i in agents:
        v = inst.valuations[i]
        if isinstance(v, model.BinaryAdditive):
            vals.append(model.BinaryAdditive([v.row[g] for g in goods]))
        else:
            cols = v.to_json()["cols"]
            vals.append(model.LinearMatroidGF2(v.rows, [cols[g] for g in goods]))
    return model.Instance(vals)


LB_R = tuple(range(2, 12))
LB_W = tuple(range(2, 7))
LB_COPIES = 2


def build_lb_ladder(seed: int) -> list[Item]:
    """Disjoint-groups family for r in 2..11 and W in 2..6, each rung twice
    under independent relabellings of agents and goods."""
    rng = random.Random(seed)
    items = []
    for r in LB_R:
        for W in LB_W:
            for _ in range(LB_COPIES):
                inst = _permuted(rng, generators.gen_lower_bound_instance(r, W))
                items.append(Item(len(items), inst, {"family": "lb", "r": r, "W": W}))
    return items


GF2_N = tuple(range(12, 33, 4))  # 12, 16, ..., 32
GF2_M_PER_N = (2, 3, 4)
GF2_RANKS = (3, 5, 8)
GF2_FAMILY_K = tuple(range(2, 7))


def build_gf2_corpus(seed: int) -> list[Item]:
    """Random GF(2) matroid instances on a fixed (n, m, rank) grid, half with
    a planted grand-bundle rank W (normalised) and half with a free rank k,
    plus the two-type matroid family for k in 2..6."""
    rng = random.Random(seed)
    items = []
    for n in GF2_N:
        for ratio in GF2_M_PER_N:
            for rank in GF2_RANKS:
                planted = generators.random_matroid_gf2(rng, n, ratio * n, W=rank)
                items.append(Item(len(items), planted, {"family": "gf2", "W": rank}))
                free = generators.random_matroid_gf2(rng, n, ratio * n, k=rank)
                items.append(Item(len(items), free, {"family": "gf2", "W": None}))
    for k in GF2_FAMILY_K:
        inst = generators.gen_submodular_lb_instance(k)
        items.append(Item(len(items), inst, {"family": "submodular_lb", "k": k}))
    return items


DOUBLY_N = (6, 8, 10, 12, 14, 16)
DOUBLY_M_MAX = 24
DOUBLY_PER_N = 11
DOUBLY_COPIES = 2


def doubly_grid() -> list[tuple[int, int, int, int]]:
    """Fixed (n, m, W, W_c) grid with W, W_c >= 2: for each n, up to
    ``DOUBLY_PER_N`` feasible shapes spread evenly over m in 6..24, so both
    the flow route (W_c | W) and the eating route appear."""
    grid = []
    for n in DOUBLY_N:
        shapes = [
            (n, m, W, W_c)
            for m in range(6, DOUBLY_M_MAX + 1)
            for W, W_c in generators.biregular_parameter_choices(n, m)
            if W >= 2 and W_c >= 2 and W < m and W_c < n
        ]
        step = max(1, len(shapes) / DOUBLY_PER_N)
        grid.extend(shapes[int(t * step)] for t in range(min(DOUBLY_PER_N, len(shapes))))
    return grid


def build_doubly_lottery(seed: int) -> list[Item]:
    """Every grid shape ``DOUBLY_COPIES`` times, each with its own seeded
    shuffle of the biregular matrix."""
    rng = random.Random(seed)
    items = []
    for n, m, W, W_c in doubly_grid():
        for _ in range(DOUBLY_COPIES):
            inst = generators.gen_doubly_normalised(n, m, W, W_c, seed=rng.randrange(1 << 30))
            items.append(Item(len(items), inst, {"family": "doubly", "W": W, "W_c": W_c}))
    return items


ORACLE_N = (2, 3, 4)
ORACLE_M = tuple(range(2, 9))
ORACLE_MAX_ASSIGNMENTS = 8192  # leaves out n=4 with m=7 and m=8
ORACLE_STYLES = 4
ORACLE_COPIES = 2


def build_oracle_gates(seed: int) -> list[Item]:
    """The oracle corpus of ``verify.oracle_corpus`` (n <= 4, m <= 8, four
    styles), with every (n, m, style) cell present ``ORACLE_COPIES`` times
    instead of drawn at random, plus ``verify.fixture_instances``.  A drawn corpus
    changes its count of 4^8-assignment instances from seed to seed, which
    would dominate the spread of every timing."""
    rng = random.Random(seed)
    items = []
    for n in ORACLE_N:
        for m in ORACLE_M:
            if n**m > ORACLE_MAX_ASSIGNMENTS:
                continue
            for style in list(range(ORACLE_STYLES)) * ORACLE_COPIES:
                if style == 0:
                    inst = generators.random_binary_additive(rng, n, m)
                elif style == 1:
                    inst = generators.random_binary_additive(rng, n, m, W=rng.randint(1, m))
                elif style == 2:
                    inst = generators.random_matroid_gf2(rng, n, m)
                else:
                    W = rng.randint(1, min(4, m))
                    inst = generators.random_matroid_gf2(rng, n, m, W=W)
                items.append(Item(len(items), inst, {"family": "oracle"}))
    for inst in verify.fixture_instances():
        items.append(Item(len(items), inst, {"family": "fixture"}))
    return items


# ---------------------------------------------------------------------------
# Timed operations
# ---------------------------------------------------------------------------


def op_solve(inst):
    res = solver.solve(inst, SOLVE_PS)
    return res, res.to_json()


def op_doubly(inst):
    lottery = doubly.randomized_allocation(inst)
    res = solver.solve(inst, DOUBLY_PS)
    return lottery, res


def oracle_mismatches(res, orc) -> list[str]:
    """verify's key rule: A* and B keys equal the oracle keys, exactly for
    p in verify.EXACT_P and within verify.FLOAT_TOL otherwise."""
    out = []
    for p in verify.GATE_P_LIST:
        if not verify._keys_match(res.report_a_star.keys[p], orc.best_key[p], p):
            out.append(f"optimal key mismatch at p={p}")
        if not verify._keys_match(res.report_b.keys[p], orc.best_eq1_key[p], p):
            out.append(f"EQ1 key mismatch at p={p}")
    return out


def op_oracle(inst):
    res = solver.solve(inst, verify.GATE_P_LIST)
    orc = oracle.enumerate_allocations(inst, verify.GATE_P_LIST)
    return res, orc, oracle_mismatches(res, orc)


# ---------------------------------------------------------------------------
# Reference checks (untimed, except the oracle comparison)
# ---------------------------------------------------------------------------


def _close(a, b) -> bool:
    return math.isclose(float(a), float(b), rel_tol=TOL, abs_tol=TOL)


def _check_solve_result(inst, res) -> list[str]:
    """Invariants every solve result must meet: both allocations complete,
    B is EQ1, the reported values are the allocations' values, and A* has
    the instance's positive capacity."""
    out = []
    if not res.a_star.is_complete or not res.b.is_complete:
        return ["incomplete allocation"]
    if not model.is_eq1(inst, res.b):
        out.append("B is not EQ1")
    if res.report_a_star.values != res.a_star.values(inst):
        out.append("A* values do not match its report")
    if res.report_b.values != res.b.values(inst):
        out.append("B values do not match its report")
    if res.report_a_star.positive_count != res.report_a_star.restrict:
        out.append("A* misses the positive capacity")
    return out


def _family_poe(meta, p):
    if meta["family"] == "lb":
        return bounds.lambda_family_poe(p, meta["W"], meta["r"])
    return bounds.poe_formula_submodular(p, meta["k"])


def _check_family(item, res) -> list[str]:
    out = []
    for p in SOLVE_PS:
        want, got = _family_poe(item.meta, p), res.poe[p]
        ok = got == want if p == UTILITARIAN else _close(got, want)
        if not ok:
            out.append(f"PoE {got} != family value {want} at p={p}")
    return out


def check_lb(item, out) -> list[str]:
    res, _ = out
    return _check_solve_result(item.inst, res) + _check_family(item, res)


def check_gf2(item, out) -> list[str]:
    res, _ = out
    inst = item.inst
    errs = _check_solve_result(inst, res)
    if item.meta["family"] == "submodular_lb":
        return errs + _check_family(item, res)
    if res.report_a_star.positive_count != max_positive_count(inst):
        errs.append("A* positive count differs from the maximum matching")
    for p in SOLVE_PS:
        if float(res.poe[p]) < 1 - TOL:
            errs.append(f"PoE below 1 at p={p}")
    W = item.meta["W"]
    if W is not None:
        floor = Fraction(W, 2 * inst.n)
        if any(0 < v < floor for v in res.b.values(inst)):
            errs.append(f"positive value in B below W/(2n) = {floor}")
        for p in FLOOR_PS:
            if float(res.poe[p]) > 2 * inst.n + TOL:
                errs.append(f"PoE above 2n at p={p}")
    return errs


def check_doubly(item, out) -> list[str]:
    lottery, res = out
    inst = item.inst
    errs = _check_solve_result(inst, res)
    for p in DOUBLY_PS:
        if res.poe[p] != 1:
            errs.append(f"PoE {res.poe[p]} != 1 at p={p}")
    weights = [w for w, _ in lottery]
    if any(not isinstance(w, Fraction) or w <= 0 for w in weights):
        errs.append("lottery weight not a positive Fraction")
    if sum(weights) != 1:
        errs.append("lottery weights do not sum to 1")
    expected = [Fraction(0)] * inst.n
    for w, alloc in lottery:
        if not alloc.is_complete:
            errs.append("lottery allocation incomplete")
            continue
        if not model.is_eq1(inst, alloc):
            errs.append("lottery allocation not EQ1")
        for i, v in enumerate(alloc.values(inst)):
            expected[i] += w * v
    want = Fraction(item.meta["W"], item.meta["W_c"])
    if any(e != want for e in expected):
        errs.append(f"expected values differ from W/W_c = {want}")
    return errs


def check_oracle(item, out) -> list[str]:
    res, orc, _ = out
    return _check_solve_result(item.inst, res) + oracle_mismatches(res, orc)


# ---------------------------------------------------------------------------
# CLI-format documents (what ``solve`` and ``doubly`` print for each result)
# ---------------------------------------------------------------------------


def doubly_doc(inst, W, W_c, lottery) -> dict:
    """The document ``poe-toolkit doubly`` writes for this lottery."""
    values = [a.values(inst) for _, a in lottery]
    return {
        "W": W,
        "W_c": W_c,
        "weights": [str(w) for w, _ in lottery],
        "allocations": [list(a.owner) for _, a in lottery],
        "expected_values": [
            str(sum(w * vals[i] for (w, _), vals in zip(lottery, values)))
            for i in range(inst.n)
        ],
    }


def docs_solve(item, out) -> list[dict]:
    return [out[1]]


def docs_doubly(item, out) -> list[dict]:
    lottery, res = out
    return [doubly_doc(item.inst, item.meta["W"], item.meta["W_c"], lottery), res.to_json()]


def docs_oracle(item, out) -> list[dict]:
    res, orc, _ = out
    return [res.to_json(), orc.to_json()]


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    build: object
    op: object
    check: object
    docs: object


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lb_ladder", build_lb_ladder, op_solve, check_lb, docs_solve),
        Workload("gf2_corpus", build_gf2_corpus, op_solve, check_gf2, docs_solve),
        Workload("doubly_lottery", build_doubly_lottery, op_doubly, check_doubly, docs_doubly),
        Workload("oracle_gates", build_oracle_gates, op_oracle, check_oracle, docs_oracle),
    )
}
