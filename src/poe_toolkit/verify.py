"""Self-contained verification gates: solver output against the exhaustive
oracle, against the closed-form guarantees and against the families' exact
price of equity.  Each gate checks whatever cases it is given; each has a
seeded corpus here, and ``run_verification`` (the command-line ``verify``
subcommand) pairs them and adds ``gate_self_test``, which checks the oracle
gate's own check, last.  The tests run the instance gates on corpora of
their own.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, replace
from fractions import Fraction

from .bounds import lambda_family_poe, poe_formula_submodular, rank_of_instance
from .doubly import expected_values, randomized_allocation
from .generators import (
    example1_instance,
    gen_lower_bound_instance,
    gen_submodular_lb_instance,
    random_binary_additive,
    random_biregular,
    random_matroid_gf2,
    remark_3x4_instance,
)
from .model import Allocation, Instance, is_eq1, wasted_goods
from .oracle import OracleResult, enumerate_allocations
from .solver import SolveResult, solve
from .welfare import NASH, NEG_INF, PParam, UTILITARIAN, welfare_report

GATE_P_LIST = (UTILITARIAN, PParam.real(Fraction(1, 2)), NASH, PParam.real(-1), NEG_INF)
EXACT_P = frozenset((UTILITARIAN, NASH, NEG_INF))
FLOAT_TOL = 1e-9
DEFAULT_SEED = 20240


@dataclass
class GateResult:
    name: str
    passed: bool
    cases: int
    seconds: float
    detail: str = ""


def _keys_match(key_a, key_b, p: PParam) -> bool:
    (c1, w1), (c2, w2) = key_a, key_b
    if c1 != c2:
        return False
    if p in EXACT_P:
        return w1 == w2
    return math.isclose(float(w1), float(w2), rel_tol=FLOAT_TOL, abs_tol=FLOAT_TOL)


def oracle_corpus(seed: int, count: int) -> list[Instance]:
    """Seeded mix of small additive and matroid instances (n <= 4, m <= 8)."""
    rng = random.Random(seed)
    out: list[Instance] = []
    while len(out) < count:
        n = rng.randint(2, 4)
        m = rng.randint(2, 8)
        style = rng.randrange(4)
        if style == 0:
            out.append(random_binary_additive(rng, n, m))
        elif style == 1:
            W = rng.randint(1, m)
            out.append(random_binary_additive(rng, n, m, W=W))
        elif style == 2:
            out.append(random_matroid_gf2(rng, n, m))
        else:
            out.append(random_matroid_gf2(rng, n, m, W=rng.randint(1, min(4, m))))
    return out


def rank_corpus(seed: int, count: int) -> list[Instance]:
    """Seeded normalised binary additive instances with every good valued
    (n <= 6, m <= 12)."""
    rng = random.Random(seed)
    out: list[Instance] = []
    for _ in range(count):
        n, m = rng.randint(2, 6), rng.randint(2, 12)
        W = rng.randint(max(1, -(-m // n)), m)
        out.append(random_binary_additive(rng, n, m, W=W, every_good_valued=True))
    return out


def matroid_corpus(seed: int, count: int) -> list[Instance]:
    """The submodular family at k = 2, 3, 4, then seeded normalised GF(2)
    instances (n <= 6, m <= 10) up to ``count``."""
    rng = random.Random(seed)
    out = [gen_submodular_lb_instance(k) for k in (2, 3, 4)]
    for _ in range(count - 3):
        n, m = rng.randint(2, 6), rng.randint(2, 10)
        out.append(random_matroid_gf2(rng, n, m, W=rng.randint(1, min(5, m))))
    return out


def doubly_corpus(seed: int, count: int) -> list[Instance]:
    """Example 1, then seeded biregular instances (n <= 10, m <= 12) up to
    ``count``."""
    rng = random.Random(seed)
    return [example1_instance()] + [random_biregular(rng, 10, 12) for _ in range(count - 1)]


def lb_case(r: int, W: int):
    """The lower-bound family instance (r, W) with its exact price of
    equity, ``lambda_family_poe``, as a function of p."""
    return gen_lower_bound_instance(r, W), lambda p: lambda_family_poe(p, W, r)


def submodular_case(k: int):
    """The two-type matroid family instance k with its exact price of
    equity, ``poe_formula_submodular``, as a function of p."""
    return gen_submodular_lb_instance(k), lambda p: poe_formula_submodular(p, k)


def closed_form_corpus(seed: int, count: int) -> list:
    """lb(64, 64) and submodular_lb k = 32 and 64 with their closed forms,
    then seeded draws up to ``count``: lb(r, W) with r in [2, 64] and W in
    [1, 64], or submodular_lb with k in [1, 32]."""
    rng = random.Random(seed)
    out = [lb_case(64, 64), submodular_case(32), submodular_case(64)]
    for _ in range(count - 3):
        if rng.randrange(2):
            out.append(lb_case(rng.randint(2, 64), rng.randint(1, 64)))
        else:
            out.append(submodular_case(rng.randint(1, 32)))
    return out


def fixture_instances() -> list[Instance]:
    return [
        gen_lower_bound_instance(2, 2),
        gen_lower_bound_instance(3, 2),
        gen_submodular_lb_instance(2),
        example1_instance(),
        remark_3x4_instance(),
    ]


def _run_gate(name: str, cases, check) -> GateResult:
    """Run ``check`` (case -> failure messages) on each case of an iterable
    corpus, timing the whole gate.  Each failure in the detail names
    its 0-based case index; a case that raises, an oracle budget refusal
    included, fails with the exception named."""
    start = time.perf_counter()
    cases = list(cases)
    failures = []
    for idx, case in enumerate(cases):
        try:
            failures += [f"case {idx}: {msg}" for msg in check(case)]
        except Exception as exc:
            failures.append(f"case {idx}: raised {type(exc).__name__}: {exc}")
    return GateResult(
        name=name,
        passed=not failures,
        cases=len(cases),
        seconds=time.perf_counter() - start,
        detail="; ".join(failures[:5]),
    )


def _optimality_failures(inst: Instance, res: SolveResult, orc: OracleResult):
    """Yield how ``solve``'s result ``res`` falls short of the oracle's
    ``orc``, both over ``GATE_P_LIST``: A* and B must attain the oracle keys
    for every p, sorted A* must be the leximin vector, and B must be EQ1."""
    for p in GATE_P_LIST:
        if not _keys_match(res.report_a_star.keys[p], orc.best_key[p], p):
            yield f"optimal key mismatch at p={p}"
        if not _keys_match(res.report_b.keys[p], orc.best_eq1_key[p], p):
            yield f"EQ1 key mismatch at p={p}"
    if tuple(sorted(res.a_star.values(inst))) != orc.leximin:
        yield "optimum is not leximin"
    if not is_eq1(inst, res.b):
        yield "B is not EQ1"


def gate_optimal_allocations(instances) -> GateResult:
    """Solver A* and B attain the oracle-optimal keys for every p, the
    sorted A* vector is the oracle leximin vector, and B is EQ1."""

    def check(inst):
        res = solve(inst, GATE_P_LIST)
        orc = enumerate_allocations(inst, GATE_P_LIST)
        return _optimality_failures(inst, res, orc)

    return _run_gate("oracle-optimality", instances, check)


def gate_rank_bound(instances) -> GateResult:
    """Utilitarian price of equity <= instance rank, and the wasted-good
    count of B is at most m(1 - 1/rank), on normalised additive instances
    with every good valued."""

    def check(inst):
        rank = rank_of_instance(inst)
        res = solve(inst, [UTILITARIAN])
        poe = res.poe[UTILITARIAN]
        if poe > rank:
            yield f"PoE {poe} > rank {rank}"
        waste = len(wasted_goods(inst, res.b))
        if Fraction(waste) > Fraction(inst.m) * (1 - Fraction(1, rank)):
            yield f"{waste} wasted goods exceed the rank bound"

    return _run_gate("rank-bound", instances, check)


def gate_matroid_floor(instances) -> GateResult:
    """On normalised matroid instances, every positive-value agent in B has
    value >= W/(2n), and the price of equity is at most 2n for p in
    {1, nash, -1}."""
    p_check = (UTILITARIAN, NASH, PParam.real(-1))

    def check(inst):
        res = solve(inst, p_check)
        floor = Fraction(inst.normalisation(), 2 * inst.n)
        for v in res.b.values(inst):
            if v > 0 and v < floor:
                yield f"positive value {v} below floor {floor}"
        for p in p_check:
            poe = res.poe[p]
            bound = 2 * inst.n
            ok = poe <= bound if isinstance(poe, Fraction) else float(poe) <= bound + FLOAT_TOL
            if not ok:
                yield f"PoE {poe} above 2n at p={p}"

    return _run_gate("matroid-floor", instances, check)


def gate_doubly(instances) -> GateResult:
    """On biregular instances the price of equity is exactly 1 for p = 1
    and Nash, and ``randomized_allocation``'s lottery (flow or eating route)
    is a lottery over complete EQ1 allocations whose positive ``Fraction``
    weights sum to 1, each with ``solve``'s B key for p = 1 and Nash, that
    gives every agent exactly W/W_c in expectation, read as m/n (equal on a
    doubly normalised instance) without detecting W and W_c again."""
    p_check = (UTILITARIAN, NASH)

    def check(inst):
        res = solve(inst, p_check)
        for p in p_check:
            if res.poe[p] != 1:
                yield f"PoE {res.poe[p]} != 1 at p={p}"
        lottery = randomized_allocation(inst)
        weights = [w for w, _ in lottery]
        if not all(type(w) is Fraction and w > 0 for w in weights) or sum(weights) != 1:
            yield "lottery weights are not positive Fractions summing to 1"
        for _, alloc in lottery:
            if not alloc.is_complete or not is_eq1(inst, alloc):
                yield "lottery allocation is not complete and EQ1"
                return
            rep = welfare_report(inst, alloc, p_check, restrict=res.report_b.restrict)
            if any(rep.keys[p] != res.report_b.keys[p] for p in p_check):
                yield "lottery allocation key differs from B's"
                return
        if expected_values(inst, lottery) != [Fraction(inst.m, inst.n)] * inst.n:
            yield "expected values are not W/W_c"

    return _run_gate("doubly-normalised", instances, check)


def gate_closed_forms(cases) -> GateResult:
    """On each (instance, closed form) case, ``solve``'s price of equity is
    the closed form at every p of ``GATE_P_LIST``: exactly at p = 1, where
    both are Fractions, and within ``FLOAT_TOL`` relative elsewhere."""

    def check(case):
        inst, formula = case
        poe = solve(inst, GATE_P_LIST).poe
        for p in GATE_P_LIST:
            got, want = poe[p], formula(p)
            ok = got == want if p == UTILITARIAN else math.isclose(got, want, rel_tol=FLOAT_TOL)
            if not ok:
                yield f"PoE {got} != closed form {want} at p={p}"

    return _run_gate("closed-forms", cases, check)


def gate_self_test() -> GateResult:
    """Swap two goods of the truncated allocation of the lower-bound
    instance (2, 2) so it stops being EQ1, then run the oracle gate's check
    on the result with that B.  The gate passes when the check detects the
    corruption, and fails with ``injected corruption went undetected`` when
    it does not."""

    def check(inst):
        res = solve(inst, GATE_P_LIST)
        orc = enumerate_allocations(inst, GATE_P_LIST)
        owner = res.b.owner
        trials = (  # good h handed to good g's owner
            Allocation([owner[g] if k == h else a for k, a in enumerate(owner)], inst.n)
            for g in range(inst.m)
            for h in range(inst.m)
            if owner[g] != owner[h]
        )
        corrupted = next((cand for cand in trials if not is_eq1(inst, cand)), None)
        if corrupted is None:
            raise RuntimeError("self-test harness could not corrupt the allocation")
        report_b = welfare_report(inst, corrupted, GATE_P_LIST, restrict=res.report_b.restrict)
        bad = replace(res, b=corrupted, report_b=report_b)
        if not any(_optimality_failures(inst, bad, orc)):
            yield "injected corruption went undetected"

    return _run_gate("self-test(corrupted-B)", [gen_lower_bound_instance(2, 2)], check)


def run_verification(seed: int = DEFAULT_SEED) -> list[GateResult]:
    """Every gate on its corpus from ``seed`` (the corpora are drawn from
    ``seed`` to ``seed + 4``), the self-test last.  A negative seed is
    refused: ``random.Random`` seeds from its absolute value, so it would
    rerun the corpora of its positive twin."""
    if seed < 0:
        raise ValueError(f"seed {seed} is negative")
    return [
        gate_optimal_allocations(oracle_corpus(seed, 60) + fixture_instances()),
        gate_rank_bound(rank_corpus(seed + 1, 80)),
        gate_matroid_floor(matroid_corpus(seed + 2, 40)),
        gate_doubly(doubly_corpus(seed + 3, 40)),
        gate_closed_forms(closed_form_corpus(seed + 4, 12)),
        gate_self_test(),
    ]
