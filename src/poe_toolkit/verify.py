"""Self-contained verification gates: solver output against the exhaustive
oracle and against the closed-form guarantees.  Each gate checks whatever
instances it is given; each has a seeded corpus here, and
``run_verification`` (the command-line ``verify`` subcommand) pairs them.
The acceptance tests run all four gates on larger corpora of their own.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, replace
from fractions import Fraction

from .bounds import rank_of_instance
from .doubly import doubly_degrees, expected_values, randomized_allocation
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
from .oracle import DEFAULT_BUDGET, BudgetExceededError, OracleResult, enumerate_allocations
from .solver import SolveResult, solve
from .welfare import NASH, NEG_INF, PParam, UTILITARIAN, welfare_report

GATE_P_LIST = (UTILITARIAN, PParam.real(Fraction(1, 2)), NASH, PParam.real(-1), NEG_INF)
EXACT_P = (UTILITARIAN, NASH, NEG_INF)
FLOAT_TOL = 1e-9


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


def fixture_instances() -> list[Instance]:
    return [
        gen_lower_bound_instance(2, 2),
        gen_lower_bound_instance(3, 2),
        gen_submodular_lb_instance(2),
        example1_instance(),
        remark_3x4_instance(),
    ]


def _run_gate(name: str, instances, check) -> GateResult:
    """Run ``check`` (instance -> failure messages) on each instance of an
    iterable corpus, timing the whole gate.  Each failure in the detail names
    its 0-based case index; a case that raises fails with the exception
    named, and only an oracle budget refusal propagates."""
    start = time.perf_counter()
    instances = list(instances)
    failures = []
    for idx, inst in enumerate(instances):
        try:
            failures += [f"case {idx}: {msg}" for msg in check(inst)]
        except BudgetExceededError:
            raise
        except Exception as exc:
            failures.append(f"case {idx}: raised {type(exc).__name__}: {exc}")
    return GateResult(
        name=name,
        passed=not failures,
        cases=len(instances),
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


def gate_optimal_allocations(instances, budget: int) -> GateResult:
    """Solver A* and B attain the oracle-optimal keys for every p, the
    sorted A* vector is the oracle leximin vector, and B is EQ1."""

    def check(inst):
        res = solve(inst, GATE_P_LIST)
        orc = enumerate_allocations(inst, GATE_P_LIST, budget=budget)
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
    gives every agent exactly W/W_c in expectation."""
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
        W, W_c = doubly_degrees(inst)
        if expected_values(inst, lottery) != [Fraction(W, W_c)] * inst.n:
            yield "expected values are not W/W_c"

    return _run_gate("doubly-normalised", instances, check)


def gate_self_test(budget: int) -> GateResult:
    """Swap two goods of the truncated allocation so it stops being EQ1,
    then run the oracle gate's check on the result with that B.

    The gate is expected to FAIL: a failing result here means the check
    works; a passing one means the corruption went undetected."""
    start = time.perf_counter()
    inst = gen_lower_bound_instance(2, 2)
    res = solve(inst, GATE_P_LIST)
    orc = enumerate_allocations(inst, GATE_P_LIST, budget=budget)
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
    detected = any(_optimality_failures(inst, bad, orc))
    return GateResult(
        name="self-test(corrupted-B)",
        passed=not detected,
        cases=1,
        seconds=time.perf_counter() - start,
        detail="injected corruption "
        + ("detected (expected failure)" if detected else "went undetected"),
    )


def run_verification(
    budget: int = DEFAULT_BUDGET, seed: int = 20240, self_test: bool = False,
) -> list[GateResult]:
    gates = [
        gate_optimal_allocations(oracle_corpus(seed, 60) + fixture_instances(), budget),
        gate_rank_bound(rank_corpus(seed + 1, 80)),
        gate_matroid_floor(matroid_corpus(seed + 2, 40)),
        gate_doubly(doubly_corpus(seed + 3, 40)),
    ]
    if self_test:
        gates.append(gate_self_test(budget))
    return gates
