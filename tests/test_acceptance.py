"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Everything is seeded; the whole suite is deterministic and finishes
in well under five minutes.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from poe_toolkit.bounds import (
    lambda_family_poe,
    poe_lower_bound,
    poe_upper_bound,
    proof_rule_W,
)
from poe_toolkit.doubly import bvn_decompose, eating_matrix, randomized_allocation
from poe_toolkit.generators import (
    example1_instance,
    gen_lower_bound_instance,
    gen_submodular_lb_instance,
    random_biregular,
    random_matroid_gf2,
    unnormalised_2agent_instance,
)
from poe_toolkit.model import Allocation, Instance, is_eq1
from poe_toolkit.oracle import enumerate_allocations
from poe_toolkit.solver import max_utilitarian_clean, solve
from poe_toolkit.verify import (
    fixture_instances,
    gate_closed_forms,
    gate_doubly,
    gate_matroid_floor,
    gate_optimal_allocations,
    gate_rank_bound,
    lb_case,
    matroid_corpus,
    oracle_corpus,
    rank_corpus,
)
from poe_toolkit.welfare import NASH, NEG_INF, PParam, UTILITARIAN, p_mean

ENVELOPE_PS = (
    UTILITARIAN,
    PParam.real(Fraction(9, 10)),
    PParam.real(Fraction(1, 2)),
    PParam.real(Fraction(1, 10)),
    NASH,
    PParam.real(Fraction(-1, 2)),
    PParam.real(-1),
    PParam.real(-2),
    PParam.real(-10),
)
TOL = 1e-9


def _finish(num: int, label: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status}: {label}")
    assert not failures, f"criterion {num}: " + "; ".join(failures[:10])


@pytest.fixture(scope="module")
def additive_corpus():
    """200 instances of the rank gate's corpus (normalised binary additive,
    every good valued), solved once across the envelope grid (shared by
    criteria 4 and 5)."""
    return [(inst, solve(inst, ENVELOPE_PS)) for inst in rank_corpus(0xACCE, 200)]


def test_criterion_01_family_exactness():
    failures = []
    for r in (2, 3, 4, 5):
        for W in (1, 2, 3, 4):
            s = r - 1
            if lambda_family_poe(UTILITARIAN, W, r) != Fraction(W + s * W, W + s):
                failures.append(f"(r={r}, W={W}): formula is not (W+sW)/(W+s)")
    gate = gate_closed_forms(lb_case(r, W) for r in (2, 3, 4, 5) for W in (1, 2, 3, 4))
    if not gate.passed:
        failures.append(f"PoE differs from the closed form: {gate.detail}")
    inst = gen_lower_bound_instance(2, 2)
    orc = enumerate_allocations(inst, [UTILITARIAN])
    if orc.enumeration_count != 256:
        failures.append("oracle did not enumerate 256 assignments")
    if orc.poe[UTILITARIAN] != Fraction(4, 3):
        failures.append("oracle PoE != 4/3")
    gate = gate_optimal_allocations([inst])
    if not gate.passed:
        failures.append(f"A* and B unconfirmed: {gate.detail}")
    _finish(1, "lower-bound family PoE is its closed form for p in {1, 1/2, nash, -1, -inf}, "
               "exactly (W+sW)/(W+s) at p=1; (2,2) oracle-confirmed", failures)


def test_criterion_02_w_rules():
    failures = []
    for s in (2, 3, 4):
        res = solve(gen_lower_bound_instance(s + 1, proof_rule_W(UTILITARIAN, s)), [UTILITARIAN])
        if res.poe[UTILITARIAN] != s:
            failures.append(f"p=1 s={s}: PoE {res.poe[UTILITARIAN]} != {s}")
    for s in (4, 8, 16):
        res = solve(gen_lower_bound_instance(s + 1, proof_rule_W(NASH, s)), [NASH])
        target = s / (math.e * math.log(s))
        if float(res.poe[NASH]) < target:
            failures.append(f"p=0 s={s}: PoE {res.poe[NASH]} < {target}")
    p = PParam.real(-1)
    for s in (4, 9, 16):
        res = solve(gen_lower_bound_instance(s + 1, proof_rule_W(p, s)), [p])
        target = 0.5 * math.sqrt(s) - 0.05
        if float(res.poe[p]) < target:
            failures.append(f"p=-1 s={s}: PoE {res.poe[p]} < {target}")
    _finish(2, "proof W-rules: PoE exactly s at p=1, above s/(e ln s) at p=0, "
               "above s^(1/2)/2 - 0.05 at p=-1", failures)


def test_criterion_03_oracle_gates():
    instances = (oracle_corpus(0x03AC, 200) + fixture_instances()
                 + [unnormalised_2agent_instance(6)])
    gate = gate_optimal_allocations(instances)
    failures = [gate.detail] if not gate.passed else []
    _finish(3, f"A* and B attain the oracle keys on {gate.cases} instances "
               "for p in {1, 1/2, nash, -1, -inf}; sorted A* is the leximin vector", failures)


def test_criterion_04_rank_and_waste(additive_corpus):
    gate = gate_rank_bound(inst for inst, _ in additive_corpus)
    failures = [gate.detail] if not gate.passed else []
    _finish(4, "utilitarian PoE <= rank and |wasted(B)| <= m(1 - 1/rank) on "
               f"{gate.cases} normalised instances (exact)", failures)


def test_criterion_05_envelope(additive_corpus):
    failures = []
    for p in ENVELOPE_PS:
        for r in range(2, 65):
            try:
                lower = poe_lower_bound(p, r)
            except ValueError:
                continue  # Nash lower bound undefined at s = 1
            if lower > poe_upper_bound(p, r) + 1e-12:
                failures.append(f"lower > upper at (p={p}, r={r})")
    for idx, (inst, res) in enumerate(additive_corpus):
        if inst.r < 2:
            continue
        for p in ENVELOPE_PS:
            if float(res.poe[p]) > poe_upper_bound(p, inst.r) + TOL:
                failures.append(f"#{idx}: PoE above the envelope at p={p}")
    _finish(5, "bound envelope holds on the (p, r) grid and dominates every "
               "solved corpus instance", failures)


def test_criterion_06_doubly_normalised():
    failures = []
    inst = example1_instance()
    eat = eating_matrix(inst)
    nonzero = {x for row in eat.entries for x in row if x}
    if nonzero != {Fraction(1, 3), Fraction(1, 6), Fraction(1, 4)}:
        failures.append(f"eating entries {sorted(nonzero)}")
    dec = bvn_decompose(eat)
    if sum(w for w, _ in dec.terms) != 1:
        failures.append("weights do not sum to 1")
    dim = eat.dim
    recon = [[Fraction(0)] * dim for _ in range(dim)]
    for w, perm in dec.terms:
        for r, c in enumerate(perm):
            recon[r][c] += w
    if recon != [list(row) for row in eat.entries]:
        failures.append("reconstruction not exact")
    for w, alloc in randomized_allocation(inst):
        if not is_eq1(inst, alloc) or sum(alloc.values(inst)) != 6:
            failures.append("decoded allocation not EQ1 with welfare 6")
            break

    rng = random.Random(0xD0B1)
    gate = gate_doubly([random_biregular(rng, 12, 12) for _ in range(200)])
    if not gate.passed:
        failures.append(gate.detail)
    _finish(6, "eating matrix exact on the fixture; BvN reconstructs exactly; "
               f"PoE = 1 and an EQ1 lottery worth W/W_c ex ante on {gate.cases} "
               "biregular instances", failures)


def test_criterion_07_matroid_bounds():
    failures = []
    for k in (2, 3, 4):
        inst = gen_submodular_lb_instance(k)
        best = Allocation(max_utilitarian_clean(inst).owner, inst.n)
        if sum(best.values(inst)) != k + k * k:
            failures.append(f"k={k}: optimal welfare != k + k^2")
        res = solve(inst, [UTILITARIAN])
        if sum(res.b.values(inst)) > 3 * k:
            failures.append(f"k={k}: B welfare above 3k")
    gate = gate_matroid_floor(matroid_corpus(0x07A7, 103))
    if not gate.passed:
        failures.append(gate.detail)
    _finish(7, "matroid family welfare k+k^2 with B <= 3k; corpus floor W/(2n) "
               "and PoE <= 2n", failures)


def test_criterion_08_identical_matroids():
    rng = random.Random(0x08A8)
    p_check = (UTILITARIAN, NASH, PParam.real(-1), NEG_INF)
    failures = []
    for idx in range(100):
        n, m = rng.randint(2, 5), rng.randint(1, 8)
        inst = Instance(random_matroid_gf2(rng, 1, m).valuations * n)
        res = solve(inst, p_check)
        for p in p_check:
            if res.poe[p] != 1:
                failures.append(f"#{idx}: PoE {res.poe[p]} != 1 at p={p}")
    _finish(8, "identical matroid valuations: PoE exactly 1 for p in "
               "{1, nash, -1, -inf} on 100 instances", failures)


def test_criterion_09_welfare_math():
    rng = random.Random(0x09A9)
    failures = []
    ps = (UTILITARIAN, PParam.real(Fraction(1, 2)), NASH, PParam.real(-1),
          PParam.real(-10), NEG_INF)

    for trial in range(1000):  # concavity of the p-mean
        n = rng.randint(2, 6)
        x = [rng.uniform(0.1, 20) for _ in range(n)]
        y = [rng.uniform(0.1, 20) for _ in range(n)]
        t = rng.random()
        mix = [t * a + (1 - t) * b for a, b in zip(x, y)]
        for p in ps:
            lhs = float(p_mean(mix, p, n))
            rhs = t * float(p_mean(x, p, n)) + (1 - t) * float(p_mean(y, p, n))
            if lhs < rhs - TOL:
                failures.append(f"concavity trial {trial} p={p}")

    for trial in range(1000):  # averaging a subset never hurts
        n = rng.randint(2, 6)
        x = [rng.uniform(0.1, 20) for _ in range(n)]
        size = rng.randint(1, n)
        subset = rng.sample(range(n), size)
        avg = sum(x[i] for i in subset) / size
        y = [avg if i in subset else v for i, v in enumerate(x)]
        for p in ps:
            if float(p_mean(y, p, n)) < float(p_mean(x, p, n)) - TOL:
                failures.append(f"averaging trial {trial} p={p}")

    for trial in range(1000):  # power-mean inequality directions
        l = rng.randint(1, 6)
        x = [rng.uniform(0.1, 20) for _ in range(l)]
        mean = sum(x) / l
        for pv in (0.0, 0.3, 0.7, 1.0):
            q = 1 - pv
            if sum(v ** q for v in x) / l > mean ** q + TOL:
                failures.append(f"jensen trial {trial} p={pv}")
        for pv in (-0.5, -2.0):
            q = 1 - pv
            if sum(v ** q for v in x) / l < mean ** q - TOL:
                failures.append(f"jensen trial {trial} p={pv}")

    _finish(9, "concavity, subset-averaging, and power-mean inequalities on "
               "1000 random vectors each", failures)


def test_criterion_10_unnormalised_example():
    failures = []
    for k in (6, 9):
        orc = enumerate_allocations(unnormalised_2agent_instance(k), [UTILITARIAN])
        if orc.poe[UTILITARIAN] != Fraction(k, 3):
            failures.append(f"k={k}: PoE {orc.poe[UTILITARIAN]} != {k}/3")
    _finish(10, "unnormalised two-agent instance has utilitarian PoE exactly k/3",
            failures)
