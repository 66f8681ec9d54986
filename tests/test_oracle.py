"""Brute-force oracle: exact optima, price of equity, Pareto checks."""

from __future__ import annotations

import hashlib
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poe_toolkit.generators import (
    gen_lower_bound_instance,
    random_binary_additive,
    random_matroid_gf2,
    unnormalised_2agent_instance,
)
from poe_toolkit.model import (
    Allocation,
    BinaryAdditive,
    Instance,
    LinearMatroidGF2,
    is_eq1,
)
from poe_toolkit.oracle import BudgetExceededError, enumerate_allocations
from poe_toolkit.solver import nash_optimal, solve
from poe_toolkit.verify import GATE_P_LIST, _optimality_failures, fixture_instances, oracle_corpus
from poe_toolkit.welfare import UTILITARIAN, max_positive_count, poe_ratio, welfare_key


def test_family_poe_exact():
    orc = enumerate_allocations(gen_lower_bound_instance(2, 2), [UTILITARIAN])
    assert orc.poe[UTILITARIAN] == Fraction(4, 3)
    assert orc.enumeration_count == 256


def test_unnormalised_example_poe():
    for k in (6, 9):
        orc = enumerate_allocations(unnormalised_2agent_instance(k), [UTILITARIAN])
        assert orc.poe[UTILITARIAN] == Fraction(k, 3)


def test_identical_instances_poe_one(rng):
    for _ in range(20):
        n, m = rng.randint(2, 3), rng.randint(1, 5)
        inst = Instance(random_matroid_gf2(rng, 1, m).valuations * n)
        orc = enumerate_allocations(inst, GATE_P_LIST)
        for p in GATE_P_LIST:
            assert orc.poe[p] == 1


def pinned_corpus() -> list[Instance]:
    return fixture_instances() + oracle_corpus(7, 40)


def test_oracle_results_pinned():
    # pinned bytes: the optima, their tie-breaks and the PoE floats of every
    # p must not move
    docs = [enumerate_allocations(inst, GATE_P_LIST).to_json() for inst in pinned_corpus()]
    digest = hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()
    assert digest == "a75af7e1302fb94ada0ef0eaedf32aa16884cd226e07cf9793633d70f8dc7f9f"


def test_each_winning_index_decoded_once(monkeypatch):
    import poe_toolkit.oracle as oracle

    calls: list[int] = []
    decode = oracle._alloc_from_index

    def counted(inst, idx):
        calls.append(idx)
        return decode(inst, idx)

    monkeypatch.setattr(oracle, "_alloc_from_index", counted)
    total = 0
    for inst in pinned_corpus():
        calls.clear()
        orc = enumerate_allocations(inst, GATE_P_LIST + GATE_P_LIST)  # a repeated p adds nothing
        winners = {
            sum(a * inst.n ** (inst.m - 1 - g) for g, a in enumerate(alloc.owner))
            for alloc in itertools.chain(orc.best_alloc.values(), orc.best_eq1_alloc.values())
        }
        assert sorted(calls) == sorted(winners)
        total += len(calls)
    # the optima of the five p and of EQ1 share their allocations often
    assert total < 2 * len(GATE_P_LIST) * len(pinned_corpus())


def test_budget_refusal(monkeypatch):
    import poe_toolkit.oracle as oracle

    inst = random_binary_additive(__import__("random").Random(0), 2, 24)
    assert inst.n ** inst.m > oracle.BUDGET
    # the refusal comes before any enumeration
    monkeypatch.setattr(oracle, "_scan", lambda inst: pytest.fail("enumerated"))
    with pytest.raises(BudgetExceededError, match=r"^2\^24 = 16777216 assignments exceed"):
        enumerate_allocations(inst, [UTILITARIAN])


def test_best_allocations_attain_keys(rng):
    for _ in range(15):
        inst = random_binary_additive(rng, rng.randint(2, 3), rng.randint(1, 6))
        restrict = max_positive_count(inst)
        orc = enumerate_allocations(inst, GATE_P_LIST)
        for p in GATE_P_LIST:
            best = orc.best_alloc[p]
            assert welfare_key(best.values(inst), p, restrict) == orc.best_key[p]
            fair = orc.best_eq1_alloc[p]
            assert is_eq1(inst, fair)
            assert welfare_key(fair.values(inst), p, restrict) == orc.best_eq1_key[p]
            assert orc.best_key[p] >= orc.best_eq1_key[p]
            assert float(orc.poe[p]) >= 1 - 1e-12


def test_eq1_detection_matches_predicate(rng):
    # the enumerator's fast EQ1 test agrees with the definitional predicate
    for _ in range(10):
        inst = (
            random_binary_additive(rng, 2, rng.randint(1, 5))
            if rng.random() < 0.5
            else random_matroid_gf2(rng, 3, 4)
        )
        orc = enumerate_allocations(inst, [UTILITARIAN])
        brute_best = None
        for assign in itertools.product(range(inst.n), repeat=inst.m):
            alloc = Allocation(assign, inst.n)
            if is_eq1(inst, alloc):
                key = welfare_key(
                    alloc.values(inst), UTILITARIAN, max_positive_count(inst)
                )
                if brute_best is None or key > brute_best:
                    brute_best = key
        assert brute_best == orc.best_eq1_key[UTILITARIAN]


def value_vectors(inst: Instance) -> set:
    """The agents' value vector of every complete assignment."""
    return {
        Allocation(a, inst.n).values(inst)
        for a in itertools.product(range(inst.n), repeat=inst.m)
    }


def dominated(values, vectors) -> bool:
    """Some vector weakly improves every entry and differs: not Pareto optimal."""
    return any(
        all(v >= b for v, b in zip(other, values)) and other != values for other in vectors
    )


def test_pareto_optimal_solver_output(rng):
    for _ in range(10):
        inst = random_matroid_gf2(rng, rng.randint(2, 3), rng.randint(1, 5))
        a_star = nash_optimal(inst)
        assert not dominated(a_star.values(inst), value_vectors(inst))


def test_pareto_rejects_waste():
    # giving the valued good to the indifferent agent is dominated
    inst = Instance([BinaryAdditive([1, 1]), BinaryAdditive([1, 0])])
    wasteful = Allocation([1, 1], 2)  # agent 1 holds g1 at zero value
    assert dominated(wasteful.values(inst), value_vectors(inst))


def test_pareto_single_agent():
    inst = Instance([BinaryAdditive([1, 0])])
    assert not dominated(Allocation([0, 0], 1).values(inst), value_vectors(inst))


def test_leximin_vector(rng):
    import itertools

    for _ in range(10):
        inst = random_binary_additive(rng, rng.randint(2, 3), rng.randint(1, 5))
        orc = enumerate_allocations(inst, [UTILITARIAN])
        best = max(
            tuple(sorted(Allocation(a, inst.n).values(inst)))
            for a in itertools.product(range(inst.n), repeat=inst.m)
        )
        assert orc.leximin == best


def test_deterministic_tie_break():
    inst = Instance([BinaryAdditive([1]), BinaryAdditive([1])])
    orc = enumerate_allocations(inst, [UTILITARIAN])
    # both assignments have key (1, 1/1); the first in enumeration order wins
    assert orc.best_alloc[UTILITARIAN].owner == (0,)


def test_unnormalised_example_beyond_sixteen_goods():
    orc = enumerate_allocations(unnormalised_2agent_instance(17), [UTILITARIAN])
    assert orc.poe[UTILITARIAN] == Fraction(17, 3)
    assert orc.enumeration_count == 2**17


def test_single_agent_many_goods():
    inst = Instance([BinaryAdditive([1, 0] * 10)])
    orc = enumerate_allocations(inst, GATE_P_LIST)
    assert orc.enumeration_count == 1
    assert orc.leximin == (10,)
    assert orc.best_eq1_alloc[UTILITARIAN].owner == (0,) * 20
    assert all(orc.poe[p] == 1 for p in GATE_P_LIST)


# ---------------------------------------------------------------------------
# Property test: the oracle against a definitional brute force
# ---------------------------------------------------------------------------


def _bits(size: int):
    return st.lists(st.integers(0, 1), min_size=size, max_size=size)


@st.composite
def small_instances(draw):
    """n <= 3 agents over m <= 6 goods, each additive or GF(2)."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    vals = []
    for _ in range(n):
        if draw(st.booleans()):
            vals.append(BinaryAdditive(draw(_bits(m))))
        else:
            k = draw(st.integers(1, 3))
            vals.append(LinearMatroidGF2(k, draw(st.lists(_bits(k), min_size=m, max_size=m))))
    return Instance(vals)


def brute_force(inst, p_list):
    """Best allocation overall and among EQ1 ones per p (the first in
    ``itertools.product`` order on key ties), the leximin vector and every
    value vector.  Keys are taken on sorted value vectors, as the oracle
    does, so float p-means round alike."""
    restrict = max_positive_count(inst)
    best: dict = {}
    best_eq1: dict = {}
    vectors = set()
    for assign in itertools.product(range(inst.n), repeat=inst.m):
        alloc = Allocation(assign, inst.n)
        values = alloc.values(inst)
        vectors.add(values)
        eq1 = is_eq1(inst, alloc)
        for p in p_list:
            key = welfare_key(sorted(values), p, restrict)
            if p not in best or key > best[p][0]:
                best[p] = (key, alloc)
            if eq1 and (p not in best_eq1 or key > best_eq1[p][0]):
                best_eq1[p] = (key, alloc)
    leximin = max(tuple(sorted(v)) for v in vectors)
    return restrict, best, best_eq1, leximin, vectors


@settings(max_examples=100, deadline=None)
@given(small_instances())
def test_oracle_matches_brute_force(inst):
    orc = enumerate_allocations(inst, GATE_P_LIST)
    restrict, best, best_eq1, leximin, vectors = brute_force(inst, GATE_P_LIST)
    assert orc.enumeration_count == inst.n**inst.m
    assert orc.restrict == restrict  # the oracle's own capacity agrees with the matching
    assert orc.leximin == leximin
    for p in GATE_P_LIST:
        assert orc.best_key[p] == best[p][0]
        assert orc.best_alloc[p] == best[p][1]
        assert orc.best_eq1_key[p] == best_eq1[p][0]
        assert orc.best_eq1_alloc[p] == best_eq1[p][1]
        want = Fraction(1) if restrict == 0 else poe_ratio(best[p][0], best_eq1[p][0], p, restrict)
        assert orc.poe[p] == want
    assert not dominated(nash_optimal(inst).values(inst), vectors)
    assert not list(_optimality_failures(inst, solve(inst, GATE_P_LIST), orc))
