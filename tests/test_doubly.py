"""Doubly normalised pipelines: flow route, eating route, exact BvN."""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poe_toolkit.doubly import (
    DoublyStochasticMatrix,
    augment,
    bvn_decompose,
    decode_allocation,
    doubly_degrees,
    eating_matrix,
    randomized_allocation,
    solve_flow,
)
from poe_toolkit.generators import (
    example1_instance,
    gen_doubly_normalised,
    gen_lower_bound_instance,
    random_biregular,
    remark_3x4_instance,
)
from poe_toolkit.model import BinaryAdditive, Instance, LinearMatroidGF2, is_eq, is_eq1, wasted_goods
from poe_toolkit.solver import solve
from poe_toolkit.verify import gate_doubly
from poe_toolkit.welfare import NASH, UTILITARIAN


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------


def test_detect_example1():
    assert doubly_degrees(example1_instance()) == (3, 2)


def test_detect_family_is_not():
    with pytest.raises(ValueError, match="not doubly normalised"):
        doubly_degrees(gen_lower_bound_instance(2, 2))


def test_detect_single_agent():
    inst = Instance([BinaryAdditive([1, 1, 1])])
    assert doubly_degrees(inst) == (3, 1)


def test_detect_nobody_values_anything_is_not():
    # W = 0: every row and column sums to 0, but there is no W_c to divide by
    with pytest.raises(ValueError, match="not doubly normalised"):
        doubly_degrees(Instance([BinaryAdditive([0, 0])] * 2))


@pytest.mark.parametrize("inst, want", [
    (example1_instance(), (3, 2)),
    (Instance([BinaryAdditive([1, 1, 1])]), (3, 1)),
    (gen_lower_bound_instance(2, 2), "not doubly normalised"),
    (remark_3x4_instance(), "not doubly normalised"),  # rows sum to 2, columns do not agree
    (Instance([BinaryAdditive([0, 0])] * 2), "not doubly normalised"),
    (Instance([LinearMatroidGF2(1, [[1], [1]])] * 2), "binary additive"),
], ids=["example1", "single_agent", "lb_2_2", "remark_3x4", "all_zero", "gf2"])
def test_doubly_degrees(inst, want):
    # the one detection every doubly route and the CLI call: (W, W_c) or ValueError
    if isinstance(want, tuple):
        assert doubly_degrees(inst) == want
    else:
        with pytest.raises(ValueError, match=want):
            doubly_degrees(inst)


# ---------------------------------------------------------------------------
# flow route
# ---------------------------------------------------------------------------


def test_flow_example1():
    inst = example1_instance()
    alloc = solve_flow(inst)
    assert sum(alloc.values(inst)) == 6
    assert sorted(b.bit_count() for b in alloc.masks(inst)) == [1, 1, 2, 2]
    assert is_eq1(inst, alloc)


def test_flow_integral_case_is_eq():
    inst = gen_doubly_normalised(4, 8, 2, 1, seed=9)
    alloc = solve_flow(inst)
    assert is_eq(inst, alloc)
    assert len(set(alloc.values(inst))) == 1


def test_flow_on_random_biregular(rng):
    for _ in range(100):
        inst = random_biregular(rng, 10, 12)
        alloc = solve_flow(inst)
        assert is_eq1(inst, alloc)
        assert not wasted_goods(inst, alloc)
        assert sum(alloc.values(inst)) == inst.m


def test_flow_allocations_pinned():
    # Pins the paths Dinic picks (its arc order); the benchmark digests of the
    # flow route depend on them.
    assert solve_flow(example1_instance()).owner == (0, 2, 0, 1, 3, 1)
    assert solve_flow(gen_doubly_normalised(6, 12, 4, 2, seed=3)).owner == (
        0, 1, 0, 1, 3, 3, 4, 5, 2, 5, 2, 4)
    assert solve_flow(gen_doubly_normalised(12, 18, 3, 2, seed=11)).owner == (
        11, 8, 7, 0, 6, 9, 2, 1, 3, 7, 1, 5, 2, 4, 10, 3, 4, 0)


def test_flow_allocations_digest():
    # Pins the owner lists the flow picks on 200 seeded instances, 36 with W_c
    # dividing W and 164 without, so both of its rounds run.
    rng = random.Random(21)
    owners = [solve_flow(random_biregular(rng, 16, 24)).owner for _ in range(200)]
    digest = hashlib.sha256(repr(owners).encode()).hexdigest()
    assert digest == "31032cedab7637d37d21febeea07733bc2062b84fcec39a2ee3c323c05033fe2"


def test_flow_rejects_non_doubly():
    with pytest.raises(ValueError):
        solve_flow(remark_3x4_instance())


# ---------------------------------------------------------------------------
# eating matrix
# ---------------------------------------------------------------------------


def test_eating_example1_entries():
    inst = example1_instance()
    eat = eating_matrix(inst)
    assert eat.dim == 2 * inst.n == inst.m + 2  # two copies per agent, two dummy goods
    nonzero = {x for row in eat.entries for x in row if x}
    assert nonzero == {Fraction(1, 3), Fraction(1, 6), Fraction(1, 4)}
    # last copies: real-good total q/W_c, dummy total 1 - q/W_c
    for i in range(4):
        last = eat.entries[i * 2 + 1]
        assert sum(last[:6]) == Fraction(1, 2)
        assert sum(last[6:]) == Fraction(1, 2)


def test_eating_example1_counts_and_csv():
    eat = eating_matrix(example1_instance())
    # W * W_c * t = 3 * 2 * 2; shares W_c*t = 4, q*t = 2, W*(W_c - q) = 3
    assert eat.scale == 12
    assert {x for row in eat.counts for x in row} == {0, 4, 2, 3}
    # bytes of `poe-toolkit doubly --matrix-csv` from the Fraction implementation
    assert eat.to_csv() == (
        "1/3,1/3,1/3,0,0,0,0,0\n"
        "1/6,1/6,1/6,0,0,0,1/4,1/4\n"
        "0,0,0,1/3,1/3,1/3,0,0\n"
        "0,0,0,1/6,1/6,1/6,1/4,1/4\n"
        "0,1/3,1/3,1/3,0,0,0,0\n"
        "0,1/6,1/6,1/6,0,0,1/4,1/4\n"
        "1/3,0,0,0,1/3,1/3,0,0\n"
        "1/6,0,0,0,1/6,1/6,1/4,1/4\n"
    )


def test_eating_doubly_stochastic_exact(rng):
    checked = 0
    for _ in range(60):
        inst = random_biregular(rng, 10, 12)
        W, W_c = doubly_degrees(inst)
        if W % W_c == 0:
            continue
        eat = eating_matrix(inst)  # the constructor asserts exact sums
        checked += 1
        assert eat.dim == (W // W_c + 1) * inst.n
    assert checked


def test_eating_matches_stepwise_simulation():
    # re-derive the closed form by simulating the timestep recurrence
    inst = example1_instance()
    eat = eating_matrix(inst)
    W, W_c = 3, 2
    p = W // W_c
    copies = p + 1  # rows are agent-major copies
    entries = eat.entries
    for i in range(inst.n):
        liked = [g for g in range(inst.m) if inst.valuations[i].row[g]]
        remaining = Fraction(1)
        for j in range(p):
            rate = Fraction(1, W - j * W_c)
            eaten = remaining * rate
            for g in liked:
                assert entries[i * copies + j][g] == eaten
            remaining -= W_c * eaten
        # last copy splits the leftovers evenly among the liking agents
        for g in liked:
            assert entries[i * copies + p][g] == remaining / W_c
    assert remaining / W_c == Fraction(1, 6)


def test_eating_rejects_integral_ratio():
    inst = gen_doubly_normalised(4, 8, 2, 1, seed=1)
    with pytest.raises(ValueError, match="flow route"):
        eating_matrix(inst)


# ---------------------------------------------------------------------------
# Birkhoff-von Neumann
# ---------------------------------------------------------------------------


def test_bvn_identity():
    y = DoublyStochasticMatrix([[1, 0], [0, 1]], 1)
    dec = bvn_decompose(y)
    assert dec.terms == [(Fraction(1), (0, 1))]


def test_bvn_half_half():
    h = Fraction(1, 2)
    dec = bvn_decompose(DoublyStochasticMatrix([[1, 1], [1, 1]], 2))
    assert sorted(w for w, _ in dec.terms) == [h, h]
    assert {perm for _, perm in dec.terms} == {(0, 1), (1, 0)}


def test_bvn_reconstruction_and_bounds(rng):
    for _ in range(30):
        inst = random_biregular(rng, 10, 12)
        W, W_c = doubly_degrees(inst)
        if W % W_c == 0:
            continue
        eat = eating_matrix(inst)
        dec = bvn_decompose(eat)
        dim, entries = eat.dim, eat.entries
        weights = [w for w, _ in dec.terms]
        assert sum(weights) == 1
        assert all(w > 0 for w in weights)
        assert len(dec.terms) <= dim * dim - 2 * dim + 2
        recon = [[Fraction(0)] * dim for _ in range(dim)]
        for w, perm in dec.terms:
            for r, c in enumerate(perm):
                recon[r][c] += w
                assert entries[r][c] > 0  # support containment
        assert recon == [list(row) for row in entries]


def test_bvn_example1_term_list():
    # Pins the deterministic term order; the benchmark digests depend on it.
    dec = bvn_decompose(eating_matrix(example1_instance()))
    sixth, twelfth = Fraction(1, 6), Fraction(1, 12)
    assert dec.terms == [
        (sixth, (2, 7, 5, 3, 1, 6, 4, 0)),
        (twelfth, (2, 7, 3, 5, 1, 6, 0, 4)),
        (sixth, (0, 6, 3, 4, 2, 1, 5, 7)),
        (twelfth, (0, 6, 3, 5, 1, 2, 4, 7)),
        (twelfth, (1, 2, 5, 6, 3, 7, 0, 4)),
        (twelfth, (1, 2, 4, 6, 3, 7, 0, 5)),
        (twelfth, (1, 0, 5, 7, 3, 2, 4, 6)),
        (twelfth, (2, 1, 4, 6, 3, 7, 0, 5)),
        (twelfth, (0, 1, 4, 7, 2, 3, 5, 6)),
        (twelfth, (1, 0, 4, 7, 2, 3, 5, 6)),
    ]


def test_bvn_rejects_non_stochastic():
    with pytest.raises(ValueError):
        DoublyStochasticMatrix([[2, 1], [2, 3]], 4)


def _circulant(first_row):
    dim = len(first_row)
    return [[first_row[(c - r) % dim] for c in range(dim)] for r in range(dim)]


MIXED = [21, 14, 6, 1]  # 1/2, 1/3, 1/7 and 1/42: sums to 1 over 42


def test_matrix_counts_over_lcm():
    y = DoublyStochasticMatrix(_circulant(MIXED), 42)
    assert y.scale == 42
    assert y.counts[0] == (21, 14, 6, 1) and y.counts[1] == (1, 21, 14, 6)
    assert y.entries[2][0] == Fraction(1, 7)
    # counts over a multiple of the least common denominator are reduced
    assert DoublyStochasticMatrix(_circulant([2 * x for x in MIXED]), 84) == y
    assert DoublyStochasticMatrix([[2, 4], [4, 2]], 6) == DoublyStochasticMatrix([[1, 2], [2, 1]], 3)


def _off_by_one_lcm():
    rows = _circulant(MIXED)
    rows[0][3] += 1
    return rows


@pytest.mark.parametrize("entries, scale, message", [
    (_off_by_one_lcm(), 42, "row"),
    ([[3, 3], [2, 4]], 6, "column"),
    (_circulant([8, -3, 1]), 6, "non-negative"),
    ([[1, 2, 0], [2, 1, 0]], 3, "square"),
    ([[1]], 0, "scale"),
    ([], 1, "at least one row"),
    ([[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]], 1, "integer"),
    ([[0.5, 0.5], [0.5, 0.5]], 1, "integer"),
    ([[True]], 1, "integer"),
], ids=["row_off_by_one_lcm", "column_sums", "negative_entry", "non_square", "zero_scale",
        "empty", "fraction_entries", "float_entries", "bool_entry"])
def test_matrix_rejects(entries, scale, message):
    with pytest.raises(ValueError, match=message):
        DoublyStochasticMatrix(entries, scale)


def _bvn_fractions(entries):
    """The decomposition computed on Fractions throughout: the reference that
    the integer version must reproduce term for term."""
    dim = len(entries)
    work = [list(row) for row in entries]
    support = [[c for c in range(dim) if row[c] > 0] for row in work]
    row_match, col_match = [-1] * dim, [-1] * dim
    terms = []
    remaining = Fraction(1)
    while remaining > 0:
        for r in range(dim):
            if row_match[r] < 0:
                assert augment(support, r, row_match, col_match)
        delta = min(work[r][row_match[r]] for r in range(dim))
        perm = tuple(row_match)
        terms.append((delta, perm))
        for r, c in enumerate(perm):
            work[r][c] -= delta
            if work[r][c] == 0:
                support[r].remove(c)
                row_match[r] = col_match[c] = -1
        remaining -= delta
    return terms


@st.composite
def convex_combinations(draw):
    """A random convex combination of permutation matrices whose weights have
    mixed denominators."""
    dim = draw(st.integers(1, 6))
    k = draw(st.integers(1, 5))
    perms = [draw(st.permutations(range(dim))) for _ in range(k)]
    raw = [
        Fraction(draw(st.integers(1, 9)), draw(st.sampled_from((1, 2, 3, 5, 7, 11))))
        for _ in range(k)
    ]
    matrix = [[Fraction(0)] * dim for _ in range(dim)]
    for w, perm in zip(raw, perms):
        for r, c in enumerate(perm):
            matrix[r][c] += w / sum(raw)
    return matrix


@settings(max_examples=200, deadline=None)
@given(convex_combinations())
def test_bvn_integer_counts(entries):
    scale = math.lcm(*(x.denominator for row in entries for x in row))
    y = DoublyStochasticMatrix([[int(x * scale) for x in row] for row in entries], scale)
    dim = y.dim
    assert y.scale == scale
    assert y.entries == tuple(map(tuple, entries))
    dec = bvn_decompose(y)
    assert dec.terms == _bvn_fractions(entries)
    assert all(type(w) is Fraction and w > 0 for w, _ in dec.terms)
    assert sum(w for w, _ in dec.terms) == 1
    assert len(dec.terms) <= dim * dim - 2 * dim + 2
    recon = [[Fraction(0)] * dim for _ in range(dim)]
    for w, perm in dec.terms:
        for r, c in enumerate(perm):
            assert entries[r][c] > 0  # support containment
            recon[r][c] += w
    assert recon == entries


# ---------------------------------------------------------------------------
# decoding and the lottery
# ---------------------------------------------------------------------------


def test_decode_example1_all_terms():
    inst = example1_instance()
    dec = bvn_decompose(eating_matrix(inst))
    for _, perm in dec.terms:
        alloc = decode_allocation(inst, perm)
        assert is_eq1(inst, alloc)
        assert sum(alloc.values(inst)) == 6


def test_lottery_example1_expectations():
    inst = example1_instance()
    lottery = randomized_allocation(inst)
    for i in range(inst.n):
        assert sum(w * a.values(inst)[i] for w, a in lottery) == Fraction(3, 2)


def test_lottery_integral_case_single_term():
    inst = gen_doubly_normalised(4, 8, 2, 1, seed=4)
    lottery = randomized_allocation(inst)
    assert len(lottery) == 1 and lottery[0][0] == 1
    assert is_eq(inst, lottery[0][1])


def test_lottery_random_biregular(rng):
    instances = [random_biregular(rng, 8, 10) for _ in range(40)]
    gate = gate_doubly(instances)
    assert gate.passed and gate.cases == 40, gate.detail
    for inst in instances:
        # real goods are never wasted; only zero-value pool is absent here
        assert all(sum(alloc.values(inst)) == inst.m for _, alloc in randomized_allocation(inst))


def test_remark_fixture_poe_one():
    res = solve(remark_3x4_instance(), (UTILITARIAN, NASH))
    assert res.poe[UTILITARIAN] == 1 and res.poe[NASH] == 1


def test_flow_key_matches_optimal(rng):
    from poe_toolkit.welfare import max_positive_count, welfare_key

    for _ in range(30):

        inst = random_biregular(rng, 10, 12)
        restrict = max_positive_count(inst)
        flow = solve_flow(inst)
        res = solve(inst, (UTILITARIAN, NASH))
        for p in (UTILITARIAN, NASH):
            assert welfare_key(flow.values(inst), p, restrict) == res.report_a_star.keys[p]
