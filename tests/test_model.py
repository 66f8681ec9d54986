"""Data model: valuations, predicates, wasted goods, validation."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poe_toolkit.generators import (
    gen_lower_bound_instance,
    gen_submodular_lb_instance,
    random_binary_additive,
    random_matroid_gf2,
)
from poe_toolkit.model import (
    UNASSIGNED,
    Allocation,
    BinaryAdditive,
    Instance,
    LinearMatroidGF2,
    Valuation,
    check_allocation,
    floor_table,
    goods_of,
    is_eq1,
    validate,
    wasted_goods,
)
from poe_toolkit.solver import solve
from poe_toolkit.welfare import UTILITARIAN

E1 = [1, 0]
E2 = [0, 1]


def random_allocation(rng: random.Random, inst: Instance) -> Allocation:
    return Allocation([rng.randrange(inst.n) for _ in range(inst.m)], inst.n)


def make_clean(inst: Instance, alloc: Allocation) -> Allocation:
    """Reference cleaning: ``alloc`` with its wasted goods moved to the pool."""
    wasted = wasted_goods(inst, alloc)
    owner = [UNASSIGNED if g in wasted else a for g, a in enumerate(alloc.owner)]
    return Allocation(owner, alloc.n)


# ---------------------------------------------------------------------------
# value / exchange oracle
# ---------------------------------------------------------------------------


def test_value_additive_row():
    v = BinaryAdditive([1, 1, 0, 1])
    assert v.value(0b0011) == 2
    assert v.value(0) == 0
    assert v.value(0b1111) == 3


def test_value_matroid_repeated_basis():
    v = LinearMatroidGF2(3, [E1 + [0], E1 + [0], E2 + [0]])
    assert v.value(0b111) == 2
    assert v.value(0) == 0


def test_value_out_of_range():
    with pytest.raises(ValueError):
        BinaryAdditive([1, 0]).value(1 << 5)
    with pytest.raises(ValueError):
        BinaryAdditive([1, 0]).value(0b100)
    with pytest.raises(ValueError):
        LinearMatroidGF2(1, [[1]]).value(-1)


def test_value_of_bitmask_bundle():
    add = BinaryAdditive([1, 1, 0, 1])
    mat = LinearMatroidGF2(3, [E1 + [0], E1 + [0], E2 + [0]])
    assert add.value(0b1011) == 3
    assert mat.value(0b111) == mat.value(0b011) + 1 == 2
    assert add.value(0) == mat.value(0) == 0


ENTRIES = "matroid matrix entries must be 0/1 integers"
ROW = "binary additive row must contain only 0/1 integers"
LENGTH = "column length does not match row count"


BAD_ENTRIES = [True, 1.0, 2, -1, 256, 2**70, "1", None, [1]]


@pytest.mark.parametrize("entry", BAD_ENTRIES)
def test_matroid_rejects_entry(entry):
    for cols in ([[entry, 0]], [[1, 0], [0, entry]]):
        with pytest.raises(ValueError) as exc:
            LinearMatroidGF2(2, cols)
        assert str(exc.value) == ENTRIES


@pytest.mark.parametrize("entry", BAD_ENTRIES)
def test_additive_rejects_entry(entry):
    # the same check as the matroid's, with the row's own message
    for row in ([entry, 0], [1, 0, entry]):
        with pytest.raises(ValueError) as exc:
            BinaryAdditive(row)
        assert str(exc.value) == ROW


@pytest.mark.parametrize("cols", [[[1]], [[1, 0], [1]], [[1, 0, 1]], [[0, 1], [1, 0, 0]], [[]]])
def test_matroid_rejects_column_length(cols):
    with pytest.raises(ValueError) as exc:
        LinearMatroidGF2(2, cols)
    assert str(exc.value) == LENGTH


def test_matroid_empty_shapes_build():
    for rows, cols in ((0, []), (0, [[], [], []]), (3, [])):
        v = LinearMatroidGF2(rows, cols)
        for w in (v, LinearMatroidGF2.from_col_masks(rows, v.col_masks)):
            assert (w.rows, w.m, w.col_masks, w.nonloops, w.grand_value) == (rows, len(cols), (0,) * len(cols), 0, 0)
            assert w.to_json() == {"kind": "matroid_gf2", "rows": rows, "cols": cols}


def test_matroid_column_masks_match_per_column_pack(rng):
    for _ in range(200):
        rows, m = rng.randint(1, 70), rng.randint(1, 12)
        cols = [[rng.randint(0, 1) for _ in range(rows)] for _ in range(m)]
        v = LinearMatroidGF2(rows, cols)
        assert v.col_masks == tuple(sum(b << t for t, b in enumerate(col)) for col in cols)
        assert v.to_json()["cols"] == cols
        # the packed way in: the same matrix, and the same facts of it
        w = LinearMatroidGF2.from_col_masks(rows, v.col_masks)
        assert (w.rows, w.m, w.col_masks, w.nonloops, w.grand_value) == (v.rows, v.m, v.col_masks, v.nonloops, v.grand_value)
        assert w.to_json() == v.to_json()


MASKS = "column masks must be integers in [0, 2**rows)"
ROWS = "row count must be a non-negative integer"


@pytest.mark.parametrize("rows, masks, message", [
    (2, [True, 0], MASKS),
    (2, [1, 1.0], MASKS),
    (2, [0, -1], MASKS),
    (2, [0b100], MASKS),
    (2, [1, 2, 3, 4], MASKS),
    (0, [1], MASKS),
    (70, [1 << 70], MASKS),
    (-1, [0], ROWS),
    (-1, [], ROWS),
    (2.0, [1], ROWS),
    (True, [1], ROWS),
    ("2", [1], ROWS),
])
def test_matroid_from_col_masks_rejects(rows, masks, message):
    with pytest.raises(ValueError) as exc:
        LinearMatroidGF2.from_col_masks(rows, masks)
    assert str(exc.value) == message


def test_marginal_additive():
    # a valued good adds one; an unvalued good adds nothing and swaps for nothing
    circuit = BinaryAdditive([1, 0]).exchange(0).circuit
    assert circuit(0) is None
    assert circuit(1) == 0


def test_marginal_matroid_dependent_vs_independent():
    dup = LinearMatroidGF2(2, [E1, E1])
    assert dup.exchange(0b01).circuit(1) == 0b01  # parallel to good 0: swaps with it
    ind = LinearMatroidGF2(2, [E1, E2])
    assert ind.exchange(0b01).circuit(1) is None
    assert dup.value(0b11) == 1 and ind.value(0b11) == 2


@st.composite
def valuations(draw):
    """A binary additive or GF(2) valuation over at most 8 goods."""
    m = draw(st.integers(1, 8))
    if draw(st.booleans()):
        return BinaryAdditive(draw(st.lists(st.integers(0, 1), min_size=m, max_size=m)))
    k = draw(st.integers(1, 4))
    bit_col = st.lists(st.integers(0, 1), min_size=k, max_size=k)
    return LinearMatroidGF2(k, draw(st.lists(bit_col, min_size=m, max_size=m)))


@settings(max_examples=150, deadline=None)
@given(valuations(), st.data())
def test_circuits_agree_with_value(val, data):
    m = val.m
    indep = 0  # greedy independent bundle over a random good order
    for g in data.draw(st.lists(st.integers(0, m - 1), unique=True)):
        if val.value(indep | 1 << g) == indep.bit_count() + 1:
            indep |= 1 << g
    size = indep.bit_count()
    circuit = val.exchange(indep).circuit
    for g in goods_of(((1 << m) - 1) ^ indep):
        if val.value(indep | 1 << g) == size + 1:
            assert circuit(g) is None
        else:
            swaps = [h for h in goods_of(indep) if val.value(indep ^ 1 << h | 1 << g) == size]
            assert circuit(g) == sum(1 << h for h in swaps)
    # any bundle, dependent or not: None exactly when g raises the value
    bundle = data.draw(st.integers(0, (1 << m) - 1))
    circuit = val.exchange(bundle).circuit
    for g in goods_of(((1 << m) - 1) ^ bundle):
        assert (circuit(g) is None) == (val.value(bundle | 1 << g) == val.value(bundle) + 1)


@settings(max_examples=150, deadline=None)
@given(valuations(), st.data())
def test_exchange_updates_match_rebuild(val, data):
    # from a random independent bundle, each drawn good leaves the bundle if
    # it is in it and is offered to it otherwise; the updated oracle answers
    # for every good as one rebuilt from scratch, and an offer is refused
    # exactly when the good does not raise the value
    m = val.m
    bundle = 0
    for g in data.draw(st.lists(st.integers(0, m - 1), unique=True)):
        if val.value(bundle | 1 << g) > val.value(bundle):
            bundle |= 1 << g
    exchange = val.exchange(bundle)
    for g in data.draw(st.lists(st.integers(0, m - 1), max_size=24)):
        if (bundle >> g) & 1:
            exchange.remove(g)
            bundle ^= 1 << g
        else:
            rises = val.value(bundle | 1 << g) > val.value(bundle)
            assert exchange.add(g) == rises
            if rises:
                bundle |= 1 << g
        rebuilt = val.exchange(bundle)
        assert [exchange.circuit(h) for h in range(m)] == [rebuilt.circuit(h) for h in range(m)]


# Reference copies of the per-good loops that coloops() and basis() replaced.


def reference_reduced_value(val, bundle: int) -> int:
    best = val.value(bundle)
    for g in goods_of(bundle):
        v = val.value(bundle ^ (1 << g))
        if v < best:
            return v
    return best


def reference_value(val, bundle: int) -> int:
    """The row's sum over the bundle, or the GF(2) rank of its columns by
    plain elimination."""
    if isinstance(val, BinaryAdditive):
        return sum(val.row[g] for g in goods_of(bundle))
    rank, vecs = 0, [val.col_masks[g] for g in goods_of(bundle)]
    while vecs:
        pivot = vecs.pop()
        if pivot:
            rank += 1
            low = pivot & -pivot
            vecs = [v ^ pivot if v & low else v for v in vecs]
    return rank


def reference_is_eq1(inst, alloc) -> bool:
    bundles = alloc.masks(inst)
    vmin = min(v.value(b) for v, b in zip(inst.valuations, bundles))
    return inst.n <= 1 or all(
        not b or reference_reduced_value(v, b) <= vmin for v, b in zip(inst.valuations, bundles)
    )


def reference_is_ef1(inst, alloc) -> bool:
    bundles = alloc.masks(inst)
    for i, val in enumerate(inst.valuations):
        vi = val.value(bundles[i])
        for k, b in enumerate(bundles):
            if k != i and b and reference_reduced_value(val, b) > vi:
                return False
    return True


def reference_wasted_goods(inst, alloc) -> frozenset:
    removed = set()
    work = alloc.masks(inst)
    for g in range(alloc.m):
        i = alloc.owner[g]
        if i == -1:
            continue
        val = inst.valuations[i]
        if val.value(work[i]) == val.value(work[i] & ~(1 << g)):
            removed.add(g)
            work[i] &= ~(1 << g)
    return frozenset(removed)


@st.composite
def floor_cases(draw):
    """An instance of n <= 4 agents over m <= 10 goods, additive or GF(2)
    per agent, with some goods forced to be loops for some agents, and an
    allocation of it (complete or partial)."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 10))
    vals = []
    for _ in range(n):
        if vals and draw(st.integers(0, 3)) == 0:  # agents may share one valuation object
            vals.append(draw(st.sampled_from(vals)))
            continue
        loops = draw(st.lists(st.booleans(), min_size=m, max_size=m))
        if draw(st.booleans()):
            vals.append(BinaryAdditive([0 if loop else draw(st.integers(0, 1)) for loop in loops]))
            continue
        k = draw(st.integers(1, 4))
        bit_col = st.lists(st.integers(0, 1), min_size=k, max_size=k)
        vals.append(LinearMatroidGF2(k, [[0] * k if loop else draw(bit_col) for loop in loops]))
    low = -1 if draw(st.booleans()) else 0
    owner = draw(st.lists(st.integers(low, n - 1), min_size=m, max_size=m))
    return Instance(vals), Allocation(owner, n)


@settings(max_examples=300, deadline=None)
@given(floor_cases())
def test_floor_matches_definitions(case):
    inst, alloc = case
    for val in inst.valuations:
        for bundle in alloc.masks(inst) + [(1 << inst.m) - 1]:
            full = reference_value(val, bundle)
            coloops = [g for g in goods_of(bundle) if reference_value(val, bundle ^ (1 << g)) < full]
            assert val.value(bundle) == full
            assert val.coloops(bundle) == (full, sum(1 << g for g in coloops))
            assert val.basis(bundle) & ~bundle == 0
            assert val.basis(bundle).bit_count() == full
        # an int set at construction, on both valuation kinds
        assert type(val.nonloops) is int
        assert val.nonloops == sum(1 << g for g in range(inst.m) if val.value(1 << g))
    assert inst.takers() == [
        sum(1 << j for j, val in enumerate(inst.valuations) if val.value(1 << g)) for g in range(inst.m)
    ]
    assert wasted_goods(inst, alloc) == reference_wasted_goods(inst, alloc)
    doc = check_allocation(inst, alloc)
    assert doc["wasted_goods"] == sorted(reference_wasted_goods(inst, alloc))
    assert doc["values"] == [reference_value(v, b) for v, b in zip(inst.valuations, alloc.masks(inst))]
    if alloc.is_complete:
        assert is_eq1(inst, alloc) == reference_is_eq1(inst, alloc)
        assert doc["eq1"] == reference_is_eq1(inst, alloc)
        assert doc["ef1"] == reference_is_ef1(inst, alloc)
        values, masks = doc["values"], alloc.masks(inst)
        assert doc["eq"] == (len(set(values)) <= 1)
        assert doc["ef"] == all(
            reference_value(v, b) <= values[i] for i, v in enumerate(inst.valuations) for b in masks
        )


def test_takers_match_definition():
    # bit j of takers()[g] is set iff bit g of agent j's nonloops is, on
    # seeded additive, GF(2) and mixed instances: n >= 64 (masks wider than
    # a machine word), m = 0, agents with no nonloop and zero GF(2) columns
    rng = random.Random(0x7A6E)
    cases = [Instance([BinaryAdditive([])] * 3), Instance([LinearMatroidGF2(2, [])] * 70)]
    for n in (1, 7, 64, 65, 130):
        m = rng.randint(1, 48)
        additive = random_binary_additive(rng, n, m).valuations
        gf2 = random_matroid_gf2(rng, n, m, k=rng.randint(1, 3)).valuations
        mixed = [rng.choice(pair) for pair in zip(additive, gf2)]
        mixed[rng.randrange(n)] = BinaryAdditive([0] * m)
        mixed[rng.randrange(n)] = LinearMatroidGF2(2, [[0, 0]] * m)
        cases += [Instance(additive), Instance(gf2), Instance(mixed)]
    zero_columns = all_loops = 0
    for inst in cases:
        takers = inst.takers()
        assert len(takers) == inst.m
        for g, t in enumerate(takers):
            assert type(t) is int
            assert t == sum(1 << j for j, v in enumerate(inst.valuations) if v.nonloops >> g & 1)
        for v in inst.valuations:
            all_loops += v.nonloops == 0
            if isinstance(v, LinearMatroidGF2):
                zero_columns += 0 in v.col_masks
    assert all_loops >= 10 and zero_columns >= 10
    assert max(inst.n for inst in cases if inst.m) >= 130


def loopy_valuation(rng: random.Random, m: int, additive: bool):
    """A random additive row with a loop good, or a random GF(2) matrix with
    a pair of parallel columns (when m >= 2)."""
    if additive:
        row = [rng.randint(0, 1) for _ in range(m)]
        row[rng.randrange(m)] = 0
        return BinaryAdditive(row)
    k = rng.randint(1, 4)
    cols = [[rng.randint(0, 1) for _ in range(k)] for _ in range(m)]
    if m >= 2:
        a, b = rng.sample(range(m), 2)
        cols[b] = list(cols[a])
    return LinearMatroidGF2(k, cols)


def floor_table_values(v) -> list[int]:
    """The bundle values of ``floor_table(v)``, after checking every entry
    against the ``coloops`` pair of its bundle."""
    table = floor_table(v)
    assert len(table) == 1 << v.m
    for s, entry in enumerate(table):
        value, coloops = v.coloops(s)
        assert (entry >> 1, entry & 1) == (value, coloops != 0)
    return [entry >> 1 for entry in table]


@settings(max_examples=60)
@given(st.integers(0, 2**20 - 1), st.data())
def test_matroid_marginals_binary_and_submodular(seed, data):
    rng = random.Random(seed)
    m = data.draw(st.integers(1, 6))
    if data.draw(st.booleans()):
        k = data.draw(st.integers(1, 4))
        v = LinearMatroidGF2(k, [[rng.randint(0, 1) for _ in range(k)] for _ in range(m)])
    else:
        v = loopy_valuation(rng, m, additive=data.draw(st.booleans()))
    table = floor_table_values(v)
    for mask in range(1 << m):
        outside = [g for g in range(m) if not (mask >> g) & 1]
        for g in outside:
            assert table[mask | (1 << g)] - table[mask] in (0, 1)
    # diminishing marginals along every chain S <= S'
    for mask in range(1 << m):
        for g in range(m):
            if (mask >> g) & 1:
                continue
            gain_at_empty = table[1 << g]
            assert table[mask | (1 << g)] - table[mask] <= gain_at_empty


def test_submodularity_exhaustive_small(rng):
    # marginal(S, g) >= marginal(S', g) for S subset of S', m <= 6
    vals = [random_matroid_gf2(rng, 1, rng.randint(2, 6)).valuations[0] for _ in range(10)]
    vals += [loopy_valuation(rng, rng.randint(2, 6), additive) for additive in (True, False) * 5]
    for v in vals:
        m = v.m
        table = floor_table_values(v)
        for sup in range(1 << m):
            sub = sup
            while True:  # enumerate submasks
                for g in range(m):
                    if (sup >> g) & 1:
                        continue
                    lo = table[sub | (1 << g)] - table[sub]
                    hi = table[sup | (1 << g)] - table[sup]
                    assert lo >= hi
                if sub == 0:
                    break
                sub = (sub - 1) & sup


# ---------------------------------------------------------------------------
# type identity
# ---------------------------------------------------------------------------


def test_type_index_additive():
    inst = gen_lower_bound_instance(3, 2)
    assert inst.r == 3
    assert inst.type_index == (0, 0, 0, 1, 2)


def test_type_index_keys_each_valuation_object_once(monkeypatch):
    honest, calls = Valuation.canonical_key, []

    def counted(v):
        calls.append(v)
        return honest(v)

    monkeypatch.setattr(Valuation, "canonical_key", counted)
    inst = gen_submodular_lb_instance(4)  # 8 agents holding 2 objects
    assert inst.type_index == (0, 0, 0, 0, 1, 1, 1, 1)
    assert len(calls) == 2
    # distinct objects sharing one function share a type, as when every
    # agent is keyed: the additive row and the matrix key alike
    add, mat = BinaryAdditive([1, 1, 0]), LinearMatroidGF2(2, [E1, E2, [0, 0]])
    other = LinearMatroidGF2(2, [E1, E1, [0, 0]])
    for vals in ([other, add, mat, add, other, mat], [add, mat, other, mat, add]):
        keys: dict = {}
        want = tuple(keys.setdefault(honest(v), len(keys)) for v in vals)
        calls.clear()
        assert Instance(vals).type_index == want
        assert len(calls) == 3


def test_type_identity_across_representations():
    # additive (1,1,0) equals the matroid with distinct basis columns
    add = BinaryAdditive([1, 1, 0])
    mat = LinearMatroidGF2(2, [E1, E2, [0, 0]])
    assert add.canonical_key() == mat.canonical_key()
    # an invertible row operation leaves the rank function unchanged
    mat2 = LinearMatroidGF2(2, [[1, 1], [1, 0], [0, 0]])
    assert Instance([mat, mat2]).r == 1
    # parallel columns are a genuinely different matroid
    mat3 = LinearMatroidGF2(2, [E1, E1, [0, 0]])
    assert Instance([mat, mat3]).r == 2


def test_type_key_keeps_the_non_loops_outside_the_basis():
    # same greedy basis {2} and the same circuit list ({2},), but good 0 is
    # the loop of one and good 1 the loop of the other
    a = LinearMatroidGF2(1, [[1], [0], [1]])
    b = LinearMatroidGF2(1, [[0], [1], [1]])
    assert a.value(0b001) != b.value(0b001)
    assert a.canonical_key() != b.canonical_key()
    assert Instance([a, b]).r == 2


def _random_valuation(rng, m):
    """An additive row, or a GF(2) matrix with zero rows and columns, and
    columns repeated from a small pool."""
    if rng.random() < 0.3:
        return BinaryAdditive([rng.randint(0, 1) for _ in range(m)])
    k = rng.randint(0, 4)
    pool = [[rng.randint(0, 1) for _ in range(k)] for _ in range(rng.randint(1, 3))]
    cols = []
    for _ in range(m):
        col = [rng.randint(0, 1) for _ in range(k)] if rng.random() < 0.5 else rng.choice(pool)
        cols.append(list(col))
    if k and rng.random() < 0.5:
        zero = rng.randrange(k)
        for col in cols:
            col[zero] = 0
    return LinearMatroidGF2(k, cols)


def test_type_identity_iff_equal_rank_function(rng):
    # the canonical key agrees exactly with bundle-by-bundle equality, across
    # additive rows and GF(2) matrices with zero rows and repeated columns
    same = 0
    for _ in range(1500):
        m = rng.randint(0, 6)
        a, b = _random_valuation(rng, m), _random_valuation(rng, m)
        same_fn = all(a.value(s) == b.value(s) for s in range(1 << m))
        assert same_fn == (a.canonical_key() == b.canonical_key())
        same += same_fn
    assert 100 < same < 1400  # both outcomes well represented


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------


def test_eq1_equal_values_true(rng):
    inst = random_binary_additive(rng, 3, 6, W=4)
    alloc = Allocation([0, 0, 1, 1, 2, 2], 3)
    doc = check_allocation(inst, alloc)
    if len(set(alloc.values(inst))) == 1:
        assert is_eq1(inst, alloc) and doc["eq1"]
    assert doc["eq"] or len(set(alloc.values(inst))) > 1


def test_eq1_gap_of_two_fails():
    inst = Instance([BinaryAdditive([0, 0]), BinaryAdditive([1, 1])])
    alloc = Allocation([1, 1], 2)
    assert alloc.values(inst) == (0, 2)
    assert not is_eq1(inst, alloc)


def test_eq1_truncated_family_allocation():
    inst = gen_lower_bound_instance(2, 2)
    res = solve(inst, [UTILITARIAN])
    assert is_eq1(inst, res.b)


def test_check_allocation_reads_one_view(monkeypatch, rng):
    # values, EQ and EQ1 from each agent's own bundle, EF and EF1 from one
    # view per valuation object: at most n^2 + n coloops calls, and 2n when
    # every agent holds the same object
    honest, calls = LinearMatroidGF2.coloops, []

    def counted(v, bundle):
        calls.append(bundle)
        return honest(v, bundle)

    monkeypatch.setattr(LinearMatroidGF2, "coloops", counted)
    inst = random_matroid_gf2(rng, 5, 12)
    alloc = random_allocation(rng, inst)
    doc = check_allocation(inst, alloc)
    assert list(doc) == ["complete", "values", "wasted_goods", "eq", "eq1", "ef", "ef1"]
    assert len(calls) <= inst.n ** 2 + inst.n
    shared = Instance(inst.valuations[:1] * inst.n)
    calls.clear()
    assert check_allocation(shared, alloc)["complete"]
    assert len(calls) == 2 * inst.n


def test_predicates_reject_partial():
    inst = Instance([BinaryAdditive([1, 1])])
    partial = Allocation([-1, 0], 1)
    with pytest.raises(ValueError):
        is_eq1(inst, partial)
    # a partial allocation gets no fairness keys
    assert check_allocation(inst, partial) == {"complete": False, "values": [1], "wasted_goods": []}


def test_single_agent_all_predicates(rng):
    inst = Instance([BinaryAdditive([rng.randint(0, 1) for _ in range(5)])])
    alloc = Allocation([0] * 5, 1)
    doc = check_allocation(inst, alloc)
    assert is_eq1(inst, alloc) and doc["eq1"] and doc["eq"]
    assert doc["ef"] and doc["ef1"]


def test_identical_valuations_ef1_iff_eq1(rng):
    for _ in range(100):
        n, m = rng.randint(2, 4), rng.randint(1, 6)
        if rng.random() < 0.5:
            inst = random_binary_additive(rng, 1, m)
            inst = Instance([inst.valuations[0]] * n)
        else:
            inst = Instance(random_matroid_gf2(rng, 1, m).valuations * n)
        alloc = random_allocation(rng, inst)
        assert check_allocation(inst, alloc)["ef1"] == is_eq1(inst, alloc)


def test_ef_implies_ef1_and_eq_implies_eq1(rng):
    hits = 0
    for _ in range(100):
        n, m = rng.randint(2, 4), rng.randint(1, 6)
        inst = random_binary_additive(rng, n, m)
        alloc = random_allocation(rng, inst)
        doc = check_allocation(inst, alloc)
        if doc["ef"]:
            hits += 1
            assert doc["ef1"]
        if doc["eq"]:
            assert doc["eq1"] and is_eq1(inst, alloc)
    assert hits  # the suite actually exercised the implication


# ---------------------------------------------------------------------------
# wasted goods / cleaning
# ---------------------------------------------------------------------------


def test_wasted_clean_allocation_empty():
    inst = Instance([BinaryAdditive([1, 1])])
    alloc = Allocation([0, 0], 1)
    assert wasted_goods(inst, alloc) == frozenset()


def test_wasted_zero_value_good():
    inst = Instance([BinaryAdditive([1, 0])])
    alloc = Allocation([0, 0], 1)
    assert wasted_goods(inst, alloc) == frozenset({1})


def test_wasted_matroid_parallel_pair_reports_one():
    inst = Instance([LinearMatroidGF2(2, [E1, E1])])
    alloc = Allocation([0, 0], 1)
    assert len(wasted_goods(inst, alloc)) == 1


def test_make_clean_identity_on_clean():
    inst = Instance([BinaryAdditive([1, 1])])
    alloc = Allocation([0, 0], 1)
    assert make_clean(inst, alloc).owner == alloc.owner


def test_make_clean_moves_zero_good_to_pool():
    inst = Instance([BinaryAdditive([1, 0])])
    cleaned = make_clean(inst, Allocation([0, 0], 1))
    assert cleaned.owner == (0, -1)


def test_make_clean_preserves_values(rng):
    # a random allocation and the solver's A*, each cleaned
    for _ in range(200):
        n, m = rng.randint(1, 4), rng.randint(1, 7)
        if rng.random() < 0.5:
            inst = random_binary_additive(rng, n, m)
        else:
            inst = random_matroid_gf2(rng, n, m)
        for alloc in (random_allocation(rng, inst), solve(inst, [UTILITARIAN]).a_star):
            cleaned = make_clean(inst, alloc)
            assert cleaned.values(inst) == alloc.values(inst)
            for v, b in zip(inst.valuations, cleaned.masks(inst)):
                assert v.value(b) == b.bit_count()


# ---------------------------------------------------------------------------
# validation and serialization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "entry, accepted",
    [(0, True), (2, True), (-1, True), (True, False), (-2, False), (3, False),
     (1.0, False), ("0", False), ([0], False)],
)
def test_allocation_entries(entry, accepted):
    n = 3  # agent indices 0..2, or -1 for unassigned
    owner = [0, entry, -1]
    if accepted:
        assert Allocation(owner, n).owner == (0, entry, -1)
    else:
        with pytest.raises(ValueError, match="owner entries must be integer agent indices or -1"):
            Allocation(owner, n)


def test_allocation_without_goods():
    assert Allocation([], 2).m == 0


def test_validate_family():
    report = validate(gen_lower_bound_instance(3, 2))
    assert report["W"] == 2 and report["r"] == 3 and not report["warnings"]
    assert report["binary_submodular"] is True
    # the object check prints, keys in its order
    assert list(report) == ["W", "r", "warnings", "binary_submodular"]


def test_validate_unvalued_good_warning():
    inst = Instance([BinaryAdditive([1, 0]), BinaryAdditive([1, 0])])
    report = validate(inst)
    assert any("valued by no agent" in w for w in report["warnings"])
    assert report["W"] == 1


def test_validate_unvalued_goods_ascending():
    inst = Instance([BinaryAdditive([0, 1, 0, 0]), LinearMatroidGF2(1, [[0], [0], [1], [0]])])
    assert validate(inst)["warnings"] == ["good 0 valued by no agent", "good 3 valued by no agent"]


def test_validate_not_normalised():
    inst = Instance([BinaryAdditive([1, 0]), BinaryAdditive([1, 1])])
    assert validate(inst)["W"] == "not normalised"


def test_grand_value_is_the_value_of_all_goods(rng):
    vals = [
        BinaryAdditive([1, 0, 1, 1]),
        BinaryAdditive([0, 0, 0]),
        BinaryAdditive([]),
        LinearMatroidGF2(3, [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]]),  # full rank
        LinearMatroidGF2(5, [[1, 0, 1, 0, 0], [0, 1, 0, 0, 1]]),  # rows > m
        LinearMatroidGF2(3, [[1, 1, 0]] * 4),  # repeated columns
        LinearMatroidGF2(2, [[0, 0], [1, 0], [0, 0]]),  # zero columns
        LinearMatroidGF2(2, [[0, 0]] * 3),
        LinearMatroidGF2(0, [[], []]),  # rows == 0
        LinearMatroidGF2(0, []),
    ]
    expected = [3, 0, 0, 3, 2, 1, 1, 0, 0, 0]
    for _ in range(20):
        n, m = rng.randint(1, 3), rng.randint(1, 12)
        vals.extend(random_binary_additive(rng, n, m).valuations)
        # k = 0 has no rows, and k > m more rows than columns
        vals.extend(random_matroid_gf2(rng, n, m, k=rng.randint(0, 6)).valuations)
        vals.extend(random_matroid_gf2(rng, n, m, W=rng.randint(1, m)).valuations)
    for i, v in enumerate(vals):
        assert v.grand_value == v.value((1 << v.m) - 1) == reference_value(v, (1 << v.m) - 1), v
        if i < len(expected):
            assert v.grand_value == expected[i], v
    # the normalisation constant is the common grand value
    inst = Instance([vals[3], BinaryAdditive([1, 1, 1, 0])])
    assert inst.normalisation() == 3 and validate(inst)["W"] == 3
    assert Instance([vals[3], vals[5]]).normalisation() is None


def test_instance_json_round_trip(rng):
    for _ in range(20):
        n, m = rng.randint(1, 4), rng.randint(1, 6)
        inst = (
            random_binary_additive(rng, n, m)
            if rng.random() < 0.5
            else random_matroid_gf2(rng, n, m)
        )
        again = Instance.from_json(inst.to_json())
        assert again.to_json() == inst.to_json()


def reference_valuation_doc(v: Valuation) -> dict:
    """A valuation's document, one Python step per matrix entry."""
    if isinstance(v, BinaryAdditive):
        return {"kind": "additive", "row": list(v.row)}
    cols = [[(cm >> j) & 1 for j in range(v.rows)] for cm in v.col_masks]
    return {"kind": "matroid_gf2", "rows": v.rows, "cols": cols}


def test_instance_json_encodes_each_distinct_valuation_once(rng, monkeypatch):
    calls: dict[int, int] = {}
    for cls in (BinaryAdditive, LinearMatroidGF2):
        def counted(self, _encode=cls.to_json):
            calls[id(self)] = calls.get(id(self), 0) + 1
            return _encode(self)
        monkeypatch.setattr(cls, "to_json", counted)
    a, b = random_matroid_gf2(rng, 2, 7, k=70).valuations
    shared = [a, BinaryAdditive([1, 0, 1, 1, 0, 0, 1]), a, LinearMatroidGF2(0, [[]] * 7), b, a]
    instances = [Instance(shared), gen_submodular_lb_instance(3), random_matroid_gf2(rng, 4, 9, W=3)]
    for inst in instances:
        calls.clear()
        doc = inst.to_json()
        assert sorted(calls) == sorted(map(id, set(inst.valuations)))
        assert set(calls.values()) == {1}
        want = {"n": inst.n, "m": inst.m, "valuations": [reference_valuation_doc(v) for v in inst.valuations]}
        assert json.dumps(doc, indent=2) == json.dumps(want, indent=2)


def test_allocation_json_round_trip():
    alloc = Allocation([2, -1, 0], 3)
    assert Allocation.from_json(alloc.to_json(), 3, 3) == alloc


def test_allocation_length_must_match_instance():
    inst = gen_lower_bound_instance(2, 2)  # 4 goods
    short = {"owner": [0, 3]}
    with pytest.raises(ValueError, match="covers 2 goods"):
        Allocation.from_json(short, inst.n, inst.m)
    with pytest.raises(ValueError, match="covers 2 goods"):
        Allocation([0, 3], inst.n).values(inst)
    with pytest.raises(ValueError, match="covers 5 goods"):
        Allocation([0, 1, 2, 3, 0], inst.n).values(inst)
    with pytest.raises(ValueError, match="has 5 agents"):
        Allocation([0, 1, 2, 4], 5).values(inst)
