"""Welfare measures, the positive-subset convention, and comparison keys."""

from __future__ import annotations

from fractions import Fraction

import functools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poe_toolkit.bounds import lambda_family_poe
from poe_toolkit.generators import (
    example1_instance,
    gen_lower_bound_instance,
    random_binary_additive,
)
from poe_toolkit.doubly import solve_flow
from poe_toolkit.model import Allocation, BinaryAdditive, Instance, LinearMatroidGF2
from poe_toolkit.solver import solve
from poe_toolkit.verify import FLOAT_TOL
from poe_toolkit.welfare import (
    NASH,
    NEG_INF,
    PParam,
    UTILITARIAN,
    fill,
    max_positive_count,
    p_mean,
    poe_ratio,
    welfare_key,
    welfare_report,
)

P_GRID = (UTILITARIAN, PParam.real(Fraction(1, 2)), NASH, PParam.real(-1),
          PParam.real(-10), NEG_INF)


# ---------------------------------------------------------------------------
# PParam
# ---------------------------------------------------------------------------


def test_parse_tokens():
    assert PParam.parse("1") == UTILITARIAN
    assert PParam.parse("1/2").value == Fraction(1, 2)
    assert PParam.parse("nash") == NASH
    assert PParam.parse("-inf") == NEG_INF
    assert PParam.parse("0") == NASH  # the p = 0 mean is the Nash limit
    assert PParam.parse("-0.5").value == Fraction(-1, 2)
    assert PParam.parse("1e-6").value == Fraction(1, 10**6)  # the smallest |p| accepted
    assert PParam.parse("-1e300").value == -10**300


def test_parse_round_trip():
    for p in P_GRID:
        assert PParam.parse(str(p)) == p


def test_equal_params_share_dict_entries():
    # the hash is computed once, from the same fields equality compares
    half = (PParam.real(Fraction(1, 2)), PParam.parse("1/2"), PParam.parse("0.5"))
    assert len(set(half)) == 1
    for p in half:
        assert p == half[0] and hash(p) == hash(half[0])
        assert {half[0]: "x"}[p] == "x" and {p: "y"}[half[0]] == "y"
    assert repr(half[0]) == "PParam(1/2)"
    assert len({NASH, PParam.parse("nash"), PParam.real(0), NEG_INF, PParam.parse("egal")}) == 2


def test_p_above_one_rejected():
    with pytest.raises(ValueError):
        PParam.real(2)


@pytest.mark.parametrize("p", ["1e-400", "-1e400", "1e-320", "-1e-320"])
def test_p_beyond_float_range_rejected(p):
    # float(p) is 0, overflows, or has an infinite reciprocal
    with pytest.raises(ValueError, match="finite nonzero floats"):
        PParam.real(Fraction(p))


@pytest.mark.parametrize("p", ["1e-6", "-1e-6"])
def test_p_at_the_near_zero_bound_stays_within_float_tol(p):
    # |p| = 1e-6 still parses, and its PoE on lb(3, 2) is within FLOAT_TOL of
    # the stable form exp(log1p(mean(expm1(p ln x))) / p) of both p-means;
    # nearer 0 the float p-mean drifts past it, so 0 < |p| < 1e-6 is refused
    param = PParam.parse(p)
    pf = float(param.value)
    res = solve(gen_lower_bound_instance(3, 2), [param])

    def stable(report):
        entries = [x for x in report.values if x]
        assert len(entries) == report.restrict
        mean = math.fsum(math.expm1(pf * math.log(x)) for x in entries) / len(entries)
        return math.exp(math.log1p(mean) / pf)

    want = stable(res.report_a_star) / stable(res.report_b)
    assert math.isclose(res.poe[param], want, rel_tol=FLOAT_TOL)
    with pytest.raises(ValueError, match="use nash"):
        PParam.real(param.value / 10)


# ---------------------------------------------------------------------------
# positive capacity
# ---------------------------------------------------------------------------


def test_capacity_family():
    for r, W in ((2, 2), (3, 4), (4, 1)):
        inst = gen_lower_bound_instance(r, W)
        assert max_positive_count(inst) == W + r - 1


def test_capacity_disjoint_singletons():
    inst = Instance([BinaryAdditive([1 if g == i else 0 for g in range(3)]) for i in range(3)])
    assert max_positive_count(inst) == 3


def test_capacity_single_contested_good():
    inst = Instance([BinaryAdditive([1])] * 3)
    assert max_positive_count(inst) == 1


def test_capacity_greedy_rerouted():
    # greedy gives good 0 to agent 0; a path must move agent 0 to good 1
    inst = Instance([BinaryAdditive([1, 1]), BinaryAdditive([1, 0])])
    assert max_positive_count(inst) == 2


def test_capacity_greedy_matches_everyone():
    inst = Instance([BinaryAdditive([1, 1, 0]), BinaryAdditive([1, 1, 0]),
                     BinaryAdditive([0, 1, 1])])
    assert max_positive_count(inst) == 3


def test_capacity_agent_valuing_nothing():
    inst = Instance([BinaryAdditive([0, 0]), BinaryAdditive([1, 1]), BinaryAdditive([1, 0])])
    assert max_positive_count(inst) == 2


def brute_force_capacity(valued: list[set[int]]) -> int:
    """Most agents mapped injectively to goods they value."""
    def best(i: int, used: frozenset[int]) -> int:
        if i == len(valued):
            return 0
        return max([best(i + 1, used)]
                   + [1 + best(i + 1, used | {g}) for g in valued[i] - used])
    return best(0, frozenset())


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_capacity_matches_brute_force(data):
    n, m = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    matrix = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=m, max_size=m),
                                min_size=n, max_size=n))
    vals = []
    for row in matrix:
        if data.draw(st.booleans()):
            vals.append(BinaryAdditive(row))
        else:  # a GF(2) matrix whose nonzero columns are the valued goods
            cols = [data.draw(st.sampled_from([(0, 1), (1, 0), (1, 1)])) if x else (0, 0)
                    for x in row]
            vals.append(LinearMatroidGF2(2, cols))
    valued = [{g for g in range(m) if row[g]} for row in matrix]
    assert max_positive_count(Instance(vals)) == brute_force_capacity(valued)


def brute_force_fill(rows: list[int], m: int, c: int) -> int:
    """Most goods handed out, each to an agent that likes it, at most c per agent."""
    @functools.cache
    def best(g: int, loads: tuple[int, ...]) -> int:
        if g == m:
            return 0
        return max([best(g + 1, loads)]
                   + [1 + best(g + 1, loads[:i] + (k + 1,) + loads[i + 1:])
                      for i, k in enumerate(loads) if rows[i] >> g & 1 and k < c])
    return best(0, (0,) * len(rows))


@settings(max_examples=500, deadline=None)
@given(
    st.integers(0, 7).flatmap(lambda m: st.tuples(
        st.just(m), st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=4))),
    st.lists(st.integers(1, 3), min_size=1, max_size=2).map(sorted),
)
# in the last round's layers, the layer with the free good also holds goods
# whose owners lead on to later layers
@example((7, [0b1101011, 0b1101011, 0b110]), [1, 2])
@example((7, [0b1101001, 0b100110, 0b1011011, 0b1010]), [2])
def test_fill_matches_brute_force(graph, caps):
    m, rows = graph
    owner, load = fill(rows, m, caps)
    assert sum(load) == brute_force_fill(rows, m, caps[-1])
    assert max(load) <= caps[-1]
    assert load == [owner.count(i) for i in range(len(rows))]
    assert all(rows[i] >> g & 1 for g, i in enumerate(owner) if i >= 0)


def test_capacity_long_augmenting_path():
    # Agent i values goods {i, i+1} and the last agent only good 0, so the
    # last agent's augmenting path runs through every other agent.
    n = 1200
    rows = [[1 if g in (i, i + 1) else 0 for g in range(n)] for i in range(n - 1)]
    rows.append([1] + [0] * (n - 1))
    inst = Instance([BinaryAdditive(row) for row in rows])
    assert max_positive_count(inst) == n


# ---------------------------------------------------------------------------
# p_mean
# ---------------------------------------------------------------------------


def test_p_mean_utilitarian_exact():
    assert p_mean((1, 1, 2), UTILITARIAN, 3) == Fraction(4, 3)


def test_p_mean_nash_geometric():
    assert p_mean((1, 4), NASH, 2) == pytest.approx(2.0)


def test_p_mean_egalitarian():
    assert p_mean((3, 1, 2), NEG_INF, 3) == 1


def test_p_mean_float_sums_run_left_to_right():
    # Python 3.12 made float sum() compensated, which moves the last bits
    # here; the mean adds its terms left to right on every version
    assert p_mean((1, 2, 3, 5, 8), NASH, 5) == 2.992555739477689
    assert p_mean((1, 2, 3, 4, 5, 6, 7), PParam.real(Fraction(1, 2)), 7) == 3.7070405058601428


@pytest.mark.parametrize("p", [-678, -1000])
def test_p_mean_underflow_raises(p):
    # 3^p / 2 is below the normal float range: the mean has lost precision
    with pytest.raises(ValueError, match=f"p = {p} "):
        p_mean((3, 4), PParam.real(p), 2)
    assert p_mean((3, 0), PParam.real(p), 2) == 0.0  # dominated: no powers taken


def test_p_mean_family_optimum_matches_family_formula():
    # optimal vector of the (r, W) family: W ones and s copies of W
    for p in (PParam.real(-1), PParam.real(Fraction(-1, 2)), PParam.real(-10)):
        for r, W in ((3, 4), (5, 2)):
            s = r - 1
            values = (1,) * W + (W,) * s
            num = p_mean(values, p, W + s)
            eq1 = p_mean((1,) * (W + s), p, W + s)
            assert float(num) / float(eq1) == pytest.approx(
                float(lambda_family_poe(p, W, r)), rel=1e-12
            )


def test_p_mean_dominated_vector_counts_first():
    restrict = 2
    dominated = welfare_key((100, 0), UTILITARIAN, restrict)
    attaining = welfare_key((1, 1), UTILITARIAN, restrict)
    assert attaining > dominated  # positive count precedes welfare


P_WIDE = P_GRID + (PParam.real(Fraction(9, 10)), PParam.real(Fraction(-1, 3)))
EXACT = (UTILITARIAN, NEG_INF)


def plain_mean(values, p: PParam):
    """The p-mean over all entries, zeros included; 0 for no entries."""
    n = len(values)
    if n == 0:
        return 0
    if p.kind == "neg_inf":
        return min(values)
    if p.kind == "nash":
        return 0.0 if 0 in values else math.exp(math.fsum(map(math.log, values)) / n)
    if p.value == 1:
        total = sum(values)
        return total / n if isinstance(total, float) else Fraction(total, n)
    pf = float(p.value)
    if pf < 0 and 0 in values:
        return 0.0
    return (math.fsum(float(v) ** pf for v in values) / n) ** (1 / pf)


nonnegative_vectors = st.one_of(
    st.lists(st.integers(0, 9), max_size=7),
    st.lists(st.one_of(st.just(0.0), st.floats(0.05, 50.0)), max_size=7),
)


@settings(max_examples=300)
@given(nonnegative_vectors)
@example([])
@example([0, 0])
@example([0.0, 2.5, 3])
def test_p_mean_over_all_entries_is_the_plain_mean(values):
    # the positive-subset convention over all len(values) agents is the
    # plain mean over every entry, zeros included
    for p in P_WIDE:
        got = p_mean(values, p, len(values))
        want = plain_mean(values, p)
        if p in EXACT and all(type(v) is int for v in values):
            assert got == want, (p, values)
        else:
            assert math.isclose(float(got), float(want), rel_tol=1e-12), (p, values)


@settings(max_examples=300)
@given(nonnegative_vectors, st.integers(0, 8))
@example([0, 3, 1], 3)
@example([2, 2.0, 5], 3)
@example([0.0, 4], 0)
def test_neg_inf_keys_keep_values_and_types(values, restrict):
    # the egalitarian mean of a vector at the capacity is its first smallest
    # positive entry itself (an int stays an int), and of any other vector
    # an exact Fraction(0)
    positives = [v for v in values if v > 0]
    if restrict and len(positives) >= restrict:
        low = min(map(float, positives))
        want = next(v for v in positives if v == low)
    else:
        want = Fraction(0)
    key = welfare_key(values, NEG_INF, restrict)
    assert key == (len(positives), want)
    assert type(key[1]) is type(want)
    if 0 in values or not values:
        assert type(p_mean(values, NEG_INF, len(values))) is Fraction


def case_table_key(values, p: PParam, restrict: int):
    """The comparison key written out case by case: short of the capacity
    or not, times Nash, egalitarian or real p."""
    positives = [v for v in values if v > 0]
    count = len(positives)
    if count < restrict:
        if p.kind == "nash":
            second = math.prod(positives) if positives else 0
        elif p.kind == "neg_inf":
            second = 0
        else:
            second = p_mean(values, p, restrict)
        return (count, second)
    if p.kind == "nash":
        return (count, math.prod(positives))
    if p.kind == "neg_inf":
        return (count, min(positives) if positives else 0)
    return (count, p_mean(values, p, restrict))


def vectors_within(restrict: int):
    """Nonnegative int vectors with at most ``restrict`` positive entries."""
    return st.tuples(st.lists(st.integers(1, 6), max_size=restrict), st.integers(0, 2)).flatmap(
        lambda pz: st.permutations(pz[0] + [0] * pz[1])
    )


def _cmp(a, b) -> int:
    return (a > b) - (a < b)


@settings(max_examples=300)
@given(st.integers(0, 4), st.data())
def test_welfare_key_orders_as_the_case_table(restrict, data):
    a = data.draw(vectors_within(restrict))
    b = data.draw(vectors_within(restrict))
    for p in P_WIDE:
        key_a, key_b = welfare_key(a, p, restrict), welfare_key(b, p, restrict)
        ref_a, ref_b = case_table_key(a, p, restrict), case_table_key(b, p, restrict)
        assert _cmp(key_a, key_b) == _cmp(ref_a, ref_b), (p, a, b)
        # the keys agree outright, except Nash's with no positive entry:
        # (0, 1), the empty product, where the table wrote (0, 0) short of
        # the capacity; every such vector still shares one key
        if p.kind != "nash" or key_a[0] > 0:
            assert key_a == ref_a, (p, a)


@settings(max_examples=100)
@given(st.integers(1, 4), st.integers(0, 6), st.data())
def test_report_reads_keys_and_means_from_the_rule(n, m, data):
    bits = st.lists(st.integers(0, 1), min_size=m, max_size=m)
    rows = data.draw(st.lists(bits, min_size=n, max_size=n))
    owner = data.draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    inst = Instance([BinaryAdditive(row) for row in rows])
    restrict = max_positive_count(inst)
    rep = welfare_report(inst, Allocation(owner, n), P_WIDE, restrict)
    assert rep.restrict == restrict and list(rep.keys) == list(rep.pmean) == list(P_WIDE)
    for p in P_WIDE:
        assert rep.keys[p] == welfare_key(rep.values, p, restrict)
        assert rep.pmean[p] == p_mean(rep.values, p, restrict)


# ---------------------------------------------------------------------------
# welfare_report
# ---------------------------------------------------------------------------


def test_report_identical_balanced():
    inst = Instance([BinaryAdditive([1, 1, 1, 1])] * 2)
    alloc = Allocation([0, 0, 1, 1], 2)
    rep = welfare_report(inst, alloc, P_GRID, max_positive_count(inst))
    for p in P_GRID:
        assert float(rep.pmean[p]) == pytest.approx(2.0)


def test_report_example1_flow_welfare():
    inst = example1_instance()
    alloc = solve_flow(inst)
    rep = welfare_report(inst, alloc, [UTILITARIAN], max_positive_count(inst))
    assert sum(rep.values) == 6  # utilitarian welfare equals the good count


def test_report_values_match_direct_calls(rng):
    for _ in range(25):
        inst = random_binary_additive(rng, rng.randint(2, 4), rng.randint(1, 6))
        alloc = Allocation([rng.randrange(inst.n) for _ in range(inst.m)], inst.n)
        rep = welfare_report(inst, alloc, [UTILITARIAN], max_positive_count(inst))
        assert rep.values == tuple(
            v.value(b) for v, b in zip(inst.valuations, alloc.masks(inst))
        )


# ---------------------------------------------------------------------------
# analytic properties
# ---------------------------------------------------------------------------

positive_vectors = st.lists(st.floats(0.05, 50.0), min_size=2, max_size=6)


@settings(max_examples=150)
@given(positive_vectors, positive_vectors, st.floats(0, 1))
def test_concavity(x, y, t):
    n = min(len(x), len(y))
    x, y = x[:n], y[:n]
    mix = [t * a + (1 - t) * b for a, b in zip(x, y)]
    for p in (UTILITARIAN, PParam.real(Fraction(1, 2)), NASH, PParam.real(-1), NEG_INF):
        lhs = float(p_mean(mix, p, n))
        rhs = t * float(p_mean(x, p, n)) + (1 - t) * float(p_mean(y, p, n))
        assert lhs >= rhs - 1e-9


@settings(max_examples=150)
@given(positive_vectors, st.data())
def test_averaging_weakly_increases(x, data):
    idx = data.draw(st.sets(st.integers(0, len(x) - 1), min_size=1))
    avg = sum(x[i] for i in idx) / len(idx)
    y = [avg if i in idx else v for i, v in enumerate(x)]
    for p in P_GRID:
        assert float(p_mean(y, p, len(x))) >= float(p_mean(x, p, len(x))) - 1e-9


def _le_up_to_rounding(a: float, b: float) -> bool:
    """a <= b, forgiving float rounding only: a relative 1e-12 of the larger
    side (the sums here reach about 6e6, where one ulp is about 1e-9)."""
    return a <= b + 1e-12 * max(abs(a), abs(b))


@settings(max_examples=150)
@given(positive_vectors)
@example([43.26888530418735] * 3)  # equal sides at p = -3 differ by 2.3e-9 after rounding
def test_jensen_direction(x):
    l = len(x)
    mean = sum(x) / l
    for p in (Fraction(0), Fraction(1, 2), Fraction(1)):
        q = 1 - p
        assert _le_up_to_rounding(sum(v ** float(q) for v in x) / l, float(mean) ** float(q))
    for p in (Fraction(-1), Fraction(-3)):
        q = 1 - p
        assert _le_up_to_rounding(float(mean) ** float(q), sum(v ** float(q) for v in x) / l)


def test_strict_monotonicity(rng):
    for _ in range(60):
        n = rng.randint(2, 5)
        values = [rng.randint(1, 9) for _ in range(n)]
        i = rng.randrange(n)
        bumped = list(values)
        bumped[i] += 1
        for p in (UTILITARIAN, PParam.real(Fraction(1, 2)), NASH, PParam.real(-2)):
            assert float(p_mean(bumped, p, n)) > float(p_mean(values, p, n))


def test_key_total_preorder(rng):
    for p in P_GRID:
        keys = []
        for _ in range(40):
            n = rng.randint(2, 4)
            values = tuple(rng.randint(0, 4) for _ in range(n))
            keys.append(welfare_key(values, p, n))
        keys.sort()  # comparable without error
        assert keys == sorted(keys)


def test_exact_keys_for_exact_ps():
    key1 = welfare_key((2, 3, 4), UTILITARIAN, 3)
    assert key1 == (3, Fraction(3))
    assert welfare_key((2, 3, 4), NASH, 3) == (3, 24)
    assert welfare_key((2, 3, 4), NEG_INF, 3) == (3, 2)


def test_poe_ratio_nash_beyond_float_range():
    ratio = poe_ratio((100, 10**400), (100, 1), NASH, 100)
    assert math.isclose(ratio, 1e4, rel_tol=1e-12)
    assert poe_ratio((3, 24), (3, 3), NASH, 3) == float(Fraction(24, 3)) ** (1 / 3)
