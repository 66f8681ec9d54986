"""Solver pipeline against the exhaustive oracle and the structural claims."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from collections import Counter, deque
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poe_toolkit.bounds import lambda_family_poe
from poe_toolkit.generators import (
    gen_doubly_normalised,
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
    goods_of,
    is_eq1,
    wasted_goods,
)
from poe_toolkit.oracle import enumerate_allocations
from poe_toolkit.solver import (
    SolverInternalError,
    _State,
    _balance,
    diagnostics,
    max_utilitarian_clean,
    nash_optimal,
    solve,
    truncate,
)
from poe_toolkit.verify import (
    EXACT_P,
    FLOAT_TOL,
    GATE_P_LIST,
    gate_closed_forms,
    gate_matroid_floor,
    gate_optimal_allocations,
    gate_rank_bound,
    oracle_corpus,
)
from poe_toolkit.welfare import (
    NASH,
    NEG_INF,
    UTILITARIAN,
    max_positive_count,
    welfare_key,
)


def brute_force_max_utilitarian(inst: Instance) -> int:
    best = 0
    for assign in itertools.product(range(inst.n), repeat=inst.m):
        alloc = Allocation(assign, inst.n)
        best = max(best, sum(alloc.values(inst)))
    return best


def relabel(inst: Instance, agents, goods, zero_goods: int = 0) -> Instance:
    """Agent k of the result is agent ``agents[k]`` of ``inst`` and good h is
    its good ``goods[h]``; ``zero_goods`` goods nobody values are appended."""
    vals = []
    for i in agents:
        v = inst.valuations[i]
        if isinstance(v, BinaryAdditive):
            vals.append(BinaryAdditive([v.row[g] for g in goods] + [0] * zero_goods))
        else:
            cols = v.to_json()["cols"]
            zero_col = [0] * v.rows
            vals.append(LinearMatroidGF2(v.rows, [cols[g] for g in goods] + [zero_col] * zero_goods))
    return Instance(vals)


def small_corpus(rng, count):
    out = []
    for _ in range(count):
        n, m = rng.randint(2, 4), rng.randint(1, 7)
        if rng.random() < 0.5:
            out.append(random_binary_additive(rng, n, m))
        else:
            out.append(random_matroid_gf2(rng, n, m))
    return out


# ---------------------------------------------------------------------------
# max_utilitarian_clean
# ---------------------------------------------------------------------------


def test_util_family_total():
    for r, W in ((2, 2), (3, 4), (4, 3)):
        inst = gen_lower_bound_instance(r, W)
        alloc = Allocation(max_utilitarian_clean(inst).owner, inst.n)
        assert sum(alloc.values(inst)) == r * W


def test_util_matroid_family_total():
    for k in (1, 2, 3, 4):
        inst = gen_submodular_lb_instance(k)
        alloc = Allocation(max_utilitarian_clean(inst).owner, inst.n)
        assert sum(alloc.values(inst)) == k + k * k


def test_util_matches_brute_force(rng):
    for inst in small_corpus(rng, 40):
        alloc = Allocation(max_utilitarian_clean(inst).owner, inst.n)
        assert sum(alloc.values(inst)) == brute_force_max_utilitarian(inst)
        for v, b in zip(inst.valuations, alloc.masks(inst)):
            assert v.value(b) == b.bit_count()  # clean


def test_search_takes_first_good_then_lowest_absorber():
    # good 0 can be added only by agent 1, good 1 only by agent 0 (good 0 is
    # a zero column for agent 0's GF(2) matrix); the search returns the first
    # source good it can place, with the lowest absorber for that good
    inst = Instance([LinearMatroidGF2(1, [[0], [1], [1]]), BinaryAdditive([1, 1, 0])])
    state = _State(inst, [UNASSIGNED] * inst.m)
    assert state.below == {0, 1}
    assert state._bfs(state.pool, state.below) == ([0], 1)
    assert state._bfs(state.pool & ~1, state.below) == ([1], 0)
    assert state._bfs(state.pool, (0,)) == ([1], 0)
    state.apply_path([1], 0)
    # agent 0 is at its grand value; no source is placed directly, so the
    # search walks the arcs: agent 0 swaps good 1 for good 2, and agent 1
    # adds good 1
    assert state.below == {1}
    assert state._bfs(1 << 2, state.below) == ([2, 1], 1)
    state.apply_path([2, 1], 1)
    assert state._bfs(state.pool, state.below) == ([0], 1)
    state.apply_path([0], 1)
    # no absorber left: the search does not walk and returns its sources
    assert state.below == set() and state._bfs(state.pool, state.below) == state.pool


def test_dependent_addition_raises():
    # goods 1 and 2 are parallel for agent 0, and agent 1 does not value
    # good 2: a path that makes either bundle dependent is refused
    inst = Instance([LinearMatroidGF2(1, [[0], [1], [1]]), BinaryAdditive([1, 1, 0])])
    for owner, path, absorber in (([UNASSIGNED, 0, UNASSIGNED], [2], 0),
                                  ([1, UNASSIGNED, UNASSIGNED], [2, 0], 0)):
        state = _State(inst, owner)
        with pytest.raises(SolverInternalError, match="independence"):
            state.apply_path(path, absorber)


def reference_bfs(inst: Instance, owner, sources: int, absorbers):
    """Textbook breadth-first exchange search: every agent but the owner is
    asked about each good, lowest first, and a good is tested for an
    absorber when it leaves the queue.  Without a path it returns the mask
    of goods it reached."""
    bundles = Allocation(owner, inst.n).masks(inst)
    oracles = [v.exchange(b).circuit for v, b in zip(inst.valuations, bundles)]
    parent = {g: None for g in goods_of(sources)}
    queue = deque(parent)
    while queue:
        g = queue.popleft()
        arcs = 0
        for j in range(inst.n):
            if j == owner[g]:
                continue
            swaps = oracles[j](g)
            if swaps is None:
                if j in absorbers:
                    path = [g]
                    while parent[path[-1]] is not None:
                        path.append(parent[path[-1]])
                    return path[::-1], j
                swaps = bundles[j]
            arcs |= swaps
        for h in goods_of(arcs):
            if h not in parent:
                parent[h] = g
                queue.append(h)
    return sum(1 << g for g in parent)


def reference_sweep(inst: Instance) -> tuple[list[int], list[int]]:
    """Textbook one-good sweep: each good, ascending, goes to the first
    agent in the list of all agents, lowest first, that is still below its
    grand value and whose bundle the good raises.  Returns the owners and
    the agents in the order they reach their grand value."""
    owner, bundles, full = [UNASSIGNED] * inst.m, [0] * inst.n, []
    for g in range(inst.m):
        for j, val in enumerate(inst.valuations):
            value = val.value(bundles[j])
            if value < val.grand_value and val.value(bundles[j] | 1 << g) > value:
                owner[g] = j
                bundles[j] |= 1 << g
                if value + 1 == val.grand_value:
                    full.append(j)
                break
    return owner, full


def test_sweep_matches_reference_sweep(monkeypatch):
    # the masked sweep offers each good to its taker bits still below their
    # grand value, lowest first: the same owners as the list sweep, on dense
    # GF(2) instances where agents reach their grand value out of order
    # (with no search left, ``max_utilitarian_clean`` returns after the sweep)
    monkeypatch.setattr(_State, "_bfs", lambda self, sources, absorbers: sources)
    rng = random.Random(0x5EE9)
    out_of_order = 0
    for _ in range(60):
        n, m = rng.randint(2, 70), rng.randint(1, 40)
        inst = random_matroid_gf2(rng, n, m, k=rng.randint(1, 4))
        owner, full = reference_sweep(inst)
        state = max_utilitarian_clean(inst)
        assert state.owner == owner
        assert state.below == {j for j, v in enumerate(inst.valuations) if v.grand_value} - set(full)
        assert state.pool == sum(1 << g for g in range(m) if owner[g] == UNASSIGNED)
        out_of_order += full != sorted(full)
    assert out_of_order >= 20, out_of_order


def test_search_matches_reference_bfs():
    # seeded clean states: a random complete allocation with its wasted goods
    # moved to the pool; every single-good source with one random absorber,
    # and the pool with every absorber still below its grand value
    rng = random.Random(0xBF5)
    lengths = Counter()
    for _ in range(1500):
        n, m = rng.randint(2, 5), rng.randint(3, 12)
        make = random_binary_additive if rng.random() < 0.3 else random_matroid_gf2
        inst = make(rng, n, m)
        owner = [rng.randrange(n) for _ in range(m)]
        for g in wasted_goods(inst, Allocation(owner, n)):
            owner[g] = UNASSIGNED
        state = _State(inst, owner)
        queries = [(1 << g, {rng.randrange(n)} & state.below) for g in range(m)]
        queries.append((state.pool, state.below))
        for sources, absorbers in queries:
            found = state._bfs(sources, absorbers)
            # with no absorber the search does not walk
            want = reference_bfs(inst, owner, sources, absorbers) if absorbers else sources
            assert found == want
            if not isinstance(found, int):
                lengths[min(len(found[0]), 3)] += 1
    assert lengths[3] >= 100, lengths


def test_search_reads_absorbers_in_any_order():
    # the unit tests pass sets, augmentation passes ``below`` and the CI
    # dual check passes ``range(n)``: in each, the walk stops at the first
    # good some absorber can add and the lowest such absorber takes it
    rng = random.Random(0xAB50)
    found = 0
    for _ in range(500):
        n, m = rng.randint(2, 6), rng.randint(3, 12)
        make = random_binary_additive if rng.random() < 0.3 else random_matroid_gf2
        inst = make(rng, n, m)
        owner = [rng.randrange(n) for _ in range(m)]
        for g in wasted_goods(inst, Allocation(owner, n)):
            owner[g] = UNASSIGNED
        state = _State(inst, owner)
        lo = rng.randrange(n)
        agents = range(lo, rng.randint(lo + 1, n))
        for sources in (state.pool, 1 << rng.randrange(m), rng.getrandbits(m)):
            want = state._bfs(sources, set(agents))
            assert state._bfs(sources, agents) == want
            assert state._bfs(sources, list(reversed(agents))) == want
            found += not isinstance(want, int)
    assert found >= 300, found


def search_only_clean(inst: Instance) -> tuple[_State, int]:
    """Augmentation by the exchange search alone: one search per path, from
    the whole pool, until none is found.  Also returns how many of the paths
    had more than one good."""
    state, longer = _State(inst, [UNASSIGNED] * inst.m), 0
    while not isinstance(found := state._bfs(state.pool, state.below), int):
        longer += len(found[0]) > 1
        state.apply_path(*found)
    return state, longer


def assert_sweep_matches_search(inst: Instance) -> int:
    """The one-good sweep plus the search for the rest ends in the very
    state the search alone reaches: same paths, same tie-breaks, same
    oracles.  Returns the number of longer paths."""
    got, (want, longer) = max_utilitarian_clean(inst), search_only_clean(inst)
    assert got.owner == want.owner
    assert got.bundles == want.bundles
    assert got.pool == want.pool
    assert got.below == want.below
    goods = range(inst.m)
    for x, y in zip(got.exchanges, want.exchanges):
        assert [x.circuit(g) for g in goods] == [y.circuit(g) for g in goods]
    return longer


SEEDED_KINDS = st.sampled_from(("additive", "additive_w", "gf2_w", "gf2_k"))


def seeded_instance(seed: int, n: int, m: int, kind: str) -> Instance:
    """A sampled instance of one of ``SEEDED_KINDS``; low GF(2) ranks make
    agents compete for goods, so some augmenting paths are longer."""
    rng = random.Random(seed)
    if kind == "additive":
        return random_binary_additive(rng, n, m)
    if kind == "additive_w":
        return random_binary_additive(rng, n, m, W=rng.randint(1, m))
    if kind == "gf2_w":
        return random_matroid_gf2(rng, n, m, W=rng.randint(1, min(m, 3)))
    return random_matroid_gf2(rng, n, m, k=rng.randint(1, 3))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 16), SEEDED_KINDS)
def test_augmentation_sweep_matches_search(seed, n, m, kind):
    assert_sweep_matches_search(seeded_instance(seed, n, m, kind))


def test_augmentation_sweep_leaves_the_longer_paths_to_the_search():
    # the submodular_lb family needs no longer path; on seeded low-rank
    # GF(2) instances about one in eight does, and those paths match too
    for k in range(2, 9):
        assert assert_sweep_matches_search(gen_submodular_lb_instance(k)) == 0
    rng = random.Random(0x5EE9)
    longer = 0
    for _ in range(200):
        n, m = rng.randint(2, 6), rng.randint(3, 16)
        longer += assert_sweep_matches_search(random_matroid_gf2(rng, n, m, k=rng.randint(1, 3)))
    assert longer >= 20, longer


def assert_union_dual(inst: Instance) -> None:
    """A* meets Edmonds' matroid-union bound: with T the goods the exchange
    search reaches from the pool of A* (no path is left), the A* total is
    |E - T| + sum of r_j(T).  By weak duality every allocation's total is at
    most that sum, so a suboptimal A* would leave a positive gap."""
    state = max_utilitarian_clean(inst)
    T = state._bfs(state.pool, range(inst.n))
    assert isinstance(T, int)  # a mask of reached goods: no path is left
    dual = (((1 << inst.m) - 1) ^ T).bit_count() + sum(v.value(T) for v in inst.valuations)
    assert sum(state.values()) == dual


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 24), SEEDED_KINDS)
def test_clean_total_meets_matroid_union_dual(seed, n, m, kind):
    assert_union_dual(seeded_instance(seed, n, m, kind))


def test_clean_total_meets_matroid_union_dual_on_families():
    for k in (2, 8, 32):
        assert_union_dual(gen_submodular_lb_instance(k))
    assert_union_dual(gen_lower_bound_instance(16, 16))
    assert_union_dual(random_matroid_gf2(random.Random(1), 128, 512, k=8))


def tie_break_corpus() -> list[Instance]:
    """60 seeded instances, in turn additive, full-rank GF(2) (a planted
    identity), rank-deficient GF(2) (few distinct columns, some with more
    rows than goods) and GF(2) with zero columns."""
    rng = random.Random(0x7B1E)
    out = []
    for case in range(60):
        kind = case % 4
        n, m = rng.randint(2, 8), rng.randint(4, 24)
        if kind == 0:
            out.append(random_binary_additive(rng, n, m, W=rng.randint(1, m) if case % 8 else None))
        elif kind == 1:
            out.append(random_matroid_gf2(rng, n, m, W=rng.randint(1, min(m, 6))))
        else:
            vals = []
            for _ in range(n):
                if kind == 2:
                    rows = rng.choice([rng.randint(1, 6), m + rng.randint(1, 3)])
                    pool = [[rng.randint(0, 1) for _ in range(rows)] for _ in range(rng.randint(1, 3))]
                    cols = [rng.choice(pool) for _ in range(m)]
                else:
                    rows = rng.randint(2, 5)
                    cols = [
                        [rng.randint(0, 1) for _ in range(rows)] if rng.random() < 0.6 else [0] * rows
                        for _ in range(m)
                    ]
                vals.append(LinearMatroidGF2(rows, cols))
            out.append(Instance(vals))
    return out


def test_tie_break_corpus_owners_pinned():
    # sha256 of the A* and B owner lists over the corpus: any change of
    # visit order or tie-break in the exchange search moves it
    owners = []
    for inst in tie_break_corpus():
        a_star = nash_optimal(inst)
        owners.append([list(a_star.owner), list(truncate(inst, a_star)[0].owner)])
    digest = hashlib.sha256(json.dumps(owners).encode()).hexdigest()
    assert digest == "6740ff834ebf910a369339320a42eb233e1ab9f25c4640469bd9e7bd9a6ce1ea"


# ---------------------------------------------------------------------------
# nash_optimal
# ---------------------------------------------------------------------------


def test_nash_family_value_multiset():
    inst = gen_lower_bound_instance(2, 2)
    alloc = nash_optimal(inst)
    assert sorted(alloc.values(inst)) == [0, 1, 1, 2]


def test_nash_identical_two_agents_balanced():
    inst = Instance([BinaryAdditive([1, 1, 1, 1])] * 2)
    alloc = nash_optimal(inst)
    assert sorted(alloc.values(inst)) == [2, 2]


def test_nash_matches_oracle_key(rng):
    for inst in small_corpus(rng, 40):
        alloc = nash_optimal(inst)
        assert alloc.is_complete
        restrict = max_positive_count(inst)
        orc = enumerate_allocations(inst, [NASH])
        assert welfare_key(alloc.values(inst), NASH, restrict) == orc.best_key[NASH]


def test_one_state_per_solve(monkeypatch):
    # augmentation hands its exchange state to balancing, so a solve builds
    # the adjacency and every bundle's exchange oracle from scratch once
    builds = []
    init = _State.__init__

    def counted_init(self, inst, owner):
        builds.append(inst)
        init(self, inst, owner)

    monkeypatch.setattr(_State, "__init__", counted_init)
    for inst in (gen_lower_bound_instance(3, 2), random_matroid_gf2(random.Random(5), 4, 10)):
        for run in (nash_optimal, lambda inst: solve(inst, GATE_P_LIST)):
            builds.clear()
            run(inst)
            assert builds == [inst]


def test_one_evaluation_per_allocation(monkeypatch):
    # truncation's coloops pass over A* gives A*'s values, and B's pass reads
    # again only the bundles truncation changed (the trimmed ones and the
    # sink's), so a GF(2) solve makes n coloops calls plus one per changed
    # bundle and builds masks twice (the state's and truncation's); on an
    # additive instance the diagnostics evaluate A* once more
    calls, builds = [], []
    masks = Allocation.masks

    def counted_masks(self, inst):
        builds.append(self)
        return masks(self, inst)

    def counting(coloops):
        def counted(self, bundle):
            calls.append(bundle)
            return coloops(self, bundle)
        return counted

    monkeypatch.setattr(Allocation, "masks", counted_masks)
    for cls in (BinaryAdditive, LinearMatroidGF2):
        monkeypatch.setattr(cls, "coloops", counting(cls.coloops))
    trimmed = 0
    for inst, passes in ((random_matroid_gf2(random.Random(5), 6, 24, k=3), 2),
                         (gen_submodular_lb_instance(4), 2),
                         (random_binary_additive(random.Random(5), 6, 24), 3),
                         (gen_lower_bound_instance(3, 3), 3)):
        calls.clear()
        builds.clear()
        res = solve(inst, GATE_P_LIST)
        got = (len(calls), len(builds))
        changed = sum(a != b for a, b in zip(masks(res.a_star, inst), masks(res.b, inst)))
        assert got == ((passes - 1) * inst.n + changed, passes)
        trimmed += changed > 0
    assert trimmed == 2


def test_exchange_oracles_updated_in_place(monkeypatch):
    # once the state is built, augmentation and balancing update the touched
    # bundles' GF(2) bases in place and never build one from scratch
    builds, applied = [], []
    init, basis, apply_path = _State.__init__, LinearMatroidGF2._basis, _State.apply_path

    def init_then_count(self, inst, owner):
        init(self, inst, owner)
        builds.clear()

    def counted_basis(self, bundle):
        builds.append(bundle)
        return basis(self, bundle)

    def counted_apply(self, path, absorber):
        applied.append(path)
        apply_path(self, path, absorber)

    monkeypatch.setattr(_State, "__init__", init_then_count)
    monkeypatch.setattr(LinearMatroidGF2, "_basis", counted_basis)
    monkeypatch.setattr(_State, "apply_path", counted_apply)
    for inst in (gen_submodular_lb_instance(6), random_matroid_gf2(random.Random(5), 6, 24, k=6)):
        applied.clear()
        state = max_utilitarian_clean(inst)
        augmented = len(applied)
        _balance(state)
        # augmentation assigns goods, most in its one-good sweep, which
        # applies no path; balancing applies paths
        assert sum(state.values()) > 0 and augmented < len(applied)
        assert builds == []


def test_balancing_walks_each_source_set_once_per_pass(monkeypatch):
    # in the last balancing pass of submodular_lb k=8 the eight value-1
    # agents share one source set, the goods of the eight value-8 agents;
    # every search there fails, and only the first of them walks
    inst = gen_submodular_lb_instance(8)
    state = max_utilitarian_clean(inst)
    searches = []
    bfs = _State._bfs

    def recorded_bfs(self, sources, absorbers):
        found = bfs(self, sources, absorbers)
        searches.append((sources, not isinstance(found, tuple)))
        return found

    monkeypatch.setattr(_State, "_bfs", recorded_bfs)
    _balance(state)
    values = state.values()
    assert sorted(values) == [1] * 8 + [8] * 8
    last_pass = searches[max(t for t, (_, failed) in enumerate(searches) if not failed) + 1:]
    targets = [i for i, v in enumerate(values) if v == 1]
    assert all(failed for _, failed in last_pass)
    assert [sources for sources, _ in last_pass] == [
        sum(b for b, v in zip(state.bundles, values) if v == 8)
    ]
    assert targets and all(i in state.below for i in targets) and len(targets) == 8


def reference_balance(state: _State) -> None:
    """Balancing that rebuilds its order every pass: the maximum value, a
    stable sort of all agents by value, and each target's sources summed
    from the bundles worth two or more above it.  The same targets, memo,
    searches and checks as ``_balance``, without value levels."""
    n, bundles = state.inst.n, state.bundles
    values = state.values()
    while True:
        top = max(values)
        applied = False
        failed: dict[int, int] = {}
        for i in sorted(range(n), key=values.__getitem__):
            if values[i] + 2 > top:
                break
            if i not in state.below:
                continue
            sources = sum(itertools.compress(bundles, map((values[i] + 2).__le__, values)))
            reached = failed.get(sources)
            if reached is not None:
                circuit = state.exchanges[i].circuit
                new = reached & state.inst.valuations[i].nonloops & ~bundles[i]
                if all(circuit(g) is not None for g in goods_of(new)):
                    continue
            found = state._bfs(sources, (i,))
            if isinstance(found, int):
                failed[sources] = found
                continue
            path, absorber = found
            donor = state.owner[path[0]]
            state.apply_path(path, absorber)
            values[donor] -= 1
            values[i] += 1
            assert bundles[donor].bit_count() == values[donor]
            assert bundles[i].bit_count() == values[i]
            applied = True
            break
        if not applied:
            return


def recorded_paths(state: _State) -> list[tuple[tuple[int, ...], int]]:
    """The (path, absorber) pairs ``state`` applies from now on, in order.
    A transfer lowers the sum of squared values by two or more, so more
    paths than half that sum fail the test instead of looping."""
    log = []
    apply_path = state.apply_path
    limit = sum(v * v for v in state.values()) // 2

    def recorded(path, absorber):
        log.append((tuple(path), absorber))
        assert len(log) <= limit, "balancing does not terminate"
        apply_path(path, absorber)

    state.apply_path = recorded
    return log


def balancing_corpus() -> list[Instance]:
    """Seeded random additive and GF(2) instances, and doubly normalised
    ones, whose balancing moves most of the paths of two or more goods."""
    rng = random.Random(0xBA1)
    out = []
    for _ in range(100):
        n, m = rng.randint(2, 12), rng.randint(4, 40)
        out.append(random_binary_additive(rng, n, m))
    for _ in range(100):
        n, m = rng.randint(2, 12), rng.randint(4, 40)
        out.append(random_matroid_gf2(rng, n, m, k=rng.randint(1, 4)))
    for _ in range(40):
        W_c = rng.randint(2, 3)
        W = rng.randint(W_c + 1, 2 * W_c + 1)
        n = W_c * rng.randint(4, 16)
        out.append(gen_doubly_normalised(n, n * W // W_c, W, W_c, rng.randrange(1 << 30)))
    return out


def test_balancing_levels_match_the_reference():
    # the value levels give the passes the reference's targets in its order
    # and with its sources, so the same paths are applied to the same end;
    # the paths of two or more goods move intermediate holders' bundles
    # between level unions
    longer = 0
    for inst in balancing_corpus():
        got, want = max_utilitarian_clean(inst), max_utilitarian_clean(inst)
        got_paths, want_paths = recorded_paths(got), recorded_paths(want)
        _balance(got)
        reference_balance(want)
        assert got_paths == want_paths
        assert (got.owner, got.pool, got.values()) == (want.owner, want.pool, want.values())
        longer += sum(len(path) > 1 for path, _ in got_paths)
    assert longer >= 50, longer


# ---------------------------------------------------------------------------
# truncate
# ---------------------------------------------------------------------------


def test_truncate_family_all_positive_at_one():
    for r, W in ((2, 2), (3, 2), (4, 3)):
        inst = gen_lower_bound_instance(r, W)
        _, _, values = truncate(inst, nash_optimal(inst))
        assert all(v == 1 for v in values if v > 0)
        assert sum(1 for v in values if v > 0) == W + r - 1


def test_truncate_noop_when_already_eq1(rng):
    inst = Instance([BinaryAdditive([1, 1, 1, 1])] * 2)
    a_star = nash_optimal(inst)
    b, values_a, values_b = truncate(inst, a_star)
    assert b == a_star and values_b == values_a == a_star.values(inst)


def test_truncate_matroid_family():
    for k in (2, 3, 4):
        inst = gen_submodular_lb_instance(k)
        _, _, values_b = truncate(inst, nash_optimal(inst))
        values = sorted(values_b)
        assert values == [1] * k + [min(2, k)] * k
        assert sum(values) <= 3 * k


def test_truncate_band_structure(rng):
    for inst in small_corpus(rng, 60):
        a_star = nash_optimal(inst)
        b, _, _ = truncate(inst, a_star)
        l = min(a_star.values(inst))
        assert set(b.values(inst)) <= {l, l + 1}
        assert is_eq1(inst, b)


def test_truncate_rejects_partial():
    inst = gen_lower_bound_instance(2, 2)
    with pytest.raises(ValueError):
        truncate(inst, Allocation([-1] * inst.m, inst.n))


def test_truncate_flags_non_optimal_input():
    # an allocation that is utilitarian optimal but wildly unbalanced:
    # one agent hoards goods another type-1 agent values
    inst = gen_lower_bound_instance(2, 4)  # 5 type-1 agents, 1 type-2
    owner = [0, 0, 0, 0, 5, 5, 5, 5]
    bad = Allocation(owner, inst.n)
    with pytest.raises(SolverInternalError):
        truncate(inst, bad)


def test_truncate_flags_good_the_sink_values():
    # the sink (agent 1) takes goods 0 and 1 and values good 0: B's values
    # (1, 1, 1) are EQ1, but the sink's is not min(l + 1, 0) = 0
    inst = Instance([BinaryAdditive([1, 1, 1, 0]), BinaryAdditive([1, 0, 0, 0]),
                     BinaryAdditive([0, 0, 0, 1])])
    with pytest.raises(SolverInternalError, match=r"min\(l \+ 1, A\* value\) with l = 0"):
        truncate(inst, Allocation([0, 0, 0, 2], inst.n))


def test_truncate_flags_bundle_without_coloops():
    # agent 0's bundle is one circuit: worth 2, no coloop to remove, so it
    # cannot be cut down to l + 1 = 1
    inst = Instance([LinearMatroidGF2(2, [[1, 0], [0, 1], [1, 1]]), BinaryAdditive([0, 0, 0])])
    with pytest.raises(SolverInternalError, match="too few coloops"):
        truncate(inst, Allocation([0, 0, 0], inst.n))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 16), SEEDED_KINDS,
       st.integers(0, 2))
def test_solve_values_match_an_independent_evaluation(seed, n, m, kind, zero_goods):
    # goods nobody values go to the sink with the pool, so with zero_goods
    # A* is not clean; the values truncation returns and both reports read
    # must still be the allocations' own
    inst = relabel(seeded_instance(seed, n, m, kind), range(n), range(m), zero_goods)
    res = solve(inst, GATE_P_LIST)
    assert res.report_a_star.values == res.a_star.values(inst)
    assert res.report_b.values == res.b.values(inst)
    assert is_eq1(inst, res.b)
    # B is A* cut at one unit above its minimum, entry by entry
    l = min(res.report_a_star.values)
    assert res.report_b.values == tuple(min(l + 1, a) for a in res.report_a_star.values)
    b, values_a, values_b = truncate(inst, res.a_star)
    assert b == res.b
    assert (values_a, values_b) == (res.a_star.values(inst), res.b.values(inst))
    if zero_goods:
        assert wasted_goods(inst, res.a_star)


# ---------------------------------------------------------------------------
# solve and the oracle gates
# ---------------------------------------------------------------------------


def test_solve_family_poe_exact():
    res = solve(gen_lower_bound_instance(2, 2), [UTILITARIAN])
    assert res.poe[UTILITARIAN] == Fraction(4, 3)


def test_solve_r1_value_vectors_match(rng):
    for _ in range(30):
        n, m = rng.randint(2, 4), rng.randint(1, 6)
        inst = Instance(random_matroid_gf2(rng, 1, m).valuations * n)
        res = solve(inst, GATE_P_LIST)
        assert sorted(res.b.values(inst)) == sorted(res.a_star.values(inst))
        for p in GATE_P_LIST:
            assert res.poe[p] == 1


def test_zero_capacity_poe_is_one():
    # no agent can get positive value: every value is 0, so A* and B share
    # one key and poe_ratio returns exactly 1 for every p
    zero_capacity = [
        Instance([BinaryAdditive([0, 0, 0])] * 3),
        Instance([LinearMatroidGF2(2, [[0, 0]] * 3), LinearMatroidGF2(1, [[0]] * 3)]),
        Instance([BinaryAdditive([])] * 2),
    ]
    for inst in zero_capacity:
        assert max_positive_count(inst) == 0
        res = solve(inst, GATE_P_LIST)
        orc = enumerate_allocations(inst, GATE_P_LIST)
        for p in GATE_P_LIST:
            for poe in (res.poe[p], orc.poe[p]):
                assert type(poe) is Fraction and poe == 1, (inst, p, poe)


def test_oracle_gates_on_random_corpus(rng):
    # A* and B attain the oracle keys at every GATE_P_LIST p, sorted A* is
    # the leximin vector and B is EQ1; A* is complete
    corpus = small_corpus(rng, 60)
    gate = gate_optimal_allocations(corpus)
    assert gate.passed and gate.cases == 60, gate.detail
    assert all(nash_optimal(inst).is_complete for inst in corpus)


def test_leximin_when_near_equal(rng):
    # A* is leximin-optimal on every instance, near-equal values or not
    for inst in small_corpus(rng, 40):
        values = nash_optimal(inst).values(inst)
        orc = enumerate_allocations(inst, [NEG_INF])
        assert tuple(sorted(values)) == orc.leximin


def test_a_star_clean_completable(rng):
    # moving A*'s wasted goods to the pool keeps every value
    for inst in small_corpus(rng, 30):
        a_star = nash_optimal(inst)
        wasted = wasted_goods(inst, a_star)
        owner = [UNASSIGNED if g in wasted else a for g, a in enumerate(a_star.owner)]
        cleaned = Allocation(owner, a_star.n)
        assert cleaned.values(inst) == a_star.values(inst)


def test_solver_outputs_pinned():
    # exact owners: a change of arc order or tie-break in the exchange
    # search shows here even when every welfare key stays optimal
    rng = random.Random(0x5017)
    lb = gen_lower_bound_instance(4, 3)
    cases = [
        (
            relabel(lb, rng.sample(range(lb.n), lb.n), rng.sample(range(lb.m), lb.m)),
            [4, 1, 4, 2, 0, 5, 6, 6, 5, 4, 5, 6],
            [3, 1, 3, 2, 0, 3, 3, 3, 3, 4, 5, 6],
        ),
        (
            random_binary_additive(random.Random(55), 7, 16, W=3),
            [6, 1, 0, 0, 2, 2, 5, 6, 4, 1, 6, 3, 5, 1, 3, 4],
            [6, 6, 0, 0, 2, 2, 5, 6, 4, 1, 6, 3, 5, 1, 3, 4],
        ),
        (
            random_matroid_gf2(random.Random(7), 8, 20, W=4),
            [5, 6, 7, 0, 5, 0, 6, 1, 1, 7, 0, 2, 3, 3, 2, 4, 4, 3, 4, 1],
            [5, 6, 7, 0, 5, 0, 6, 1, 1, 7, 0, 2, 3, 3, 2, 4, 4, 3, 4, 1],
        ),
        (
            gen_submodular_lb_instance(3),
            [1, 2, 0, 3, 3, 3, 4, 4, 4, 5, 5, 5],
            [1, 2, 0, 0, 3, 3, 0, 4, 4, 0, 5, 5],
        ),
        (
            # zero columns make 11 of the 14 goods loops for some agents only,
            # so the exchange search skips part of each good's agents
            random_matroid_gf2(random.Random(5), 6, 14),
            [0, 1, 5, 0, 1, 2, 4, 3, 4, 4, 4, 5, 0, 5],
            [2, 1, 2, 0, 1, 2, 2, 3, 2, 4, 4, 5, 0, 5],
        ),
    ]
    for inst, a_star, b in cases:
        res = solve(inst, [UTILITARIAN])
        assert list(res.a_star.owner) == a_star
        assert list(res.b.owner) == b
    takers = cases[-1][0].takers()
    assert any(0 < agents.bit_count() < 6 for agents in takers)


def test_family_at_scale():
    # n = 96, m = 2048: exchange search, truncation and EQ1 check at paper scale
    rng = random.Random(0x5CA1E)
    lb = gen_lower_bound_instance(32, 64)
    inst = relabel(lb, rng.sample(range(lb.n), lb.n), rng.sample(range(lb.m), lb.m))
    gate = gate_closed_forms([(inst, lambda p: lambda_family_poe(p, 64, 32))])
    assert gate.passed, gate.detail
    assert is_eq1(inst, solve(inst, [UTILITARIAN]).b)


@settings(max_examples=250, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_poe_invariant_under_relabelling(seed, data):
    # n <= 4, m <= 8, additive and GF(2), normalised or not
    inst = oracle_corpus(seed, 1)[0]
    n, m = inst.n, inst.m
    base = solve(inst, GATE_P_LIST).poe
    variants = (
        relabel(inst, range(n), data.draw(st.permutations(range(m)))),
        relabel(inst, data.draw(st.permutations(range(n))), range(m)),
        relabel(inst, range(n), range(m), zero_goods=1),
    )
    for variant in variants:
        poe = solve(variant, GATE_P_LIST).poe
        for p in GATE_P_LIST:
            if p in EXACT_P:
                assert poe[p] == base[p]
            else:
                assert math.isclose(
                    float(poe[p]), float(base[p]), rel_tol=FLOAT_TOL, abs_tol=FLOAT_TOL
                )


# ---------------------------------------------------------------------------
# the rank and floor bounds on solver output
# ---------------------------------------------------------------------------


def test_waste_bound_on_truncated_allocation(rng):
    instances = []
    for _ in range(60):
        n, m = rng.randint(2, 5), rng.randint(2, 10)
        W = rng.randint(max(1, -(-m // n)), m)
        instances.append(random_binary_additive(rng, n, m, W=W, every_good_valued=True))
    gate = gate_rank_bound(instances)
    assert gate.passed and gate.cases == 60, gate.detail


def test_matroid_floor(rng):
    instances = []
    for _ in range(40):
        n, m = rng.randint(2, 5), rng.randint(2, 8)
        instances.append(random_matroid_gf2(rng, n, m, W=rng.randint(1, min(4, m))))
    gate = gate_matroid_floor(instances)
    assert gate.passed and gate.cases == 40, gate.detail


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def test_diagnostics_family_r3_W4():
    inst = gen_lower_bound_instance(3, 4)
    d = diagnostics(inst, nash_optimal(inst))
    assert d["agents_per_type"][0] == 5 and d["goods_per_type"][0] == 4
    assert d["truncation_level"] == 1  # ceil(4/5); flagged, not fatal
    assert d["warnings"]
    assert d["retained_fraction"] == "5/7"
    # the object solve prints, keys in its order
    assert list(d) == ["type_order", "goods_per_type", "agents_per_type", "truncation_level",
                       "retained_types", "retained_fraction", "warnings"]
    assert solve(inst, [UTILITARIAN]).to_json()["diagnostics"] == d


def test_diagnostics_integral_ratio_bumps_level():
    # two types, each agent of type 1 gets exactly 3 goods
    inst = Instance(
        [BinaryAdditive([1, 1, 1, 0, 0, 0]), BinaryAdditive([0, 0, 0, 1, 1, 1])]
    )
    d = diagnostics(inst, nash_optimal(inst))
    assert d["truncation_level"] == 4  # 1 + 3


def test_diagnostics_retained_types_cover_normalisation(rng):
    # goods assigned to retained types total at least W
    for _ in range(60):
        n, m = rng.randint(2, 5), rng.randint(2, 10)
        W = rng.randint(max(1, -(-m // n)), m)
        inst = random_binary_additive(rng, n, m, W=W, every_good_valued=True)
        d = diagnostics(inst, nash_optimal(inst))
        assert sum(d["goods_per_type"][: d["retained_types"]]) >= W


def test_diagnostics_goods_per_type_match_clean_goods(rng):
    # reference: count the assigned goods that are not wasted, owner by owner
    for _ in range(60):
        n, m = rng.randint(1, 6), rng.randint(0, 10)
        inst = random_binary_additive(rng, n, m, W=rng.randint(0, m))
        for alloc in (nash_optimal(inst), Allocation([rng.randrange(n) for _ in range(m)], n)):
            d = diagnostics(inst, alloc)
            goods = [0] * inst.r
            wasted = wasted_goods(inst, alloc)
            for g, a in enumerate(alloc.owner):
                if a >= 0 and g not in wasted:
                    goods[inst.type_index[a]] += 1
            assert d["goods_per_type"] == [goods[t] for t in d["type_order"]]


def fraction_diagnostics(inst: Instance, alloc: Allocation):
    """Reference: the type ordering and truncation quantities in Fractions."""
    type_of = inst.type_index
    r = max(type_of) + 1
    goods, agents = [0] * r, [0] * r
    for t, value in zip(type_of, alloc.values(inst)):
        goods[t] += value
        agents[t] += 1
    order = sorted(range(r), key=lambda t: (Fraction(goods[t], agents[t]), t))
    m_k = [goods[t] for t in order]
    n_k = [agents[t] for t in order]
    ratio1 = Fraction(m_k[0], n_k[0])
    level = int(ratio1) + 1 if ratio1.denominator == 1 else -(-m_k[0] // n_k[0])
    rho = max(k + 1 for k in range(r) if level >= Fraction(m_k[k], n_k[k]))
    return order, m_k, n_k, level, rho, Fraction(sum(n_k[:rho]), inst.n)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 4), st.integers(0, 3), st.integers(0, 2)),
                min_size=1, max_size=6), st.randoms(use_true_random=False))
def test_diagnostics_match_fraction_reference(types, rnd):
    # type t: k agents valuing a block of k*c + extra + 1 goods, each agent
    # given c of them, so types with equal c tie in goods per agent
    blocks, m = [], 0
    for k, c, extra in types:
        size = k * c + extra + 1
        blocks.append((m, size, k, c))
        m += size
    agents = [t for t, (_, _, k, _) in enumerate(blocks) for _ in range(k)]
    rnd.shuffle(agents)  # first appearance fixes the type ids
    rows = [[1 if blocks[t][0] <= g < blocks[t][0] + blocks[t][1] else 0 for g in range(m)]
            for t in agents]
    owner = [-1] * m
    for i, t in enumerate(agents):
        start, _, k, c = blocks[t]
        j = agents[:i].count(t)
        for g in range(start + j * c, start + (j + 1) * c):
            owner[g] = i
    for g in range(m):
        if owner[g] < 0:
            owner[g] = rnd.randrange(len(agents))
    inst, alloc = Instance([BinaryAdditive(row) for row in rows]), Allocation(owner, len(agents))
    d = diagnostics(inst, alloc)
    got = (d["type_order"], d["goods_per_type"], d["agents_per_type"], d["truncation_level"],
           d["retained_types"], Fraction(d["retained_fraction"]))
    assert got == fraction_diagnostics(inst, alloc)


def test_diagnostics_rejects_matroids(rng):
    inst = random_matroid_gf2(rng, 2, 3)
    assert diagnostics(inst, nash_optimal(inst)) is None
    assert solve(inst, [UTILITARIAN]).to_json()["diagnostics"] is None


def test_solve_serialization_round_trip():
    import json

    res = solve(gen_lower_bound_instance(2, 2), [UTILITARIAN, NASH])
    doc = json.loads(json.dumps(res.to_json()))
    assert doc["poe"]["1"] == "4/3"
    assert doc["a_star"]["owner"] == list(res.a_star.owner)
    assert doc["min_value"] == min(res.report_a_star.values)
