"""Optimal and optimal-EQ1 allocations for binary submodular valuations.

The pipeline is:

1. ``max_utilitarian_clean`` — matroid-partition style augmentation on the
   good-exchange digraph, returning the exchange state of a clean partial
   allocation of maximum total value.
2. ``nash_optimal`` — on that same state, value-balancing transfer paths
   (move one unit of value from an agent ahead by two or more to one
   behind) until no transfer applies, then complete the allocation by
   handing the leftover pool (zero marginal value for everyone) to a
   minimum-value agent.  The result simultaneously maximizes the p-mean
   welfare for every p <= 1 under the positive-subset convention.
3. ``truncate`` — cut each bundle to one unit above the minimum ``l``,
   handing the removed goods to a minimum-value agent who finds them
   worthless.  B's values are ``min(l + 1, a_j)`` for A*'s ``a_j``, as
   ``truncate`` checks; B is EQ1 and optimal among EQ1 allocations for all p.

``solve`` adds both welfare reports, the per-p price of equity and
``diagnostics``: the type-level truncation quantities as the JSON object it
prints, or None unless every valuation is binary additive.

Bundles, the pool and the search's sources are bitmasks of goods, and
the sets of agents a good is offered to are bitmasks of agents: each
good's taker mask (``Instance.takers``, built once per solve: the agents
for whom it is not a loop), cut by the mask of the agents asked.
Augmentation makes every one-good path in one ascending sweep over the
pool, offering each good to its takers in the sweep's ``below`` mask,
lowest bit first: the same paths in the same order as the searches would
(no span shrinks while augmenting; see ``max_utilitarian_clean``), and
the exchange search runs only for the longer paths left.  No good is
offered to an agent whose bundle has reached its ``grand_value``: such a
bundle spans every good, so it adds none.  The breadth-first walk tests
each good for an absorber when it first reaches it, the sources first,
asking its taker bits among the absorbers lowest first, so a search with
a one-good path ends before any arc is built, and balancing's single
target costs one mask test per good reached.  A good's arcs are asked of
its takers but its holder, less the agents whose whole bundle the walk
has already reached, since their circuits lie in it.  Each bundle's
exchange oracle is built once per solve and updated in place along every
applied path.  Balancing keeps the agents in value levels across passes,
each with the union of its agents' bundles: a target's sources are the
union of the levels two or more above it, and an applied path moves only
the bundles it touches between levels.  It walks each failed source set
at most once per pass, and a pass ends before the targets no agent is
two ahead of.  Each allocation is
evaluated once per solve: truncation reads each A* bundle's value and the
goods to remove from one ``Valuation.coloops`` call, and B's values and
EQ1 floors are those pairs, read again only for the bundles truncation
changed (the trimmed ones and the sink's), on masks updated as the goods
move.
Correctness of the search steps is gated end-to-end against the
exhaustive oracle in the test suite.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .model import (
    UNASSIGNED,
    Allocation,
    BinaryAdditive,
    Instance,
    eq1_holds,
    goods_of,
)
from .welfare import (
    PParam, WelfareReport, max_positive_count, num_to_json, poe_ratio,
)


class SolverInternalError(RuntimeError):
    """An internal invariant failed; indicates a bug, not bad input."""


# ---------------------------------------------------------------------------
# Exchange-graph machinery
# ---------------------------------------------------------------------------


class _State:
    """Mutable clean partial allocation: per-agent independent bundles as
    bitmasks of goods, each with its exchange oracle (built here, then
    updated in place by ``apply_path``), the pool of unassigned goods as a
    bitmask, the agent–good adjacency ``takers`` (``Instance.takers``: per
    good, the mask of the agents for whom it is not a loop) that the search
    walks, and the set ``below`` of agents whose bundle is still worth less
    than their ``grand_value``."""

    def __init__(self, inst: Instance, owner: Sequence[int]):
        self.inst = inst
        self.owner = list(owner)
        self.takers = takers = inst.takers()
        # goods with two or more takers: an owned good outside this mask has
        # its owner as its only taker, so no arcs leave it
        self.shared = sum(1 << g for g, agents in enumerate(takers) if agents & (agents - 1))
        self.bundles = Allocation(owner, inst.n).masks(inst)
        self.pool = ((1 << inst.m) - 1) ^ sum(self.bundles)
        self.exchanges = [v.exchange(b) for v, b in zip(inst.valuations, self.bundles)]
        self.below = {
            j for j, (v, b) in enumerate(zip(inst.valuations, self.bundles))
            if b.bit_count() < v.grand_value
        }

    def values(self) -> list[int]:
        # bundles are kept independent, so value == size
        return [b.bit_count() for b in self.bundles]

    def _bfs(self, sources: int, absorbers: Iterable[int]) -> tuple[list[int], int] | int:
        """Shortest path from any source good (a bitmask) to a good some
        absorber can add.

        Returns (path of goods, absorbing agent), or the mask of goods the
        walk reached when no absorber can add any of them.  Along the path,
        each good's owner releases it and takes the preceding good; the
        final good is added to the absorber's bundle, for a net gain of one
        unit of value.  Shortest paths keep the simultaneous swaps valid.
        Arcs run from g to g's fundamental circuit in each other bundle (all
        of it if g adds value).  Only the agents in the mask ``takers[g]``
        are asked about g: for the others g is a loop, which adds no value
        and lies on no circuit.  Nor are the agents whose whole bundle the
        walk has already reached: whatever they answer lies in their bundle,
        so it reaches nothing new.  Goods are reached sources first,
        ascending, then in the order arcs find them.  Each good is tested
        when it is first reached and its arcs are built when it leaves the
        queue, so the path ends at the first good reached that an absorber
        can add.  The test asks the good's taker bits among the absorbers
        (taken as a mask once per call), lowest first, so the lowest
        absorber that can add the good takes it in whatever order the
        caller lists them.

        The walk does not depend on the absorbers, which only decide where
        it stops.  Callers pass only agents in ``below``: a bundle that has
        reached its ``grand_value`` spans every good, so it adds none, and
        with no absorber the search does not walk and returns the sources.
        """
        wanted = 0
        for j in absorbers:
            wanted |= 1 << j
        if not wanted:
            return sources
        owner, takers, exchanges, bundles = self.owner, self.takers, self.exchanges, self.bundles
        seen = sources
        spent = 0  # the agents whose whole bundle the walk has reached
        reached = sources & (self.shared | self.pool)  # skip sources no arc leaves
        parent: dict[int, int | None] = {}
        queue: deque[int] = deque()
        g = None  # the sources have no parent
        while True:
            unseen = ~seen
            while reached:  # lowest bit first, without listing every source
                low = reached & -reached
                reached ^= low
                h = low.bit_length() - 1
                parent[h] = g
                holder = owner[h]
                offered = takers[h] & wanted
                while offered:  # lowest taker bit first
                    bit = offered & -offered
                    offered ^= bit
                    j = bit.bit_length() - 1
                    if j != holder and exchanges[j].circuit(h) is None:
                        path = [h]
                        while (h := parent[h]) is not None:
                            path.append(h)
                        path.reverse()
                        return path, j
                if holder != UNASSIGNED and not bundles[holder] & unseen:
                    spent |= 1 << holder
                queue.append(h)
            if not queue:
                return seen
            g = queue.popleft()
            holder = owner[g]
            offered = takers[g] & ~spent
            if holder != UNASSIGNED:
                offered &= ~(1 << holder)
            arcs = 0
            while offered:
                bit = offered & -offered
                offered ^= bit
                j = bit.bit_length() - 1
                swaps = exchanges[j].circuit(g)
                arcs |= bundles[j] if swaps is None else swaps
            reached = arcs & ~seen
            seen |= reached

    def apply_path(self, path: list[int], absorber: int) -> None:
        """Shift ownership along a path and absorb its last good.

        Every good on the path leaves its original holder; the holder of
        ``path[t]`` (t >= 1) takes ``path[t-1]`` in exchange, and the
        absorber adds ``path[-1]``.  The holder of ``path[0]`` (the pool,
        or the donating agent in a transfer) receives nothing.

        The touched exchange oracles are updated in place, every removal
        before any addition: each bundle then passes through subsets of its
        old and its new self only, so it stays independent unless the new
        bundle is dependent, and then one of its additions is refused.
        """
        owner, bundles, exchanges = self.owner, self.bundles, self.exchanges
        orig_owner = [owner[g] for g in path]
        for g, j in zip(path, orig_owner):
            if j == UNASSIGNED:
                self.pool ^= 1 << g
            else:
                bundles[j] ^= 1 << g
                exchanges[j].remove(g)
        for g, j in zip(path, orig_owner[1:] + [absorber]):
            if not exchanges[j].add(g):
                raise SolverInternalError("exchange path broke bundle independence")
            bundles[j] |= 1 << g
            owner[g] = j
        # the other holders swap one good for one: only the holder of
        # path[0] loses value, and only the absorber gains it
        if orig_owner[0] != UNASSIGNED:
            self.below.add(orig_owner[0])
        if bundles[absorber].bit_count() == self.inst.valuations[absorber].grand_value:
            self.below.discard(absorber)


def max_utilitarian_clean(inst: Instance) -> _State:
    """Exchange state of a clean partial allocation maximizing total value.

    Repeatedly augments from the unassigned pool: a shortest exchange path
    moves one pool good into the allocation (possibly cascading swaps) and
    raises the total value by exactly one.  Stops when no pool good can be
    brought in, which is the matroid-partition optimality condition.

    One ascending sweep over the pool first makes every one-good path: each
    good is offered to ``takers[g] & below``, the mask of its takers still
    below their grand value, lowest bit first, and goes to the first it
    adds to; each bundle's room to its grand value is counted down, not
    recounted from the bundle.  Augmenting never shrinks a span (the
    absorber's grows, the others swap within a circuit) and ``below`` only
    loses agents, so a good passed without a taker never gains one.  Each
    search would return the lowest pool good with an absorber and that
    absorber, so the sweep makes the searches' one-good paths in their
    order, and the search runs only for the longer paths left.
    """
    state = _State(inst, [UNASSIGNED] * inst.m)
    owner, bundles, exchanges, takers = state.owner, state.bundles, state.exchanges, state.takers
    room = [v.grand_value for v in inst.valuations]  # the bundles start empty
    below = sum(1 << j for j in state.below)
    for g in range(inst.m):  # every good starts in the pool
        offered = takers[g] & below
        while offered:  # lowest taker bit first
            bit = offered & -offered
            j = bit.bit_length() - 1
            if exchanges[j].add(g):
                bundles[j] |= 1 << g
                owner[g] = j
                room[j] -= 1
                if not room[j]:
                    below ^= bit
                    state.below.discard(j)
                break
            offered ^= bit
    state.pool = ((1 << inst.m) - 1) ^ sum(bundles)
    while True:
        found = state._bfs(state.pool, state.below)
        if isinstance(found, int):
            return state
        state.apply_path(*found)


def _balance(state: _State) -> None:
    """Apply value-balancing transfer paths until none exists.

    A transfer path starts at a good owned by an agent whose value exceeds
    the target's by at least two, cascades swaps, and ends with the target
    absorbing one good: the source agent's value drops by one, the target's
    rises by one, everyone else is unchanged.

    The agents are kept in value levels across passes: per value, the mask
    of agents worth it and the union of their bundles.  A pass takes the
    targets in (value, agent) order, lowest level first, and a target worth
    v searches from the union of the levels at v + 2 and above.  A path
    changes only the bundles it touches (its goods' holders and the
    absorber) and moves the donor one level down and the target one up, so
    only those bundles move between level unions; the top level never rises.

    Within a pass nothing changes until a path is applied, and the walk from
    a source set does not depend on the target.  So a failed walk is kept
    for the pass, and a later target with the same sources fails too unless
    it can add a good that walk reached; only then is the search run again,
    and it finds the path the walk would.
    """
    inst, owner, bundles, below = state.inst, state.owner, state.bundles, state.below
    values = state.values()
    low, top = min(values), max(values)
    agents_at = [0] * (top + 1)  # value -> mask of the agents worth it
    union_at = [0] * (top + 1)  # value -> union of their bundles
    for j, (value, b) in enumerate(zip(values, bundles)):
        agents_at[value] |= 1 << j
        union_at[value] |= b
    # a transfer path starts at an owned good, so the pool never changes
    assigned = ((1 << inst.m) - 1) ^ state.pool
    while True:
        failed: dict[int, int] = {}  # sources -> goods their failed walk reached
        sources = assigned ^ union_at[low]
        # targets in (value, agent) order, each worth at most top - 2
        for v in range(low, top - 1):
            sources ^= union_at[v + 1]  # the bundles worth v + 2 or more
            targets = agents_at[v]
            while targets:
                i = (targets & -targets).bit_length() - 1
                targets ^= 1 << i
                if i not in below:  # at its grand value: i adds no good
                    continue
                reached = failed.get(sources)
                if reached is not None:
                    circuit = state.exchanges[i].circuit
                    new = reached & inst.valuations[i].nonloops & ~bundles[i]
                    if all(circuit(g) is not None for g in goods_of(new)):
                        continue
                found = state._bfs(sources, (i,))
                if not isinstance(found, int):
                    break
                failed[sources] = found
            else:
                continue
            break  # a path for target i ends the pass
        else:
            return
        path = found[0]
        donor = owner[path[0]]
        # the bundles that change: the holders of the path's goods, and i
        touched = {owner[g] for g in path}
        touched.add(i)
        for j in touched:
            union_at[values[j]] ^= bundles[j]
        state.apply_path(path, i)
        for j, step in ((donor, -1), (i, 1)):
            agents_at[values[j]] ^= 1 << j
            values[j] += step
            agents_at[values[j]] |= 1 << j
        for j in touched:
            union_at[values[j]] ^= bundles[j]
        if bundles[donor].bit_count() != values[donor] or bundles[i].bit_count() != values[i]:
            raise SolverInternalError("transfer path did not move one unit of value")
        while not agents_at[low]:
            low += 1
        while not agents_at[top]:
            top -= 1


def nash_optimal(inst: Instance) -> Allocation:
    """Complete allocation maximizing Nash welfare under the positive-subset
    convention, hence the p-mean welfare for every p <= 1.

    Built as a clean utilitarian-optimal allocation, balanced by transfer
    paths on the same exchange state, with the leftover pool (zero marginal
    value for every agent once no augmenting path remains) handed to the
    lowest-index minimum-value agent."""
    state = max_utilitarian_clean(inst)
    _balance(state)

    values = state.values()
    sink = values.index(min(values))
    pool = goods_of(state.pool)
    # one oracle serves the whole pool: a good in the sink's span leaves it unchanged
    circuit = state.exchanges[sink].circuit
    if any(circuit(g) is None for g in pool):
        raise SolverInternalError(
            "pool good with positive marginal value: augmentation incomplete"
        )
    for g in pool:
        state.owner[g] = sink
    return Allocation(state.owner, inst.n)


# ---------------------------------------------------------------------------
# Truncation
# ---------------------------------------------------------------------------


def truncate(
    inst: Instance, a_star: Allocation,
) -> tuple[Allocation, tuple[int, ...], tuple[int, ...]]:
    """EQ1 allocation B obtained by trimming a Nash-optimal allocation A*,
    with A*'s and B's per-agent values.

    With ``l`` the minimum agent value, each bundle worth ``v >= l + 2``
    hands its first ``v - l - 1`` coloops (each removal lowers its value by
    one) to the lowest-index minimum-value agent, to whom Nash optimality
    makes them worthless.  So B's values are ``min(l + 1, a_j)`` for A*'s
    ``a_j``, and that result is checked, not the steps: a sink that values
    a good it takes, or a bundle short of coloops, breaks it.  EQ1 is
    checked on its own.  One ``coloops`` pass over A* gives its values and
    the goods to remove.  B's pairs, its values and EQ1 floors, are A*'s,
    read again only for the bundles truncation changed: the trimmed ones
    and the sink's."""
    if not a_star.is_complete:
        raise ValueError("truncation requires a complete allocation")
    valuations, masks = inst.valuations, a_star.masks(inst)
    pairs = [v.coloops(b) for v, b in zip(valuations, masks)]
    values = tuple(value for value, _ in pairs)
    l = min(values)
    i_l = values.index(l)
    owner = list(a_star.owner)
    trimmed = [i for i, value in enumerate(values) if value > l + 1]
    for i in trimmed:
        for g in goods_of(pairs[i][1])[:values[i] - l - 1]:
            owner[g] = i_l
            masks[i] ^= 1 << g
            masks[i_l] |= 1 << g
    if trimmed:  # B's pairs: A*'s, but for the bundles trimmed and the sink's
        for i in trimmed + [i_l]:
            pairs[i] = valuations[i].coloops(masks[i])
    values_b = tuple(value for value, _ in pairs)
    if values_b != tuple(min(l + 1, a) for a in values):
        raise SolverInternalError(f"truncated values are not min(l + 1, A* value) with l = {l}: "
                                  "A* was not Nash-optimal, or a bundle had too few coloops")
    if not eq1_holds(pairs):
        raise SolverInternalError("truncated allocation is not EQ1")
    return Allocation(owner, inst.n), values, values_b


# ---------------------------------------------------------------------------
# Type-level truncation diagnostics (binary additive only)
# ---------------------------------------------------------------------------


def diagnostics(inst: Instance, a_star: Allocation) -> dict | None:
    """The ``diagnostics`` object ``solve`` prints: the type-level
    truncation quantities, evaluated on a clean view of the optimal
    allocation, or None unless every valuation is binary additive.  A clean
    bundle keeps one good per unit of value, so a type's goods are the sum
    of its agents' values.

    Types are reindexed so goods-per-agent ratios are nondecreasing (ties by
    original type id): ``type_order`` lists the original type ids in that
    order, and ``goods_per_type`` (m_k) and ``agents_per_type`` (n_k) follow
    it.  ``truncation_level`` is the ceiling of the smallest ratio, bumped
    by one when the ratio is integral; ``retained_types`` is the number of
    leading types whose ratio it still covers, and ``retained_fraction``
    the fraction of agents in those types, as "a/b"."""
    if not all(isinstance(v, BinaryAdditive) for v in inst.valuations):
        return None
    type_of = inst.type_index
    r = max(type_of) + 1
    goods = [0] * r
    agents = [0] * r
    for t, value in zip(type_of, a_star.values(inst)):
        goods[t] += value
        agents[t] += 1

    # goods/agents over the common denominator L; the sort is stable, so
    # equal ratios stay in type order
    L = math.lcm(*agents)
    order = sorted(range(r), key=lambda t: goods[t] * (L // agents[t]))
    m_k = [goods[t] for t in order]
    n_k = [agents[t] for t in order]

    level = m_k[0] // n_k[0] + 1  # the ceiling, plus one when the ratio is integral
    warnings = []
    if level < 2:
        warnings.append(
            f"truncation level {level} < 2: the leading type holds fewer goods than agents"
        )

    rho = max(k + 1 for k in range(r) if level * n_k[k] >= m_k[k])
    return {
        "type_order": order,
        "goods_per_type": m_k,
        "agents_per_type": n_k,
        "truncation_level": level,
        "retained_types": rho,
        "retained_fraction": str(Fraction(sum(n_k[:rho]), inst.n)),
        "warnings": warnings,
    }


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------


@dataclass
class SolveResult:
    a_star: Allocation
    b: Allocation
    report_a_star: WelfareReport
    report_b: WelfareReport
    poe: dict[PParam, object]
    diagnostics: dict | None

    def to_json(self) -> dict:
        return {
            "a_star": self.a_star.to_json(),
            "b": self.b.to_json(),
            "min_value": min(self.report_a_star.values),
            "welfare_optimal": self.report_a_star.to_json(),
            "welfare_eq1": self.report_b.to_json(),
            "poe": {str(p): num_to_json(v) for p, v in self.poe.items()},
            "diagnostics": self.diagnostics,
        }


def solve(inst: Instance, p_list: Iterable[PParam]) -> SolveResult:
    """Compute the optimal allocation, the optimal EQ1 allocation, welfare
    reports for both, and the per-p price of equity.  Each allocation is
    evaluated once, in ``truncate``, and both reports read those values."""
    p_list = list(p_list)
    restrict = max_positive_count(inst)
    a_star = nash_optimal(inst)
    b, values_a, values_b = truncate(inst, a_star)
    rep_a = WelfareReport.from_values(values_a, p_list, restrict)
    rep_b = WelfareReport.from_values(values_b, p_list, restrict)
    if rep_a.positive_count != restrict:  # B's values are positive where A*'s are
        raise SolverInternalError("optimal allocations missed the positive capacity")
    poe = {p: poe_ratio(rep_a.keys[p], rep_b.keys[p], p, restrict) for p in p_list}
    return SolveResult(
        a_star=a_star,
        b=b,
        report_a_star=rep_a,
        report_b=rep_b,
        poe=poe,
        diagnostics=diagnostics(inst, a_star),
    )
