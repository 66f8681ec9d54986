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
3. ``truncate`` — reduce every bundle worth more than one unit above the
   minimum down to that level, handing the removed goods to a minimum-value
   agent for whom they are worthless; the result is EQ1 and optimal among
   EQ1 allocations for every p.

Bundles, the pool and the search's sources are bitmasks of goods.
Augmentation makes every one-good path in one ascending sweep over the
pool, the same paths in the same order as the searches would (no span
shrinks while augmenting; see ``max_utilitarian_clean``), and runs the
exchange search only for the longer paths left.  The search asks about a
good only the agents for whom it is not a loop (``Instance.takers``, built
once per solve), and never an agent whose bundle has reached its
``grand_value``: such a bundle spans every good, so it adds none.  The
breadth-first walk tests each good for an absorber when it first reaches
it, the sources first, so a search with a one-good path ends before any
arc is built.  Each bundle's exchange oracle is built once per solve and
updated in place along every applied path.  Balancing walks each failed
source set at most once per pass, and ends a pass at the first target no
agent is two ahead of.  Truncation reads each bundle's value and the
goods to remove from one ``Valuation.coloops`` call.  Correctness of the
search steps is gated end-to-end against the exhaustive oracle in the
test suite.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Container, Iterable, Sequence

from .model import (
    UNASSIGNED,
    Allocation,
    BinaryAdditive,
    Instance,
    goods_of,
    is_eq1,
)
from .welfare import (
    PParam, WelfareReport, max_positive_count, num_to_json, poe_ratio, welfare_report,
)


class SolverInternalError(RuntimeError):
    """An internal invariant failed; indicates a bug, not bad input."""


# ---------------------------------------------------------------------------
# Exchange-graph machinery
# ---------------------------------------------------------------------------


class _State:
    """Mutable clean partial allocation: per-agent independent bundles as
    bitmasks of goods, each with its exchange oracle (built here, then
    updated in place by ``apply_path``), the pool of
    unassigned goods as a bitmask, the agent–good adjacency ``takers``
    (``Instance.takers``) that the search walks, and the set ``below`` of
    agents whose bundle is still worth less than their ``grand_value``."""

    def __init__(self, inst: Instance, owner: Sequence[int]):
        self.inst = inst
        self.owner = list(owner)
        self.takers = takers = inst.takers()
        # goods with two or more takers: an owned good outside this mask has
        # its owner as its only taker, so no arcs leave it
        self.shared = sum(1 << g for g, agents in enumerate(takers) if len(agents) > 1)
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

    def _bfs(self, sources: int, absorbers: Container[int]) -> tuple[list[int], int] | int:
        """Shortest path from any source good (a bitmask) to a good some
        absorber can add.

        Returns (path of goods, absorbing agent), or the mask of goods the
        walk reached when no absorber can add any of them.  Along the path,
        each good's owner releases it and takes the preceding good; the
        final good is added to the absorber's bundle, for a net gain of one
        unit of value.  Shortest paths keep the simultaneous swaps valid.
        Arcs run from g to g's fundamental circuit in each other bundle (all
        of it if g adds value).  Only the agents in ``takers[g]`` are asked
        about g: for the others g is a loop, which adds no value and lies on
        no circuit.  Goods are reached sources first, ascending, then in the
        order arcs find them.  Each good is tested when it is first reached
        and its arcs are built when it leaves the queue, so the path ends at
        the first good reached that an absorber can add, taken by the lowest
        such absorber.

        The walk does not depend on the absorbers, which only decide where
        it stops.  Callers pass only agents in ``below``: a bundle that has
        reached its ``grand_value`` spans every good, so it adds none, and
        with no absorber the search does not walk and returns the sources.
        """
        if not absorbers:
            return sources
        owner, takers, exchanges, bundles = self.owner, self.takers, self.exchanges, self.bundles
        seen = sources
        reached = sources & (self.shared | self.pool)  # skip sources no arc leaves
        parent: dict[int, int | None] = {}
        queue: deque[int] = deque()
        g = None  # the sources have no parent
        while True:
            while reached:  # lowest bit first, without listing every source
                low = reached & -reached
                reached ^= low
                h = low.bit_length() - 1
                parent[h] = g
                for j in takers[h]:
                    if j in absorbers and j != owner[h] and exchanges[j].circuit(h) is None:
                        path = [h]
                        while (h := parent[h]) is not None:
                            path.append(h)
                        path.reverse()
                        return path, j
                queue.append(h)
            if not queue:
                return seen
            g = queue.popleft()
            arcs = 0
            for j in takers[g]:
                if j != owner[g]:
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

    def to_allocation(self) -> Allocation:
        return Allocation(self.owner, self.inst.n)


def max_utilitarian_clean(inst: Instance) -> _State:
    """Exchange state of a clean partial allocation maximizing total value.

    Repeatedly augments from the unassigned pool: a shortest exchange path
    moves one pool good into the allocation (possibly cascading swaps) and
    raises the total value by exactly one.  Stops when no pool good can be
    brought in, which is the matroid-partition optimality condition.

    One ascending sweep over the pool first makes every one-good path: each
    good goes to the first of its takers still below its grand value that
    it adds to.  Augmenting never shrinks a span (the absorber's grows, the
    others swap within a circuit) and ``below`` only loses agents, so a
    good passed without a taker never gains one.  Each search would return
    the lowest pool good with an absorber and that absorber, so the sweep
    makes the searches' one-good paths in their order, and the search runs
    only for the longer paths left.
    """
    state = _State(inst, [UNASSIGNED] * inst.m)
    owner, bundles, exchanges, below = state.owner, state.bundles, state.exchanges, state.below
    for g in goods_of(state.pool):
        for j in state.takers[g]:
            if j in below and exchanges[j].add(g):
                bundles[j] |= 1 << g
                owner[g] = j
                state.pool ^= 1 << g
                if bundles[j].bit_count() == inst.valuations[j].grand_value:
                    below.discard(j)
                break
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

    Within a pass nothing changes until a path is applied, and the walk from
    a source set does not depend on the target.  So a failed walk is kept
    for the pass, and a later target with the same sources fails too unless
    it can add a good that walk reached; only then is the search run again,
    and it finds the path the walk would.
    """
    n, bundles = state.inst.n, state.bundles
    while True:
        values = state.values()
        top = max(values)
        applied = False
        failed: dict[int, int] = {}  # sources -> goods their failed walk reached
        # targets by value; the sort is stable, so ties stay in agent order
        for i in sorted(range(n), key=values.__getitem__):
            if values[i] + 2 > top:  # no agent is two ahead of i or any later target
                break
            if i not in state.below:  # at its grand value: i adds no good
                continue
            # bundles are disjoint, so their sum is their union
            sources = sum(compress(bundles, map((values[i] + 2).__le__, values)))
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
            if (bundles[donor].bit_count() != values[donor] - 1
                    or bundles[i].bit_count() != values[i] + 1):
                raise SolverInternalError("transfer path did not move one unit of value")
            applied = True
            break
        if not applied:
            return


def _min_value_agent(values: list[int]) -> int:
    l = min(values)
    return min(i for i, v in enumerate(values) if v == l)


def nash_optimal(inst: Instance) -> Allocation:
    """Complete allocation maximizing Nash welfare under the positive-subset
    convention, hence the p-mean welfare for every p <= 1.

    Built as a clean utilitarian-optimal allocation, balanced by transfer
    paths on the same exchange state, with the leftover pool (zero marginal
    value for every agent once no augmenting path remains) handed to the
    lowest-index minimum-value agent."""
    state = max_utilitarian_clean(inst)
    _balance(state)

    sink = _min_value_agent(state.values())
    pool = goods_of(state.pool)
    # one oracle serves the whole pool: a good in the sink's span leaves it unchanged
    circuit = state.exchanges[sink].circuit
    if any(circuit(g) is None for g in pool):
        raise SolverInternalError(
            "pool good with positive marginal value: augmentation incomplete"
        )
    for g in pool:
        state.owner[g] = sink
    return state.to_allocation()


# ---------------------------------------------------------------------------
# Truncation
# ---------------------------------------------------------------------------


def truncate(inst: Instance, a_star: Allocation) -> Allocation:
    """EQ1 allocation obtained by trimming a Nash-optimal allocation.

    With ``l`` the minimum agent value, every bundle worth ``l + 2`` or more
    is reduced to exactly ``l + 1`` by removing value-carrying goods in
    ascending index order; the removed goods go to the lowest-index
    minimum-value agent, for whom Nash optimality forces their marginal
    value to be zero.  A good carries value when its removal lowers the
    bundle's value, and removing one such good leaves the others carrying
    value, so the goods removed are the bundle's first ``v - l - 1``
    coloops."""
    if not a_star.is_complete:
        raise ValueError("truncation requires a complete allocation")
    masks = a_star.masks(inst)
    values, coloops = zip(*(v.coloops(b) for v, b in zip(inst.valuations, masks)))
    l = min(values)
    i_l = _min_value_agent(values)
    # removed goods come from other agents, so the sink's bundle stays fixed
    sink_circuit = inst.valuations[i_l].exchange(masks[i_l]).circuit
    owner = list(a_star.owner)
    for i, value in enumerate(values):
        excess = value - l - 1
        if excess < 1:
            continue
        removed = goods_of(coloops[i])[:excess]
        for g in removed:
            if sink_circuit(g) is None:
                raise SolverInternalError(
                    "removed good has positive marginal value for the minimum-value "
                    "agent; input allocation was not Nash-optimal"
                )
            owner[g] = i_l
        if len(removed) != excess:
            raise SolverInternalError("could not truncate bundle to the target value")
    b = Allocation(owner, inst.n)
    if not is_eq1(inst, b):
        raise SolverInternalError("truncated allocation is not EQ1")
    return b


# ---------------------------------------------------------------------------
# Type-level truncation diagnostics (binary additive only)
# ---------------------------------------------------------------------------


@dataclass
class TruncationDiagnostics:
    """Per-type goods/agents counts with the derived truncation level.

    Types are reindexed so goods-per-agent ratios are nondecreasing (ties by
    original type id).  ``truncation_level`` is the ceiling of the smallest
    ratio, bumped by one when the ratio is integral; ``retained_types`` is
    the number of leading types whose ratio it still covers, and
    ``retained_fraction`` the fraction of agents in those types.
    """

    type_order: list[int]  # original type ids, reindexed order
    goods_per_type: list[int]  # m_k, reindexed
    agents_per_type: list[int]  # n_k, reindexed
    truncation_level: int
    retained_types: int
    retained_fraction: Fraction
    warnings: list[str]

    def to_json(self) -> dict:
        return {
            "type_order": list(self.type_order),
            "goods_per_type": list(self.goods_per_type),
            "agents_per_type": list(self.agents_per_type),
            "truncation_level": self.truncation_level,
            "retained_types": self.retained_types,
            "retained_fraction": str(self.retained_fraction),
            "warnings": list(self.warnings),
        }


def diagnostics(inst: Instance, a_star: Allocation) -> TruncationDiagnostics:
    """Evaluate the type-level truncation quantities on a clean view of the
    optimal allocation.  Binary additive instances only.  A clean bundle
    keeps one good per unit of value, so a type's goods are the sum of its
    agents' values."""
    if not all(isinstance(v, BinaryAdditive) for v in inst.valuations):
        raise ValueError("diagnostics are defined for binary additive instances")
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
    alpha = Fraction(sum(n_k[:rho]), inst.n)
    return TruncationDiagnostics(
        type_order=order,
        goods_per_type=m_k,
        agents_per_type=n_k,
        truncation_level=level,
        retained_types=rho,
        retained_fraction=alpha,
        warnings=warnings,
    )


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------


@dataclass
class SolveResult:
    a_star: Allocation
    b: Allocation
    min_value: int
    report_a_star: WelfareReport
    report_b: WelfareReport
    poe: dict[PParam, object]
    diagnostics: TruncationDiagnostics | None

    def to_json(self) -> dict:
        return {
            "a_star": self.a_star.to_json(),
            "b": self.b.to_json(),
            "min_value": self.min_value,
            "welfare_optimal": self.report_a_star.to_json(),
            "welfare_eq1": self.report_b.to_json(),
            "poe": {str(p): num_to_json(v) for p, v in self.poe.items()},
            "diagnostics": self.diagnostics.to_json() if self.diagnostics else None,
        }


def solve(inst: Instance, p_list: Iterable[PParam]) -> SolveResult:
    """Compute the optimal allocation, the optimal EQ1 allocation, welfare
    reports for both, and the per-p price of equity."""
    p_list = list(p_list)
    restrict = max_positive_count(inst)
    a_star = nash_optimal(inst)
    b = truncate(inst, a_star)
    rep_a = welfare_report(inst, a_star, p_list, restrict=restrict)
    rep_b = welfare_report(inst, b, p_list, restrict=restrict)
    if rep_a.positive_count != restrict or rep_b.positive_count != restrict:
        raise SolverInternalError("optimal allocations missed the positive capacity")
    poe = {p: poe_ratio(rep_a.keys[p], rep_b.keys[p], p, restrict) for p in p_list}
    diag = None
    if all(isinstance(v, BinaryAdditive) for v in inst.valuations):
        diag = diagnostics(inst, a_star)
    return SolveResult(
        a_star=a_star,
        b=b,
        min_value=min(rep_a.values),
        report_a_star=rep_a,
        report_b=rep_b,
        poe=poe,
        diagnostics=diag,
    )
