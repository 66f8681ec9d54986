"""Generalized p-mean welfare with the positive-subset convention.

When some agents are bound to receive zero value, welfare is evaluated over
a largest subset of agents that can simultaneously get positive value; the
size of that subset is the instance's *positive capacity* (a maximum
bipartite matching between agents and the goods they value).  ``fill`` is
the one flow on that agent-good graph: the capacity is its total with one
good per agent, and the doubly normalised flow route runs it with the
route's two degree bounds.  ``p_mean`` is the one place that rule is
written, as the step ``_mean``: the mean for one p of a vector's positive
entries, filtered and sorted once.  ``welfare_keys`` reads from that step
a vector's comparison key for every p of a list, (number of positive
agents, the mean over the capacity), with the integer product of positive
values standing in for the Nash mean; ``welfare_key`` is its one-p case;
``WelfareReport.from_values`` reads a value vector's keys and means from
the same step (``welfare_report`` evaluates an allocation first); and
``poe_ratio`` divides two keys.  Arithmetic is exact for p = 1, Nash, and
the egalitarian limit.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Iterable, Sequence

from .model import Allocation, Instance, goods_of


# ---------------------------------------------------------------------------
# Welfare parameter
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PParam:
    """Exponent of the p-mean: an exact rational p <= 1, Nash (the p -> 0
    limit), or the egalitarian p -> -infinity limit.  The two limits are
    explicit variants, never numeric approximations."""

    kind: str  # "real" | "nash" | "neg_inf"
    value: Fraction | None = None
    # the generated hash would rehash the Fraction on every dict access
    _hash: int = field(init=False, repr=False, compare=False)
    # read by every p-mean: float(p), 1.0 / float(p) and whether p is 1, for
    # a real p, so no mean converts or compares the Fraction
    _float: float | None = field(init=False, repr=False, compare=False)
    _inverse: float | None = field(init=False, repr=False, compare=False)
    _is_one: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        real = self.kind == "real"
        pf = float(self.value) if real else None
        object.__setattr__(self, "_hash", hash((self.kind, self.value)))
        object.__setattr__(self, "_float", pf)
        object.__setattr__(self, "_inverse", 1.0 / pf if real else None)
        object.__setattr__(self, "_is_one", real and self.value == 1)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # unpickling rebuilds the hash (a str's hash differs between
        # processes) and the float fields
        return PParam, (self.kind, self.value)

    @staticmethod
    def real(p) -> "PParam":
        """Exact p <= 1; 0 is Nash.  The p-mean evaluates ``x ** p`` and
        ``y ** (1 / p)`` in floats, so other p must be a float and |p| at
        least 10^-6: nearer 0, ``x ** p`` rounds toward 1 and the mean
        drifts past the gates' ``FLOAT_TOL`` (use Nash, the p -> 0 limit).
        That bound also keeps ``float(p)`` nonzero and ``1 / p`` finite."""
        p = Fraction(p)
        if p > 1:
            raise ValueError("p-mean welfare is only defined here for p <= 1")
        if p == 0:
            return NASH
        if abs(p) < Fraction(1, 10**6):
            raise ValueError("|p| below 1e-6 is too close to 0 for the float p-mean; use nash")
        try:
            float(p)
        except OverflowError as exc:
            raise ValueError("p and 1/p must both be finite nonzero floats") from exc
        return PParam("real", p)

    @staticmethod
    def parse(token: str) -> "PParam":
        token = token.strip().lower()
        if token == "nash":
            return NASH
        if token in ("-inf", "-infinity", "egal"):
            return NEG_INF
        return PParam.real(Fraction(token))

    def __str__(self) -> str:
        if self.kind == "real":
            return str(self.value)
        return "nash" if self.kind == "nash" else "-inf"

    def __repr__(self) -> str:
        return f"PParam({self})"


NASH = PParam("nash")
NEG_INF = PParam("neg_inf")
UTILITARIAN = PParam("real", Fraction(1))


# ---------------------------------------------------------------------------
# Positive capacity
# ---------------------------------------------------------------------------


def fill(rows: Sequence[int], m: int, caps: Sequence[int]) -> tuple[list[int], list[int]]:
    """Give each agent up to c goods from its liked-goods mask ``rows[i]``,
    as many goods in total as possible, for each c of the ascending ``caps``
    in turn (each round goes on from the last one's goods).  Returns the
    goods' ``owner`` list (-1 for a free good) and the agents' ``load`` list.

    Dinic's maximum flow on source -> agent (capacity c) -> liked good ->
    sink, on those lists and bitmasks.  A round opens with the phase of
    one-arc paths: each agent in turn takes its lowest free liked goods.
    Each later phase layers the goods breadth-first from the agents with
    room (the owners of layer k's goods not reached before are on level
    k + 1) up to the first layer that holds a free good.  The blocking flow
    searches from each agent with room, in agent order: an agent tries its
    liked goods in its layer, lowest first, and a good leads on to its owner
    if the owner is one level down, or to the sink in the last layer.  A
    good once tried has no arc left that a later path of the phase can use,
    so one ``entered`` mask stands for the arc pointers.  The path is kept
    on lists, so its length is not bounded by the recursion limit.
    """
    n = len(rows)
    owner = [-1] * m
    load = [0] * n
    free = (1 << m) - 1
    for c in caps:
        for i, row in enumerate(rows):
            avail = row & free
            while avail and load[i] < c:
                low = avail & -avail
                avail ^= low
                free ^= low
                owner[low.bit_length() - 1] = i
                load[i] += 1
        while min(load) < c:
            roots = [i for i in range(n) if load[i] < c]
            level = [0 if k < c else -1 for k in load]  # agent i takes from layers[level[i]]
            layers: list[int] = []
            seen = 0
            frontier = roots
            while frontier:
                reach = reduce(operator.or_, map(rows.__getitem__, frontier)) & ~seen
                seen |= reach
                layers.append(reach)
                if reach & free:
                    break
                frontier = []
                for g in goods_of(reach):
                    if level[owner[g]] < 0:
                        level[owner[g]] = len(layers)
                        frontier.append(owner[g])
            if not layers[-1] & free:
                break
            last, entered = len(layers) - 1, 0
            for root in roots:
                while load[root] < c:
                    agents, goods = [root], []  # agents[k] takes goods[k]
                    while agents:
                        k = len(goods)
                        cand = rows[agents[-1]] & layers[k] & ~entered
                        if not cand:
                            agents.pop()
                            if goods:
                                goods.pop()
                            continue
                        low = cand & -cand
                        entered |= low
                        g = low.bit_length() - 1
                        if k == last:
                            if low & free:
                                goods.append(g)
                                break
                        elif level[owner[g]] == k + 1:
                            agents.append(owner[g])
                            goods.append(g)
                    if not agents:
                        break
                    free ^= 1 << goods[-1]
                    for a, g in zip(agents, goods):
                        owner[g] = a
                    load[root] += 1
    return owner, load


def max_positive_count(inst: Instance) -> int:
    """Maximum number of agents that can simultaneously get positive value:
    a maximum matching, ``fill`` with capacity 1, in the agent-good graph
    with an edge whenever the agent values the good on its own (under unit
    marginals, one singleton-valued good is exactly what positivity takes),
    read from the agents' ``nonloops`` masks."""
    return sum(fill([v.nonloops for v in inst.valuations], inst.m, (1,))[1])


# ---------------------------------------------------------------------------
# p-mean evaluation and comparison keys
# ---------------------------------------------------------------------------


_ZERO = Fraction(0)  # the mean of a dominated vector, shared by every call


def p_mean(values: Sequence, p: PParam, restrict: int):
    """Generalized p-mean of a nonnegative value vector under the
    positive-subset convention: the mean is taken over ``restrict`` agents
    (the instance's positive capacity) that include every positive entry.
    A vector with fewer positive entries is *dominated* and evaluates with
    the implied zeros, which makes it 0 for p <= 0.

    Returns an exact Fraction for p = 1 on rational inputs, an exact
    integer/Fraction for the egalitarian limit, and a float otherwise.
    Float terms are added left to right, as ``sum`` did before Python 3.12
    made float sums compensated, so the bytes do not depend on the Python
    version.  Raises ``ValueError`` for p < 0 when the mean of the powers
    falls below the normal float range, where it has lost its precision.
    """
    return _mean(sorted(v for v in values if v > 0), p, restrict)


def _mean(entries: list, p: PParam, restrict: int):
    """``p_mean`` of a vector whose positive entries, ascending, are
    ``entries``: the rule itself, read by every mean and key."""
    if restrict == 0:
        return _ZERO
    short = len(entries) < restrict  # implied zero entries

    if p.kind == "neg_inf":
        return _ZERO if short else entries[0]
    # float sums depend on order: the positive entries are added ascending
    if p.kind == "nash":
        if short:
            return 0.0
        return math.exp(reduce(operator.add, map(math.log, entries), 0.0) / restrict)
    if p._is_one:
        total = sum(entries)
        if isinstance(total, float):
            return total / restrict
        return Fraction(total, restrict)
    pf = p._float
    if pf < 0 and short:
        return 0.0
    acc = reduce(operator.add, (float(v) ** pf for v in entries), 0.0)
    if pf < 0 and acc / restrict < sys.float_info.min:
        raise ValueError(f"p = {p} is too negative: the mean of x^p underflows the float range")
    return (acc / restrict) ** p._inverse


def welfare_keys(values: Sequence, p_list: Iterable[PParam], restrict: int) -> dict[PParam, tuple]:
    """Total-preorder comparison key of a value vector for each p of
    ``p_list``: (positive count, welfare), from one filter and one sort of
    its positive entries.

    The welfare is ``p_mean(values, p, restrict)`` except for Nash, where
    it is the integer product of the positive entries (1 for none); it is
    exact for p = 1, Nash and the egalitarian limit, and a float for other
    p.  Keys are only comparable for a fixed p and restrict.
    """
    positives = [v for v in values if v > 0]
    ascending = sorted(positives)
    count = len(positives)
    return {
        p: (count, math.prod(positives) if p.kind == "nash" else _mean(ascending, p, restrict))
        for p in p_list
    }


def welfare_key(values: Sequence, p: PParam, restrict: int):
    """The comparison key of ``welfare_keys`` for one p."""
    return welfare_keys(values, (p,), restrict)[p]


def poe_ratio(key_opt, key_fair, p: PParam, restrict: int):
    """Welfare ratio of two comparison keys for the same p and restrict.

    Equal keys give ``Fraction(1)``; that includes zero positive capacity,
    where every value is 0 and the keys coincide.  Otherwise an exact
    Fraction when both welfare components are exact and the ratio is
    rational (always for p = 1 and the egalitarian limit); float otherwise.
    """
    (c1, w1), (c2, w2) = key_opt, key_fair
    if (c1, w1) == (c2, w2):
        return Fraction(1)
    if c2 == 0 or w2 == 0:
        raise ZeroDivisionError("fair optimum has zero welfare")
    if p.kind == "nash":
        if c1 != c2:
            raise ValueError("Nash ratio undefined across positive counts")
        try:
            return float(Fraction(w1, w2)) ** (1.0 / restrict)
        except OverflowError:  # product ratio beyond the float range
            return math.exp((math.log(w1) - math.log(w2)) / restrict)
    if p.kind == "neg_inf" or p._is_one:
        return Fraction(w1) / Fraction(w2)
    return float(w1) / float(w2)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class WelfareReport:
    values: tuple[int, ...]
    positive_count: int
    restrict: int
    pmean: dict[PParam, object]
    keys: dict[PParam, tuple]

    @staticmethod
    def from_values(
        values: tuple[int, ...], p_list: Iterable[PParam], restrict: int,
    ) -> "WelfareReport":
        """The comparison key and p-mean for each p of a complete
        allocation's per-agent values, over the positive capacity
        ``restrict`` (``max_positive_count(inst)``).  The keys are
        ``welfare_keys``'; a p-mean is read from its key's welfare, except
        Nash's, whose key holds the product instead."""
        keys = welfare_keys(values, p_list, restrict)
        return WelfareReport(
            values=values,
            positive_count=sum(1 for v in values if v > 0),
            restrict=restrict,
            pmean={
                p: p_mean(values, p, restrict) if p.kind == "nash" else w
                for p, (_, w) in keys.items()
            },
            keys=keys,
        )

    def to_json(self) -> dict:
        return {
            "values": list(self.values),
            "positive_count": self.positive_count,
            "restrict": self.restrict,
            "pmean": {str(p): num_to_json(v) for p, v in self.pmean.items()},
        }


def num_to_json(v):
    """JSON form of a welfare number: Fractions as "a/b" strings, floats as-is."""
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, float):
        return v
    return int(v)


def welfare_report(
    inst: Instance, alloc: Allocation, p_list: Iterable[PParam], restrict: int,
) -> WelfareReport:
    """The report of a complete allocation: ``WelfareReport.from_values``
    of its values."""
    if not alloc.is_complete:
        raise ValueError("welfare report requires a complete allocation")
    return WelfareReport.from_values(alloc.values(inst), p_list, restrict)
