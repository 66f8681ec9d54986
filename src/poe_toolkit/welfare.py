"""Generalized p-mean welfare with the positive-subset convention.

When some agents are bound to receive zero value, welfare is evaluated over
a largest subset of agents that can simultaneously get positive value; the
size of that subset is the instance's *positive capacity* (a maximum
bipartite matching between agents and the goods they value).  ``p_mean`` is
the one place that rule is written: ``welfare_key`` ranks allocations by
(number of positive agents, ``p_mean`` over the capacity), with the integer
product of positive values standing in for the Nash mean;
``welfare_report`` reads its keys and means from those two; and
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

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.kind, self.value)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # unpickling rebuilds the hash: a str's hash differs between processes
        return PParam, (self.kind, self.value)

    @staticmethod
    def real(p) -> "PParam":
        """Exact p <= 1; 0 is Nash.  Other p must be a nonzero float with a
        finite reciprocal, since the p-mean evaluates ``x ** p`` and
        ``y ** (1 / p)`` in floats."""
        p = Fraction(p)
        if p > 1:
            raise ValueError("p-mean welfare is only defined here for p <= 1")
        if p == 0:
            return NASH
        try:
            finite = math.isfinite(1.0 / float(p))
        except (OverflowError, ZeroDivisionError):
            finite = False
        if not finite:
            raise ValueError("p and 1/p must both be finite nonzero floats")
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


def augment(
    adj: Sequence[Sequence[int]], root: int, row_match: list[int], col_match: list[int],
) -> bool:
    """Extend a bipartite matching by one augmenting path from the free row
    ``root``.

    ``adj[r]`` lists the columns row ``r`` may take; ``row_match`` and
    ``col_match`` hold the partner of each row and column (-1 if free) and
    are updated in place.  A depth-first (Kuhn) search that tries columns
    in ``adj`` order and visits each column at most once, kept on an
    explicit stack so the path length is not bounded by the recursion
    limit.  Returns False, leaving the matching unchanged, when no
    augmenting path exists.
    """
    seen: set[int] = set()
    rows = [root]  # rows[k + 1] is matched to the column rows[k] is trying
    iters = [iter(adj[root])]  # iters[k]: the columns rows[k] has not tried
    while iters:
        for c in iters[-1]:
            if c in seen:
                continue
            seen.add(c)
            owner = col_match[c]
            if owner < 0:
                for r in reversed(rows):  # each row takes the next one's column
                    row_match[r], c = c, row_match[r]
                    col_match[row_match[r]] = r
                return True
            rows.append(owner)
            iters.append(iter(adj[owner]))
            break
        else:
            iters.pop()
            rows.pop()
    return False


def max_positive_count(inst: Instance) -> int:
    """Maximum number of agents that can simultaneously get positive value.

    Equals the size of a maximum matching in the agent-good bipartite graph
    with an edge whenever the agent values the good on its own (under unit
    marginals, one singleton-valued good is exactly what positivity takes),
    read from the agents' ``nonloops`` masks.

    The matching starts greedily on those masks: in agent order, each agent
    takes its lowest valued good still free.  Kuhn's search (``augment``)
    then runs once from each agent left unmatched that values some good,
    over goods lists built only in that case.  A row with no augmenting path
    keeps none after later augmentations, so one search from every initially
    free row ends at a maximum matching whatever matching it starts from;
    only its size is returned.
    """
    rows = [v.nonloops for v in inst.valuations]
    row_match = [-1] * inst.n
    col_match = [-1] * inst.m
    free = (1 << inst.m) - 1
    unmatched = []
    for i, row in enumerate(rows):
        avail = row & free
        if avail:
            low = avail & -avail
            free ^= low
            g = low.bit_length() - 1
            row_match[i], col_match[g] = g, i
        elif row:
            unmatched.append(i)
    count = inst.n - row_match.count(-1)
    if unmatched:
        adj = list(map(goods_of, rows))
        count += sum(augment(adj, i, row_match, col_match) for i in unmatched)
    return count


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
    if restrict == 0:
        return _ZERO
    entries = [v for v in values if v > 0]
    short = len(entries) < restrict  # implied zero entries

    if p.kind == "neg_inf":
        return _ZERO if short else min(entries)
    # float sums depend on order: add the positive entries ascending
    entries.sort()
    if p.kind == "nash":
        if short:
            return 0.0
        return math.exp(reduce(operator.add, map(math.log, entries), 0.0) / restrict)
    assert p.value is not None
    if p.value == 1:
        total = sum(entries)
        if isinstance(total, float):
            return total / restrict
        return Fraction(total, restrict)
    pf = float(p.value)
    if pf < 0 and short:
        return 0.0
    acc = reduce(operator.add, (float(v) ** pf for v in entries), 0.0)
    if pf < 0 and acc / restrict < sys.float_info.min:
        raise ValueError(f"p = {p} is too negative: the mean of x^p underflows the float range")
    return (acc / restrict) ** (1.0 / pf)


def welfare_key(values: Sequence[int], p: PParam, restrict: int):
    """Total-preorder comparison key: (positive count, welfare).

    The welfare is ``p_mean(values, p, restrict)`` except for Nash, where
    it is the integer product of the positive entries (1 for none); it is
    exact for p = 1, Nash and the egalitarian limit, and a float for other
    p.  Keys are only comparable for a fixed p and restrict.
    """
    positives = [v for v in values if v > 0]
    if p.kind == "nash":
        return (len(positives), math.prod(positives))
    return (len(positives), p_mean(values, p, restrict))


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
    if p.kind == "neg_inf" or (p.kind == "real" and p.value == 1):
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
    """Per-agent values plus the comparison key and p-mean for each p, over
    the positive capacity ``restrict`` (``max_positive_count(inst)``).  The
    keys are ``welfare_key``'s; a p-mean is read from its key's welfare,
    except Nash's, whose key holds the product instead."""
    if not alloc.is_complete:
        raise ValueError("welfare report requires a complete allocation")
    values = alloc.values(inst)
    keys = {p: welfare_key(values, p, restrict) for p in p_list}
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
