"""Exhaustive ground truth for small instances.

Enumerates all n^m complete assignments, tracking the best comparison key
overall and among EQ1 allocations for each requested p, the exact price of
equity, and the leximin value vector.  Refuses budgets it cannot honour;
it never samples.

The enumeration splits bundles instead of counting through owner lists:
agent 0 takes a submask of the goods, agent 1 a submask of what is left,
and so on, with the last two agents splitting the remainder in one loop.
Every bundle's value and *floor* (its value after dropping the good whose
removal lowers it most) come from one ``model.floor_table`` per agent, the
``coloops`` pair of every bundle built in one pass, and an assignment is EQ1
exactly when its largest floor is at most its smallest value, the rule of
``model.is_eq1``.  Each assignment is one table-lookup key and one dict
update; sorting runs once per distinct key, and the welfare keys once per
distinct sorted value vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .model import Allocation, Instance, floor_table
from .welfare import PParam, num_to_json, poe_ratio, welfare_key

DEFAULT_BUDGET = 10_000_000


class BudgetExceededError(RuntimeError):
    """The instance is too large for exhaustive enumeration."""


@dataclass
class OracleResult:
    best_key: dict[PParam, tuple]
    best_alloc: dict[PParam, Allocation]
    best_eq1_key: dict[PParam, tuple]
    best_eq1_alloc: dict[PParam, Allocation]
    poe: dict[PParam, object]
    leximin: tuple[int, ...]
    enumeration_count: int
    restrict: int

    def to_json(self) -> dict:
        return {
            "poe": {str(p): num_to_json(v) for p, v in self.poe.items()},
            "leximin": list(self.leximin),
            "enumeration_count": self.enumeration_count,
            "restrict": self.restrict,
            "best": {str(p): a.to_json() for p, a in self.best_alloc.items()},
            "best_eq1": {str(p): a.to_json() for p, a in self.best_eq1_alloc.items()},
        }


def _check_budget(inst: Instance, budget: int) -> int:
    total = inst.n ** inst.m
    if total > budget:
        raise BudgetExceededError(
            f"{inst.n}^{inst.m} = {total} assignments exceed the budget of {budget}"
        )
    return total


def _prefixes(tables: list[list[int]], weight: list[int], full: int):
    """Yield (key bits, index, goods left) for every choice of bundles of
    agents 0..n-3, each a submask of what the agents before it left.
    Agents after the last one offered goods hold empty bundles, whose key
    bits and index weight are 0."""
    last = len(tables) - 2
    if last == 0:
        yield 0, 0, full
        return
    rests, subs = [full] * last, [full] * last
    keys, idxs = [0] * (last + 1), [0] * (last + 1)
    k = 0
    while True:
        s = subs[k]
        keys[k + 1] = keys[k] | tables[k][s]
        idxs[k + 1] = idxs[k] + k * weight[s]
        left = rests[k] ^ s
        if k + 1 < last and left:
            k += 1
            rests[k] = subs[k] = left
            continue
        yield keys[k + 1], idxs[k + 1], left
        while not subs[k]:
            k -= 1
            if k < 0:
                return
        subs[k] = (subs[k] - 1) & rests[k]


def _scan(inst: Instance) -> tuple[dict[tuple[int, ...], int], dict[tuple[int, ...], int]]:
    """Two tables over the n^m complete assignments, of all of them and of
    the EQ1 ones: each sorted value vector that some assignment attains,
    mapped to the lowest lexicographic index that attains it (good 0 is the
    most significant digit).

    Agent k's lookup table holds, for each bundle, its value and whether its
    floor is one lower (``floor_table``), shifted into agent k's own bit
    field, so an assignment's key is the OR of its agents' entries.  The
    assignment is EQ1 exactly when its largest floor is at most its smallest
    value.  The first n-2 agents take submasks in turn (``_prefixes``); the
    last two split what is left, and each split costs one dict update.
    """
    n, m = inst.n, inst.m
    if n == 1:  # one assignment, EQ1 by definition
        table = {(inst.valuations[0].grand_value,): 0}
        return table, table
    width = m.bit_length() + 1  # a value <= m, then the floor's drop bit
    tables = [
        [entry << (k * width) for entry in floor_table(val)]
        for k, val in enumerate(inst.valuations)
    ]
    weight = [0]  # a bundle's index weight: good g counts n^(m-1-g)
    for g in range(m):
        w = n ** (m - 1 - g)
        weight += [x + w for x in weight]

    end = n**m  # above every index
    found: dict[int, int] = {}
    get = found.get
    ta, tb = tables[-2], tables[-1]
    for prefix, idx, left in _prefixes(tables, weight, (1 << m) - 1):
        # agent n-2 takes sub, agent n-1 the rest of left
        base = idx + (n - 1) * weight[left]
        sub = left
        while True:
            key = prefix | ta[sub] | tb[left ^ sub]
            i = base - weight[sub]
            if i < get(key, end):
                found[key] = i
            if not sub:
                break
            sub = (sub - 1) & left

    field = (1 << width) - 1
    all_vecs: dict[tuple[int, ...], int] = {}
    eq1_vecs: dict[tuple[int, ...], int] = {}
    for key, i in found.items():
        values, top_floor = [], 0
        for _ in range(n):
            v, drop = (key & field) >> 1, key & 1
            values.append(v)
            top_floor = max(top_floor, v - drop)
            key >>= width
        vec = tuple(sorted(values))
        if i < all_vecs.get(vec, end):
            all_vecs[vec] = i
        if top_floor <= vec[0] and i < eq1_vecs.get(vec, end):
            eq1_vecs[vec] = i
    return all_vecs, eq1_vecs


def _alloc_from_index(inst: Instance, idx: int) -> Allocation:
    owner = [0] * inst.m
    for pos in range(inst.m - 1, -1, -1):
        idx, owner[pos] = divmod(idx, inst.n)
    return Allocation(owner, inst.n)


def enumerate_allocations(
    inst: Instance, p_list: Iterable[PParam], budget: int = DEFAULT_BUDGET
) -> OracleResult:
    """Exact optima by brute force.

    Ties between allocations with equal keys break toward the first one in
    lexicographic assignment order.  Raises ``BudgetExceededError`` when
    n^m exceeds the budget.
    """
    p_list = list(p_list)
    count = _check_budget(inst, budget)

    all_vecs, eq1_vecs = _scan(inst)
    # the positive capacity: the most agents that one assignment gives value
    restrict = max(len(vec) - vec.count(0) for vec in all_vecs)

    best_key: dict[PParam, tuple] = {}
    best_alloc: dict[PParam, Allocation] = {}
    best_eq1_key: dict[PParam, tuple] = {}
    best_eq1_alloc: dict[PParam, Allocation] = {}
    poe: dict[PParam, object] = {}
    for p in p_list:
        keys = {vec: welfare_key(vec, p, restrict) for vec in all_vecs}
        for vecs, key_out, alloc_out in (
            (all_vecs, best_key, best_alloc),
            (eq1_vecs, best_eq1_key, best_eq1_alloc),
        ):
            # highest key; among equal keys, the lowest index
            top = max(vecs, key=lambda vec: (keys[vec], -vecs[vec]))
            key_out[p] = keys[top]
            alloc_out[p] = _alloc_from_index(inst, vecs[top])
        poe[p] = poe_ratio(best_key[p], best_eq1_key[p], p, restrict)

    return OracleResult(
        best_key=best_key,
        best_alloc=best_alloc,
        best_eq1_key=best_eq1_key,
        best_eq1_alloc=best_eq1_alloc,
        poe=poe,
        leximin=max(all_vecs),
        enumeration_count=count,
        restrict=restrict,
    )
