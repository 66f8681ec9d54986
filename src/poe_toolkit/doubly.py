"""Price-of-equity-1 pipelines for doubly normalised instances.

Two independent routes produce welfare-optimal EQ1 allocations when every
agent values exactly W goods and every good is valued by exactly W_c
agents:

* ``welfare.fill``, the agent-good flow, run with the two degree bounds
  (every good to an agent that values it, every agent getting floor(W/W_c)
  or ceil(W/W_c) goods), and
* a simultaneous-eating construction whose fractional outcome is an exactly
  doubly stochastic matrix, decomposed into permutation matrices and decoded
  back into allocations.

n*W and m*W_c both count the agent-good pairs, so W/W_c = m/n: W_c
divides W exactly when n divides m, and ``randomized_allocation`` picks its
route by that test alone.  Each route detects the instance once, with
``doubly_degrees``, and a lottery makes no other detection.

Everything here is exact: matrix arithmetic runs on integer numerators over
one common denominator, and Fractions appear only at the API boundary (entries,
lottery weights); no tolerances anywhere.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Sequence

from .model import Allocation, BinaryAdditive, Instance, goods_of
from .welfare import fill


# ---------------------------------------------------------------------------
# Detection
# ---------------------------------------------------------------------------


def doubly_degrees(inst: Instance) -> tuple[int, int]:
    """(W, W_c): every agent values W >= 1 goods (the normalisation constant)
    and every good is valued by W_c agents (its ``takers()``).  Raises
    ``ValueError`` when the instance is not doubly normalised; binary
    additive instances only."""
    if not all(isinstance(v, BinaryAdditive) for v in inst.valuations):
        raise ValueError("double normalisation is defined for binary additive instances")
    W = inst.normalisation()
    if W:  # not None (not normalised) and not 0 (nobody values anything)
        col_sums = {len(agents) for agents in inst.takers()}
        if len(col_sums) == 1:
            return W, col_sums.pop()
    raise ValueError("instance is not doubly normalised")


# ---------------------------------------------------------------------------
# Integral flow route
# ---------------------------------------------------------------------------


def solve_flow(inst: Instance) -> Allocation:
    """Welfare-optimal EQ1 allocation for a doubly normalised instance.

    Every good goes to an agent that values it, and every agent receives
    floor(W/W_c) or ceil(W/W_c) goods: ``fill`` saturates the lower bound
    first, then places the remaining goods under the upper bound (an
    augmenting path never takes a good from an agent without giving it
    another)."""
    W, W_c = doubly_degrees(inst)
    lo, hi = W // W_c, -(-W // W_c)
    owner, load = fill([v.nonloops for v in inst.valuations], inst.m, (lo, hi))
    if min(load) < lo:
        raise RuntimeError("internal: lower bounds infeasible on a doubly normalised instance")
    if sum(load) != inst.m:
        raise RuntimeError("internal: flow failed to place every good")
    return Allocation(owner, inst.n)


# ---------------------------------------------------------------------------
# Eating construction
# ---------------------------------------------------------------------------


@dataclass
class DoublyStochasticMatrix:
    """Square matrix of exact rationals with all row and column sums 1, held
    as integer numerators over one common denominator: entry (r, c) is
    ``counts[r][c] / scale``, with ``scale`` the least common denominator."""

    counts: tuple[tuple[int, ...], ...]
    scale: int

    def __init__(self, entries: Sequence[Sequence[int]], scale: int):
        """Entry (r, c) is ``entries[r][c] / scale``, with integer numerators."""
        if type(scale) is not int or scale <= 0:
            raise ValueError("scale must be a positive integer")
        rows = [list(row) for row in entries]
        if not rows:
            raise ValueError("matrix must have at least one row")
        if not set(map(type, chain.from_iterable(rows))) <= {int}:
            raise ValueError("entries must be integer numerators")
        dim = len(rows)
        if any(len(row) != dim for row in rows):
            raise ValueError("matrix must be square")
        for row in rows:
            if min(row) < 0:
                raise ValueError("entries must be non-negative")
            if sum(row) != scale:
                raise ValueError("every row must sum to exactly 1")
        if any(sum(col) != scale for col in zip(*rows)):
            raise ValueError("every column must sum to exactly 1")
        g = math.gcd(scale, *chain.from_iterable(rows))
        if g > 1:
            rows = [[x // g for x in row] for row in rows]
        self.counts = tuple(map(tuple, rows))
        self.scale = scale // g

    @property
    def dim(self) -> int:
        return len(self.counts)

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(x, self.scale) for x in row) for row in self.counts)

    def to_csv(self) -> str:
        """One line per row, each entry as ``str`` of its Fraction."""
        return "".join(",".join(map(str, row)) + "\n" for row in self.entries)


def eating_matrix(inst: Instance) -> DoublyStochasticMatrix:
    """Closed-form eating outcome for a doubly normalised instance with
    W = p * W_c + q, q != 0 (the q = 0 case is the flow route).

    Rows are agent copies, p + 1 per agent and agent-major (the copies of
    agent i are rows i*(p+1)..i*(p+1)+p); columns are the m real goods in
    instance order followed by t dummy goods that everyone values at zero.
    Each of the first p copies of an agent eats 1/W of every liked good;
    the last copy eats q/(W*W_c) of every liked good plus an equal share
    (1 - q/W_c)/t of each dummy good.  Over the common denominator
    W*W_c*t these shares are W_c*t, q*t and W*(W_c - q)."""
    W, W_c = doubly_degrees(inst)
    p, q = divmod(W, W_c)
    if q == 0:
        raise ValueError("no eating matrix: W divisible by W_c (flow route)")
    n, m = inst.n, inst.m
    copies = p + 1
    dim = copies * n
    t = dim - m
    share_early, share_last, share_dummy = W_c * t, q * t, W * (W_c - q)
    counts = []
    for v in inst.valuations:
        liked = goods_of(v.nonloops)
        for j in range(copies):
            row = [0] * dim
            share = share_early if j < p else share_last
            for g in liked:
                row[g] = share
            if j == p:
                row[m:] = [share_dummy] * t
            counts.append(row)
    return DoublyStochasticMatrix(counts, W * W_c * t)


# ---------------------------------------------------------------------------
# Birkhoff-von Neumann decomposition
# ---------------------------------------------------------------------------


@dataclass
class BvnDecomposition:
    """Exact convex combination of permutation matrices.

    ``terms`` is a list of (weight, perm) with positive rational weights
    summing to exactly 1 and ``perm[row] = col``; the weighted sum of the
    permutation matrices reproduces the source matrix entrywise.
    """

    terms: list[tuple[Fraction, tuple[int, ...]]]


def augment(
    adj: Sequence[int], root: int, row_match: list[int], col_match: list[int],
) -> bool:
    """Extend ``bvn_decompose``'s matching by one augmenting path from the
    free row ``root``; False, with the matching unchanged, if there is none.

    ``adj[r]`` is the bitmask of the columns (below ``len(adj)``) row ``r``
    may take, and ``row_match`` and ``col_match`` (the partner of each row
    and column, -1 if free) are updated in place.  A depth-first (Kuhn)
    search on an explicit stack, so the path length is not bounded by the
    recursion limit.  Row ``r`` next tries the lowest bit of
    ``adj[r] & unseen``, where ``unseen`` holds the columns this search has
    not tried.  Every lower column of ``adj[r]`` has been tried, so that is
    the column an ascending column list would yield next, and the
    decomposition's terms, which depend on this order, are the list search's.
    """
    unseen = (1 << len(adj)) - 1
    rows = []  # the rows before r on the path; each holds the column the one before tries
    r = root
    while True:
        free = adj[r] & unseen
        if free:
            bit = free & -free
            unseen ^= bit
            c = bit.bit_length() - 1
            rows.append(r)
            r = col_match[c]
            if r < 0:
                for r in reversed(rows):  # each row takes the next one's column
                    row_match[r], c = c, row_match[r]
                    col_match[row_match[r]] = r
                return True
        elif rows:
            r = rows.pop()
        else:
            return False


def bvn_decompose(Y: DoublyStochasticMatrix) -> BvnDecomposition:
    """Decompose a doubly stochastic matrix into permutation matrices.

    Iterates perfect matchings on the positive-support bipartite graph,
    subtracting the minimum matched entry each round (which zeroes at least
    one entry, so at most dim^2 - 2*dim + 2 terms are produced).  The
    decomposition is deterministic but not unique; the contract is exact
    reconstruction, not any particular term list.  The arithmetic runs on
    ``Y.counts``; each weight is its integer delta over ``Y.scale``.  Support
    rows are column bitmasks, which ``augment`` searches lowest column
    first, so the terms are those of a search over ascending column lists."""
    dim, scale = Y.dim, Y.scale
    work = [list(row) for row in Y.counts]
    support = [sum(1 << c for c in range(dim) if row[c] > 0) for row in work]
    row_match = [-1] * dim
    col_match = [-1] * dim
    terms: list[tuple[int, tuple[int, ...]]] = []
    remaining = scale
    # the free rows, ascending: all of them, then the rows the last subtraction
    # unmatched (augment never unmatches a row, so a scan finds the same rows)
    freed: Sequence[int] = range(dim)
    while remaining > 0:
        for r in freed:
            if not augment(support, r, row_match, col_match):
                raise RuntimeError("internal: support has no perfect matching; "
                                   "input was not doubly stochastic")
        perm = tuple(row_match)
        delta = min(map(list.__getitem__, work, perm))
        terms.append((delta, perm))
        freed = []
        for r, c in enumerate(perm):
            work[r][c] -= delta
            if work[r][c] == 0:
                support[r] ^= 1 << c
                row_match[r] = -1
                col_match[c] = -1
                freed.append(r)
        remaining -= delta
    if remaining != 0:
        raise RuntimeError("internal: decomposition weights do not sum to 1")
    if len(terms) > dim * dim - 2 * dim + 2 and dim > 1:
        raise RuntimeError("internal: decomposition exceeded the term bound")
    return BvnDecomposition(terms=[(Fraction(delta, scale), perm) for delta, perm in terms])


# ---------------------------------------------------------------------------
# Decoding and the randomized allocation
# ---------------------------------------------------------------------------


def decode_allocation(inst: Instance, perm: Sequence[int]) -> Allocation:
    """Map a permutation of ``inst``'s eating matrix back to a full
    allocation: goods eaten by any copy of an agent belong to that agent;
    dummy columns are dropped (they carry zero value for everyone)."""
    m, copies = inst.m, len(perm) // inst.n
    owner = [-1] * m
    for row, col in enumerate(perm):
        if col < m:
            owner[col] = row // copies  # rows are agent-major copies
    alloc = Allocation(owner, inst.n)
    if not alloc.is_complete:
        raise RuntimeError("internal: permutation did not cover every real good")
    return alloc


def randomized_allocation(inst: Instance) -> list[tuple[Fraction, Allocation]]:
    """Lottery over welfare-optimal EQ1 allocations whose expected value is
    exactly W/W_c = m/n for every agent: a single deterministic allocation
    when n divides m (so W_c divides W), otherwise the decoded eating-matrix
    decomposition.  Either route detects the instance, raising alike."""
    if inst.m % inst.n == 0:
        return [(Fraction(1), solve_flow(inst))]
    return eating_lottery(inst, eating_matrix(inst))


def eating_lottery(
    inst: Instance, eating: DoublyStochasticMatrix,
) -> list[tuple[Fraction, Allocation]]:
    """The lottery of ``inst``'s eating matrix ``eating``: its decomposition's
    weights, each with its permutation decoded into an allocation."""
    return [(w, decode_allocation(inst, perm)) for w, perm in bvn_decompose(eating).terms]


def expected_values(inst: Instance, lottery: list[tuple[Fraction, Allocation]]) -> list[Fraction]:
    """Each agent's expected value: integer numerators over the weights' common denominator."""
    denom = math.lcm(*(w.denominator for w, _ in lottery))
    nums = [w.numerator * (denom // w.denominator) for w, _ in lottery]
    per_agent = zip(*(a.values(inst) for _, a in lottery))
    return [Fraction(sum(map(operator.mul, nums, column)), denom) for column in per_agent]
