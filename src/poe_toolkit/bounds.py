"""Closed-form price-of-equity bounds over the p-mean spectrum.

All bounds are functions of the number of agent types ``r`` (with
``s = r - 1``).  Lower bounds are witnessed by the disjoint-groups instance
family (see ``generators``); upper bounds hold for every binary additive
normalised instance.  Formulas can dip below 1 for tiny ``s``; they are
reported raw, although the price of equity is >= 1 by definition.  Each
formula picks its branch from the exact p, so a p that rounds to the float
1.0 still gets the p < 1 branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .model import BinaryAdditive, Instance
from .welfare import PParam

LAMBERT_W_TOL = 1e-12  # Newton step size at which lambert_w stops


def lambert_w(x: float) -> float:
    """Principal branch of the Lambert W function (inverse of w * e^w) for
    x >= 0, by Newton iteration from ln(1 + x)."""
    if x < 0:
        raise ValueError("only the branch for x >= 0 is supported")
    if x == 0:
        return 0.0
    w = math.log1p(x)
    for _ in range(200):
        ew = math.exp(w)
        delta = (w * ew - x) / (ew * (w + 1))
        w -= delta
        if abs(delta) <= LAMBERT_W_TOL:
            return w
    raise ArithmeticError("Lambert W iteration did not converge")


def poe_lower_bound(p: PParam, r: int) -> float:
    """Largest price of equity certified by the lower-bound family."""
    if r < 2:
        raise ValueError("lower bound requires at least two agent types")
    s = r - 1
    if p.kind == "neg_inf":
        return 1.0
    if p.kind == "nash":
        if s < 2:
            raise ValueError("Nash lower bound needs s >= 2 (ln s must be positive)")
        return s / (math.e * math.log(s))
    if p._is_one:
        return float(s)
    pf = p._float
    if p.value > 0:
        return pf * s / math.e
    return 2 ** (1 / pf) * s ** (1 / (1 - pf))


def proof_rule_W(p: PParam, s: int) -> int | None:
    """The W that the lower-bound proof picks for the family with r = s + 1
    types; None where ``poe_lower_bound`` is undefined (Nash, s < 2)."""
    if p.kind == "neg_inf":
        return 2
    if p.kind == "nash":
        if s < 2:
            return None
        return max(1, math.ceil(s / math.log(s)))
    if p._is_one:
        return s * s
    pf = p._float
    if p.value > 0:
        return max(1, math.ceil(pf * s))
    return max(1, math.ceil(s ** (1 / (1 - pf))))


def poe_upper_bound(p: PParam, r: int) -> float:
    """Worst-case price of equity for instances with ``r`` agent types."""
    if r < 2:
        raise ValueError("upper bound requires at least two agent types")
    s = r - 1
    if p.kind == "neg_inf":
        return 1.0
    if p.kind == "nash":
        # the asymptotic form needs s well past e; below that, use the
        # exact supremum of the ratio expression
        if s >= 8:
            return s / math.log(s / math.e)
        return math.exp(lambert_w(s / math.e))
    if p._is_one:
        return 1.0 + s
    if p.value > 0:
        return 1.0 + 2 * s
    pf = p._float
    if p.value <= -1:
        return 2 * s ** (1 / (1 - pf))
    # p in (-1, 0)
    return s ** (1 / (1 - pf)) * 2 ** (-1 / pf) * (-1 / pf) ** (1 / (pf * (pf - 1)))


def lambda_family_poe(p: PParam, W: int, r: int):
    """Exact price of equity of the lower-bound family instance (r, W).

    The welfare-optimal allocation gives value 1 to W agents and W to each
    of the other s = r - 1 agents; the best EQ1 allocation gives value 1 to
    all W + s positive-capacity agents.  Returns an exact Fraction for
    p = 1 and a float otherwise.
    """
    if W < 1 or r < 2:
        raise ValueError("family requires W >= 1 and r >= 2")
    s = r - 1
    if p.kind == "neg_inf":
        return 1.0
    if p.kind == "nash":
        return float(W) ** (s / (W + s))
    if p._is_one:
        return Fraction(W + s * W, W + s)
    pf = p._float
    return ((W + s * float(W) ** pf) / (W + s)) ** (1 / pf)


def poe_formula_submodular(p: PParam, k: int):
    """Price of equity of the two-type matroid family with parameter k.

    Optimal values are (1 x k, k x k); the best EQ1 allocation truncates the
    second type to t = min(2, k), one above the minimum, giving (1 x k, t x k).
    Returns an exact Fraction for p = 1, sqrt(k / t) for Nash, and a float
    otherwise.
    """
    if k < 1:
        raise ValueError("family parameter k must be >= 1")
    t = min(2, k)
    if p.kind == "neg_inf":
        return 1.0
    if p.kind == "nash":
        return math.sqrt(k / t)
    if p._is_one:
        return Fraction(1 + k, 1 + t)
    pf = p._float
    return ((1 + float(k) ** pf) / (1 + float(t) ** pf)) ** (1 / pf)


# ---------------------------------------------------------------------------
# Instance rank
# ---------------------------------------------------------------------------


def rank_of_instance(inst: Instance) -> int:
    """Rank over the rationals of the n x m agent-good value matrix, by
    exact Gaussian elimination.  Binary additive instances only."""
    if not all(isinstance(v, BinaryAdditive) for v in inst.valuations):
        raise ValueError("rank is defined for binary additive instances")
    rows = [[Fraction(x) for x in v.row] for v in inst.valuations]
    rank = 0
    col = 0
    while rank < len(rows) and col < inst.m:
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


# ---------------------------------------------------------------------------
# Bound tables
# ---------------------------------------------------------------------------


@dataclass
class BoundRow:
    p: PParam
    r: int
    lower: float
    upper: float

    @property
    def s(self) -> int:
        return self.r - 1


def bound_table(p_list, r_range) -> list[BoundRow]:
    """Evaluate both bounds on a (p, r) grid; undefined lower bounds (Nash
    with s < 2) are reported as NaN."""
    rows = []
    for p in p_list:
        for r in r_range:
            try:
                lower = poe_lower_bound(p, r)
            except ValueError:
                lower = float("nan")
            rows.append(BoundRow(p=p, r=r, lower=lower, upper=poe_upper_bound(p, r)))
    return rows
