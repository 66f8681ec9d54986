"""Closed-form bound evaluators, the Lambert W helper, and instance rank."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from poe_toolkit.bounds import (
    bound_table,
    lambda_family_poe,
    lambert_w,
    poe_formula_submodular,
    poe_lower_bound,
    poe_upper_bound,
    proof_rule_W,
    rank_of_instance,
)
from poe_toolkit.generators import gen_lower_bound_instance, random_binary_additive
from poe_toolkit.model import BinaryAdditive, Instance
from poe_toolkit.solver import solve
from poe_toolkit.verify import gate_closed_forms, submodular_case
from poe_toolkit.welfare import NASH, NEG_INF, PParam, UTILITARIAN

GRID_PS = (
    UTILITARIAN,
    PParam.real(Fraction(9, 10)),
    PParam.real(Fraction(1, 2)),
    PParam.real(Fraction(1, 10)),
    NASH,
    PParam.real(Fraction(-1, 2)),
    PParam.real(-1),
    PParam.real(-2),
    PParam.real(-10),
)


# ---------------------------------------------------------------------------
# Lambert W
# ---------------------------------------------------------------------------


def test_lambert_w_inverts_xex():
    for w in (0.0, 0.1, 0.5, 1.0, 2.5, 10.0):
        x = w * math.exp(w)
        assert lambert_w(x) == pytest.approx(w, abs=1e-11)


def test_lambert_w_rejects_negative():
    with pytest.raises(ValueError):
        lambert_w(-0.1)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_lower_bound_values():
    assert poe_lower_bound(UTILITARIAN, 5) == 4
    assert poe_lower_bound(PParam.real(-1), 5) == pytest.approx(2 ** -1 * 4 ** 0.5)
    assert poe_lower_bound(PParam.real(-1), 5) == pytest.approx(1.0)
    assert poe_lower_bound(NEG_INF, 7) == 1.0
    assert poe_lower_bound(PParam.real(Fraction(1, 2)), 3) == pytest.approx(1 / math.e)


def test_lower_bound_nash_domain():
    with pytest.raises(ValueError):
        poe_lower_bound(NASH, 2)  # s = 1: ln s vanishes
    assert poe_lower_bound(NASH, 10) == pytest.approx(9 / (math.e * math.log(9)))


def test_lower_bound_clamp():
    # the formula dips below 1 at s = 2 and is reported raw, not clamped
    raw = poe_lower_bound(PParam.real(Fraction(1, 2)), 3)
    assert raw < 1


def test_upper_bound_values():
    assert poe_upper_bound(UTILITARIAN, 5) == 5
    assert poe_upper_bound(PParam.real(-1), 5) == pytest.approx(2 * 4 ** 0.5)
    assert poe_upper_bound(PParam.real(Fraction(1, 2)), 3) == 5
    assert poe_upper_bound(NEG_INF, 12) == 1.0


def test_upper_bound_nash_small_s_uses_exact_supremum():
    for s in range(1, 8):
        expected = math.exp(lambert_w(s / math.e))
        assert poe_upper_bound(NASH, s + 1) == pytest.approx(expected)
    # at the switch point the asymptotic form dominates the supremum
    assert poe_upper_bound(NASH, 9) == pytest.approx(8 / math.log(8 / math.e))
    assert poe_upper_bound(NASH, 9) >= math.exp(lambert_w(8 / math.e))


def test_upper_bound_interval_continuity_at_minus_one():
    just_above = poe_upper_bound(PParam.real(Fraction(-999, 1000)), 6)
    at = poe_upper_bound(PParam.real(-1), 6)
    assert just_above == pytest.approx(at, rel=1e-2)


def test_branch_is_chosen_from_the_exact_p():
    # these p round to the floats 1.0 and -1.0, yet each formula takes the
    # branch of the exact value: p < 1 with no division by 1 - 1.0, and the
    # branch of its own side of -1
    minus_one = PParam.real(-1)
    below_one = PParam.real(1 - Fraction(1, 10**20))
    assert below_one._float == 1.0
    assert [poe_upper_bound(below_one, r) for r in (2, 3)] == [3, 5]
    assert poe_lower_bound(below_one, 4) == pytest.approx(3 / math.e)
    assert proof_rule_W(below_one, 3) == 3
    for got in (lambda_family_poe(below_one, 3, 3), poe_formula_submodular(below_one, 4)):
        assert type(got) is float
    assert lambda_family_poe(below_one, 3, 3) == pytest.approx(1.8)
    assert poe_formula_submodular(below_one, 4) == pytest.approx(5 / 3)
    for tiny in (Fraction(-1, 10**20), Fraction(1, 10**20)):
        p = PParam.real(-1 + tiny)
        assert p._float == -1.0
        assert poe_upper_bound(p, 5) == pytest.approx(poe_upper_bound(minus_one, 5))
        assert poe_lower_bound(p, 5) == pytest.approx(poe_lower_bound(minus_one, 5))
        assert proof_rule_W(p, 4) == proof_rule_W(minus_one, 4)
        assert lambda_family_poe(p, 3, 5) == pytest.approx(lambda_family_poe(minus_one, 3, 5))
        assert poe_formula_submodular(p, 4) == pytest.approx(poe_formula_submodular(minus_one, 4))


def test_grid_lower_le_upper():
    for p in GRID_PS:
        for r in range(2, 65):
            try:
                lower = poe_lower_bound(p, r)
            except ValueError:
                continue
            assert lower <= poe_upper_bound(p, r) + 1e-12, (p, r)


def test_tightness_ratio_monitor():
    # monitored, not asserted: the upper/lower ratio should settle toward a
    # p-dependent constant as r grows; print it for inspection
    for p in GRID_PS:
        ratios = []
        for r in (8, 16, 32, 64):
            try:
                lower = poe_lower_bound(p, r)
            except ValueError:
                continue
            ratios.append(poe_upper_bound(p, r) / lower)
        assert ratios and all(math.isfinite(x) and x > 0 for x in ratios)
        print(f"p={p}: upper/lower at r=8..64 -> " + ", ".join(f"{x:.3f}" for x in ratios))


def test_neg_inf_limit_along_grid():
    # 2^{1/p} s^{1/(1-p)} -> 1 as p -> -infinity
    for r in (3, 17, 64):
        values = [poe_lower_bound(PParam.real(p), r) for p in (-1, -5, -25, -125, -625)]
        assert abs(values[-1] - 1) < 0.05
        assert abs(values[-1] - 1) <= abs(values[0] - 1)


# ---------------------------------------------------------------------------
# family formulas
# ---------------------------------------------------------------------------


def test_lambda_family_exact_cases():
    assert lambda_family_poe(UTILITARIAN, 4, 3) == Fraction(4 + 2 * 4, 4 + 2)
    assert lambda_family_poe(UTILITARIAN, 2, 2) == Fraction(4, 3)
    for s in (2, 3, 4):
        assert lambda_family_poe(UTILITARIAN, s * s, s + 1) == s
    assert lambda_family_poe(NASH, 4, 3) == pytest.approx(4 ** (2 / 6))
    assert lambda_family_poe(NEG_INF, 4, 3) == 1.0


def test_lambda_family_matches_solver(rng):
    for _ in range(10):
        r, W = rng.randint(2, 4), rng.randint(1, 4)
        inst = gen_lower_bound_instance(r, W)
        res = solve(inst, GRID_PS)
        for p in GRID_PS:
            want = lambda_family_poe(p, W, r)
            got = res.poe[p]
            if p == UTILITARIAN:
                assert got == want
            else:
                assert float(got) == pytest.approx(float(want), rel=1e-9)


def test_submodular_formula_values():
    assert poe_formula_submodular(UTILITARIAN, 9) == Fraction(10, 3)
    assert poe_formula_submodular(UTILITARIAN, 9) >= Fraction(9, 3)
    assert poe_formula_submodular(NASH, 8) == pytest.approx(2.0)
    big = poe_formula_submodular(PParam.real(-1), 10**6)
    assert big == pytest.approx(1.5, abs=1e-3)


def test_submodular_formula_matches_solver():
    # at k = 1 the truncation level min(2, k) is 1, so B is A* and the PoE 1
    gate = gate_closed_forms(submodular_case(k) for k in (1, 2, 3, 4))
    assert gate.passed, gate.detail
    assert poe_formula_submodular(UTILITARIAN, 1) == 1


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------


def _rank_mod_p(rows, prime=1_000_003):
    rows = [list(r) for r in rows]
    rank = col = 0
    m = len(rows[0]) if rows else 0
    while rank < len(rows) and col < m:
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] % prime), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, prime)
        rows[rank] = [(x * inv) % prime for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % prime:
                f = rows[i][col]
                rows[i] = [(a - f * b) % prime for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def test_rank_identical_rows():
    inst = Instance([BinaryAdditive([1, 0, 1])] * 3)
    assert rank_of_instance(inst) == 1


def test_rank_family_disjoint_blocks():
    for r, W in ((2, 2), (3, 4), (5, 1)):
        assert rank_of_instance(gen_lower_bound_instance(r, W)) == r


def test_rank_cross_checked_against_prime_field(rng):
    for _ in range(100):
        inst = random_binary_additive(rng, rng.randint(1, 6), rng.randint(1, 8))
        rows = [v.row for v in inst.valuations]
        assert rank_of_instance(inst) == _rank_mod_p(rows)


def test_rank_rejects_matroids():
    from poe_toolkit.generators import random_matroid_gf2

    inst = random_matroid_gf2(random.Random(1), 2, 3)
    with pytest.raises(ValueError):
        rank_of_instance(inst)


# ---------------------------------------------------------------------------
# bound table
# ---------------------------------------------------------------------------


def test_bound_table_rows():
    rows = bound_table([UTILITARIAN, NASH], range(2, 11))
    by = {(str(r.p), r.r): r for r in rows}
    assert by[("1", 10)].lower == 9 and by[("1", 10)].upper == 10
    assert by[("nash", 10)].lower == pytest.approx(9 / (math.e * math.log(9)))
    assert math.isnan(by[("nash", 2)].lower)
    for row in rows:
        if not math.isnan(row.lower):
            assert row.lower <= row.upper + 1e-12
