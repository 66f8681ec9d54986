"""Instance family constructions and the seeded random corpora."""

from __future__ import annotations

import pytest

from poe_toolkit.generators import (
    biregular_parameter_choices,
    example1_instance,
    gen_doubly_normalised,
    gen_lower_bound_instance,
    gen_submodular_lb_instance,
    random_binary_additive,
    random_matroid_gf2,
    remark_3x4_instance,
    unnormalised_2agent_instance,
)
from poe_toolkit.model import validate
from poe_toolkit.welfare import max_positive_count


def test_lower_bound_family_shape():
    inst = gen_lower_bound_instance(2, 2)
    assert (inst.n, inst.m) == (4, 4)
    rows = [v.row for v in inst.valuations]
    assert rows == [(1, 1, 0, 0)] * 3 + [(0, 0, 1, 1)]


def test_lower_bound_family_validates():
    for r, W in ((2, 1), (3, 4), (5, 3)):
        inst = gen_lower_bound_instance(r, W)
        report = validate(inst)
        assert report.W == W and report.r == r and not report.warnings
        assert max_positive_count(inst) == W + r - 1


def test_lower_bound_family_rejects_bad_params():
    with pytest.raises(ValueError):
        gen_lower_bound_instance(1, 2)
    with pytest.raises(ValueError):
        gen_lower_bound_instance(2, 0)


def test_submodular_family_shape():
    inst = gen_submodular_lb_instance(2)
    assert (inst.n, inst.m) == (4, 6)
    assert inst.r == 2
    assert validate(inst).W == 2
    # every group is worth k to the second type
    t2 = inst.valuations[-1]
    for j in range(3):
        assert t2.value(range(2 * j, 2 * j + 2)) == 2
    # only the first group is worth anything to the first type
    t1 = inst.valuations[0]
    assert t1.value(range(0, 2)) == 2
    assert t1.value(range(2, 6)) == 0


def test_doubly_generator_margins():
    inst = gen_doubly_normalised(4, 6, 3, 2, seed=11)
    assert validate(inst).W == 3
    for g in range(6):
        assert sum(v.row[g] for v in inst.valuations) == 2


def test_doubly_generator_seed_determinism():
    a = gen_doubly_normalised(6, 9, 3, 2, seed=5)
    b = gen_doubly_normalised(6, 9, 3, 2, seed=5)
    c = gen_doubly_normalised(6, 9, 3, 2, seed=6)
    assert a.to_json() == b.to_json()
    assert a.to_json() != c.to_json()


def test_doubly_generator_infeasible():
    with pytest.raises(ValueError):
        gen_doubly_normalised(3, 4, 3, 2, seed=0)  # 9 != 8 edges


def test_example1_fixture_structure():
    inst = example1_instance()
    assert (inst.n, inst.m) == (4, 6)
    likes = [frozenset(g for g in range(6) if v.row[g]) for v in inst.valuations]
    assert likes == [
        frozenset({0, 1, 2}),
        frozenset({3, 4, 5}),
        frozenset({1, 2, 3}),
        frozenset({0, 4, 5}),
    ]


def test_remark_fixture_not_column_normalised():
    from poe_toolkit.doubly import is_doubly_normalised

    inst = remark_3x4_instance()
    assert is_doubly_normalised(inst) is None
    assert validate(inst).W == 2


def test_unnormalised_fixture():
    inst = unnormalised_2agent_instance(6)
    assert validate(inst).W is None


def test_random_additive_normalised(rng):
    for _ in range(20):
        n, m = rng.randint(2, 5), rng.randint(2, 8)
        W = rng.randint(1, m)
        inst = random_binary_additive(rng, n, m, W=W)
        assert validate(inst).W == W


def test_random_additive_every_good_valued(rng):
    for _ in range(20):
        n, m = rng.randint(2, 5), rng.randint(2, 8)
        W = rng.randint(max(1, -(-m // n)), m)
        inst = random_binary_additive(rng, n, m, W=W, every_good_valued=True)
        assert not validate(inst).warnings


def test_random_matroid_normalised(rng):
    for _ in range(20):
        n, m = rng.randint(2, 4), rng.randint(2, 6)
        W = rng.randint(1, min(4, m))
        inst = random_matroid_gf2(rng, n, m, W=W)
        assert validate(inst).W == W


def test_biregular_choices_respect_margins():
    for n, m in ((4, 6), (3, 7), (5, 5)):
        for W, W_c in biregular_parameter_choices(n, m):
            assert n * W == m * W_c
