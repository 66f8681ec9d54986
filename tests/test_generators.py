"""Instance family constructions and the seeded random corpora."""

from __future__ import annotations

import random

import pytest

from poe_toolkit.generators import (
    _bits,
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
from poe_toolkit.model import BinaryAdditive, Instance, LinearMatroidGF2, validate
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
        assert report["W"] == W and report["r"] == r and not report["warnings"]
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
    assert validate(inst)["W"] == 2
    # every group is worth k to the second type
    t2 = inst.valuations[-1]
    for j in range(3):
        assert t2.value(0b11 << 2 * j) == 2
    # only the first group is worth anything to the first type
    t1 = inst.valuations[0]
    assert t1.value(0b000011) == 2
    assert t1.value(0b111100) == 0


def test_doubly_generator_margins():
    inst = gen_doubly_normalised(4, 6, 3, 2, seed=11)
    assert validate(inst)["W"] == 3
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
    from poe_toolkit.doubly import doubly_degrees

    inst = remark_3x4_instance()
    with pytest.raises(ValueError, match="not doubly normalised"):
        doubly_degrees(inst)
    assert validate(inst)["W"] == 2


def test_unnormalised_fixture():
    inst = unnormalised_2agent_instance(6)
    assert validate(inst)["W"] == "not normalised"


def test_random_additive_normalised(rng):
    for _ in range(20):
        n, m = rng.randint(2, 5), rng.randint(2, 8)
        W = rng.randint(1, m)
        inst = random_binary_additive(rng, n, m, W=W)
        assert validate(inst)["W"] == W


def test_random_additive_every_good_valued(rng):
    for _ in range(20):
        n, m = rng.randint(2, 5), rng.randint(2, 8)
        W = rng.randint(max(1, -(-m // n)), m)
        inst = random_binary_additive(rng, n, m, W=W, every_good_valued=True)
        assert not validate(inst)["warnings"]


def test_random_matroid_normalised(rng):
    for _ in range(20):
        n, m = rng.randint(2, 4), rng.randint(2, 6)
        W = rng.randint(1, min(4, m))
        inst = random_matroid_gf2(rng, n, m, W=W)
        assert validate(inst)["W"] == W


def test_random_matroid_rejects_bad_shapes():
    # the argument checks run before anything is drawn: a bool or a float is
    # not a count, and a refused call leaves the generator where it was
    rows = "row count must be a non-negative integer"
    for kw, message in (({"k": -1}, rows), ({"k": 1.5}, rows), ({"k": True}, rows),
                        ({"k": False}, rows), ({"k": 2.0}, rows),
                        ({"W": 0}, "W must lie in [1, m]"),
                        ({"W": 4}, "W must lie in [1, m]"),
                        ({"W": 1.5}, "W must lie in [1, m]"),
                        ({"W": True}, "W must lie in [1, m]"),
                        ({"W": 2.0}, "W must lie in [1, m]")):
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(ValueError) as exc:
            random_matroid_gf2(rng, 2, 3, **kw)
        assert str(exc.value) == message, kw
        assert rng.getstate() == state, kw


def test_random_additive_rejects_bad_W():
    # as for the matroid sampler: W is checked before anything is drawn, a
    # bool or a float is not a count, and the generator stays where it was
    for W in (-1, 4, 1.5, True, False, 2.0):
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(ValueError) as exc:
            random_binary_additive(rng, 2, 3, W=W)
        assert str(exc.value) == "W must lie in [0, m]", W
        assert rng.getstate() == state, W


def test_biregular_choices_respect_margins():
    for n, m in ((4, 6), (3, 7), (5, 5)):
        for W, W_c in biregular_parameter_choices(n, m):
            assert n * W == m * W_c


# ---------------------------------------------------------------------------
# Stream identity: the samplers draw what randint/randrange would
# ---------------------------------------------------------------------------


def reference_matroid_gf2(rng, n, m, *, k=None, W=None):
    """``random_matroid_gf2`` with one ``randint(0, 1)`` call per entry."""

    def one():
        if W is not None:
            rows = W
            cols = [[rng.randint(0, 1) for _ in range(rows)] for _ in range(m)]
            for j, g in enumerate(rng.sample(range(m), W)):
                cols[g] = [1 if t == j else 0 for t in range(rows)]
        else:
            rows = k if k is not None else rng.randint(1, max(1, min(4, m)))
            cols = [[rng.randint(0, 1) for _ in range(rows)] for _ in range(m)]
        return LinearMatroidGF2(rows, cols)

    return Instance([one() for _ in range(n)])


def reference_binary_additive_free(rng, n, m, *, every_good_valued=False):
    """The free branch of ``random_binary_additive``, one call per entry."""
    matrix = [[rng.randint(0, 1) for _ in range(m)] for _ in range(n)]
    if every_good_valued:
        for g in range(m):
            if not any(row[g] for row in matrix):
                matrix[rng.randrange(n)][g] = 1
    return Instance([BinaryAdditive(row) for row in matrix])


def reference_doubly_normalised(n, m, W, W_c, seed):
    """``gen_doubly_normalised`` with four ``randrange`` calls per swap."""
    matrix = [[0] * m for _ in range(n)]
    for i in range(n):
        for t in range(W):
            matrix[i][(i * W + t) % m] = 1
    rng = random.Random(seed)
    for _ in range(10 * n * m):
        i, j = rng.randrange(n), rng.randrange(n)
        g, h = rng.randrange(m), rng.randrange(m)
        if i == j or g == h:
            continue
        if matrix[i][g] and matrix[j][h] and not matrix[i][h] and not matrix[j][g]:
            matrix[i][g] = matrix[j][h] = 0
            matrix[i][h] = matrix[j][g] = 1
    return Instance([BinaryAdditive(row) for row in matrix])


def test_bits_match_randint_draw_for_draw():
    for s in range(200):
        for count in (0, 1, 2, 3, 31, 32, 33, 200):
            fast, ref = random.Random(s), random.Random(s)
            assert list(_bits(fast, count)) == [ref.randint(0, 1) for _ in range(count)]
            assert fast.getstate() == ref.getstate()


def test_samplers_match_reference_streams():
    shapes = random.Random(0x5EED)
    corners = [(1, 1), (1, 6), (6, 1), (2, 1), (1, 2)]
    for s in range(400):
        n, m = corners[s] if s < len(corners) else (shapes.randint(1, 6), shapes.randint(1, 9))
        for kw in ({}, {"W": shapes.randint(1, m)}, {"k": shapes.randint(0, 5)}):
            fast, ref = random.Random(s), random.Random(s)
            got = random_matroid_gf2(fast, n, m, **kw)
            want = reference_matroid_gf2(ref, n, m, **kw)
            assert got.to_json() == want.to_json(), (s, n, m, kw)
            assert fast.getstate() == ref.getstate(), (s, n, m, kw)
        for every in (False, True):
            fast, ref = random.Random(s), random.Random(s)
            got = random_binary_additive(fast, n, m, every_good_valued=every)
            want = reference_binary_additive_free(ref, n, m, every_good_valued=every)
            assert got.to_json() == want.to_json(), (s, n, m, every)
            assert fast.getstate() == ref.getstate(), (s, n, m, every)


def test_doubly_sampler_matches_reference_swaps():
    # n and m on both sides of a power of two: randrange redraws often
    for n, m in ((1, 1), (2, 2), (3, 6), (4, 6), (5, 5), (8, 12), (9, 6), (16, 24), (17, 17)):
        for W, W_c in biregular_parameter_choices(n, m):
            for seed in (0, 1, 7):
                got = gen_doubly_normalised(n, m, W, W_c, seed=seed)
                assert got.to_json() == reference_doubly_normalised(n, m, W, W_c, seed).to_json()


def test_samplers_draw_no_per_entry_randint():
    # the entries come from getrandbits: a randint or randrange call per
    # entry would be counted here
    class Counting(random.Random):
        calls = 0

        def randint(self, a, b):
            self.calls += 1
            return super().randint(a, b)

        def randrange(self, *args):
            self.calls += 1
            return super().randrange(*args)

    for make, kw in ((random_matroid_gf2, {"k": 5}), (random_matroid_gf2, {"W": 3}), (random_binary_additive, {})):
        rng = Counting(1)
        make(rng, 4, 30, **kw)
        assert rng.calls == 0, (make.__name__, kw)
