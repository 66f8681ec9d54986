"""Instance families: worst-case constructions, fixed fixtures, and seeded
random samplers.

The samplers keep one stream contract: the same seed gives the same
``getrandbits`` draws, so the same instances and the same generator state
afterwards, as one ``randint(0, 1)`` call per 0/1 entry and four
``randrange`` calls per biregular swap.  On CPython 3.10 to 3.13,
``randint(0, 1)`` is ``getrandbits(2)``, drawn again while it is 2 or more,
and ``randrange(n)`` is ``getrandbits(n.bit_length())``, drawn again while
it is n or more; ``_bits`` and the swap loop of ``gen_doubly_normalised``
take those draws directly, without three Python frames per draw.  The 0/1
bytes of ``_bits`` feed both kinds of sampled valuation: additive rows as
lists (``_bit_lists``, which the coverage repair writes into) and GF(2)
columns as masks packed straight from the bytes (``_bit_masks``), so no
per-entry list is built for a matrix.
"""

from __future__ import annotations

import random

from .model import BinaryAdditive, Instance, LinearMatroidGF2


def gen_lower_bound_instance(r: int, W: int) -> Instance:
    """Disjoint-groups family: rW goods in r groups of W; W + 1 agents value
    the first group, one agent each values the others.  Binary additive,
    normalised with constant W; any allocation leaves one first-type agent
    at zero value."""
    if r < 2 or W < 1:
        raise ValueError("family requires r >= 2 and W >= 1")
    m = r * W
    rows = []
    group1 = [1] * W + [0] * (m - W)
    rows.extend([group1] * (W + 1))
    for t in range(1, r):
        row = [0] * m
        for g in range(t * W, (t + 1) * W):
            row[g] = 1
        rows.append(row)
    return Instance([BinaryAdditive(row) for row in rows])


def gen_submodular_lb_instance(k: int) -> Instance:
    """Two-type matroid family: k(k+1) goods in k+1 groups of k.

    Type-1 agents (k of them) see the first group as the standard basis of
    GF(2)^k and everything else as zero vectors; type-2 agents (k of them)
    see every group as the standard basis.  Normalised with W = k."""
    if k < 1:
        raise ValueError("family parameter k must be >= 1")
    m = k * (k + 1)
    t1 = LinearMatroidGF2.from_col_masks(k, [1 << g if g < k else 0 for g in range(m)])
    t2 = LinearMatroidGF2.from_col_masks(k, [1 << (g % k) for g in range(m)])
    return Instance([t1] * k + [t2] * k)


def gen_doubly_normalised(n: int, m: int, W: int, W_c: int, seed: int) -> Instance:
    """Biregular binary additive instance: every row sums to W and every
    column to W_c.  Requires nW = mW_c.  Built from a canonical round-robin
    biregular matrix, then shuffled by margin-preserving 2x2 swaps.  A
    negative seed is refused: ``random.Random`` seeds from its absolute
    value, so it would repeat the draws of its positive twin."""
    if n < 1 or m < 1 or W < 1 or W_c < 1:
        raise ValueError("all parameters must be positive")
    if seed < 0:
        raise ValueError(f"seed {seed} is negative")
    if W > m or W_c > n:
        raise ValueError("degrees cannot exceed the opposite side")
    if n * W != m * W_c:
        raise ValueError(f"infeasible margins: n*W = {n * W} != m*W_c = {m * W_c}")
    matrix = [[0] * m for _ in range(n)]
    for i in range(n):
        for t in range(W):
            matrix[i][(i * W + t) % m] = 1
    # four randrange draws per attempt, inlined (see the module docstring)
    draw = random.Random(seed).getrandbits
    kn, km = n.bit_length(), m.bit_length()
    for _ in range(10 * n * m):
        i = draw(kn)
        while i >= n:
            i = draw(kn)
        j = draw(kn)
        while j >= n:
            j = draw(kn)
        g = draw(km)
        while g >= m:
            g = draw(km)
        h = draw(km)
        while h >= m:
            h = draw(km)
        if i == j or g == h:
            continue
        if matrix[i][g] and matrix[j][h] and not matrix[i][h] and not matrix[j][g]:
            matrix[i][g] = matrix[j][h] = 0
            matrix[i][h] = matrix[j][g] = 1
    return Instance([BinaryAdditive(row) for row in matrix])


def example1_instance() -> Instance:
    """Fixed doubly normalised fixture: 4 agents, 6 goods, W = 3, W_c = 2.

    Agent 1 likes goods {1,2,3}, agent 2 likes {4,5,6}, agent 3 likes
    {2,3,4}, agent 4 likes {1,5,6} (1-based)."""
    rows = [
        [1, 1, 1, 0, 0, 0],
        [0, 0, 0, 1, 1, 1],
        [0, 1, 1, 1, 0, 0],
        [1, 0, 0, 0, 1, 1],
    ]
    return Instance([BinaryAdditive(row) for row in rows])


def remark_3x4_instance() -> Instance:
    """Fixture showing double normalisation is not necessary for a price of
    equity of 1: 3 agents, 4 goods; agent 1 values {1,2}, agents 2 and 3
    both value {3,4}.  Not column-normalised."""
    rows = [
        [1, 1, 0, 0],
        [0, 0, 1, 1],
        [0, 0, 1, 1],
    ]
    return Instance([BinaryAdditive(row) for row in rows])


def unnormalised_2agent_instance(k: int) -> Instance:
    """Two agents, k goods: agent 1 values only the first good, agent 2
    values all k.  Not normalised; its utilitarian price of equity is k/3."""
    if k < 3:
        raise ValueError("needs k >= 3 goods")
    return Instance([
        BinaryAdditive([1] + [0] * (k - 1)),
        BinaryAdditive([1] * k),
    ])


# ---------------------------------------------------------------------------
# Seeded random samplers (for verification corpora and tests)
# ---------------------------------------------------------------------------


def random_binary_additive(
    rng: random.Random,
    n: int,
    m: int,
    *,
    W: int | None = None,
    every_good_valued: bool = False,
) -> Instance:
    """Random binary additive instance.  With ``W`` given, every row has
    exactly W ones (normalised); with ``every_good_valued``, no column is
    all-zero (requires nW >= m when normalised).  A ``W`` that is not an int
    in [0, m] (a bool or a float included) is refused before anything is
    drawn."""
    if W is not None:
        if type(W) is not int or not 0 <= W <= m:
            raise ValueError("W must lie in [0, m]")
        if every_good_valued and n * W < m:
            raise ValueError("cannot value every good: n*W < m")
        matrix = [_row_with_weight(rng, m, W) for _ in range(n)]
        guard = 0
        while every_good_valued:
            empty = [g for g in range(m) if not any(row[g] for row in matrix)]
            if not empty:
                break
            guard += 1
            if guard > 10_000:
                raise RuntimeError("could not repair column coverage")
            g = empty[0]
            i = rng.randrange(n)
            rich = [h for h in range(m) if matrix[i][h] and sum(r[h] for r in matrix) >= 2]
            if not rich:
                continue
            h = rng.choice(rich)
            matrix[i][h], matrix[i][g] = 0, 1
    else:
        matrix = _bit_lists(rng, n, m)
        if every_good_valued:
            for g in range(m):
                if not any(row[g] for row in matrix):
                    matrix[rng.randrange(n)][g] = 1
    return Instance([BinaryAdditive(row) for row in matrix])


# getrandbits(2) keeps the top two bits of one 32-bit word: a top byte below
# 0x40 is a 0, below 0x80 a 1, and the rest are drawn again
_TOP2 = bytes(t >> 6 for t in range(256))
_REDRAW = bytes(range(0x80, 0x100))
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")  # 0/1 bytes -> ASCII binary digits


def _bits(rng: random.Random, count: int) -> bytes:
    """``bytes(rng.randint(0, 1) for _ in range(count))``, with the same draws.

    ``getrandbits(32 * k)`` is k words drawn in turn, the first in the
    lowest 32 bits, so word w's top byte is byte 4w + 3 of its little-endian
    bytes.  Each round takes one word per bit still missing, so it never
    draws a word the loop would not have drawn, and keeps the accepted ones."""
    out = b""
    while len(out) < count:
        need = count - len(out)
        words = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        out += words[3::4].translate(_TOP2, _REDRAW)
    return out


def _bit_lists(rng: random.Random, count: int, length: int) -> list[list[int]]:
    """``count`` lists of ``length`` random 0/1 entries, drawn list by list."""
    bits = list(_bits(rng, count * length))
    return [bits[t * length : (t + 1) * length] for t in range(count)]


def _bit_masks(rng: random.Random, count: int, length: int) -> list[int]:
    """The same draws as ``_bit_lists`` packed as ``count`` masks, entry t of
    a list at bit t of its mask.  The draws read backwards as ASCII digits
    put the last list first, its last entry first, so each mask is one
    ``int(..., 2)`` of a slice.  A length below one draws nothing and gives
    zero masks, so a negative length reaches ``from_col_masks``' check."""
    if length < 1:
        return [0] * count
    digits = _bits(rng, count * length)[::-1].translate(_DIGITS)
    backwards = [int(digits[s : s + length], 2) for s in range(0, count * length, length)]
    return backwards[::-1]


def _row_with_weight(rng: random.Random, m: int, W: int) -> list[int]:
    row = [0] * m
    for g in rng.sample(range(m), W):
        row[g] = 1
    return row


def random_matroid_gf2(
    rng: random.Random,
    n: int,
    m: int,
    *,
    k: int | None = None,
    W: int | None = None,
) -> Instance:
    """Random GF(2) linear-matroid instance.

    With ``W`` given, each agent's matrix has W rows and contains a planted
    identity among its columns, so the grand bundle has rank exactly W
    (normalised).  A ``k`` or ``W`` that is not an int in range (a bool or a
    float included) is refused before anything is drawn."""
    if k is not None:
        LinearMatroidGF2._check_rows(k)
    if W is not None and (type(W) is not int or not 1 <= W <= m):
        raise ValueError("W must lie in [1, m]")

    def one() -> LinearMatroidGF2:
        if W is not None:
            rows = W
            masks = _bit_masks(rng, m, rows)
            for j, g in enumerate(rng.sample(range(m), W)):
                masks[g] = 1 << j
        else:
            rows = k if k is not None else rng.randint(1, max(1, min(4, m)))
            masks = _bit_masks(rng, m, rows)
        return LinearMatroidGF2.from_col_masks(rows, masks)

    return Instance([one() for _ in range(n)])


def biregular_parameter_choices(n: int, m: int) -> list[tuple[int, int]]:
    """Feasible (W, W_c) pairs for an n x m biregular 0/1 matrix."""
    out = []
    for W_c in range(1, n + 1):
        if (m * W_c) % n:
            continue
        W = m * W_c // n
        if 1 <= W <= m:
            out.append((W, W_c))
    return out


def random_biregular(rng: random.Random, max_n: int, max_m: int) -> Instance:
    """Random biregular instance: draw n in [2, max_n] and m in [2, max_m]
    until some (W, W_c) is feasible, then the pair and the shuffle seed."""
    while True:
        n, m = rng.randint(2, max_n), rng.randint(2, max_m)
        choices = biregular_parameter_choices(n, m)
        if choices:
            W, W_c = rng.choice(choices)
            return gen_doubly_normalised(n, m, W, W_c, seed=rng.randrange(1 << 30))
