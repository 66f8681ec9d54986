"""Instances, valuations, allocations, and fairness predicates.

Goods are integer indices ``0..m-1``.  Two valuation variants are supported:
binary additive (a 0/1 row over the goods) and GF(2) linear-matroid rank
(the value of a bundle is the GF(2) rank of its column vectors).  Both are
binary submodular by construction, with all marginal gains in {0, 1}.

Inside the package a bundle is a bitmask of goods (bit g set when the bundle
holds good g).  Every valuation carries two facts computed once at
construction: ``grand_value``, r(E), the value of all goods, and
``nonloops``, the mask of goods worth one on their own (the others are
loops).  ``Instance.normalisation`` reads the first, and the exchange search
skips an agent whose bundle has reached it, since that bundle spans every
good.  The second is the agent–good graph, one row of it per agent: the
positive capacity, validation and the doubly normalised routes read it,
and ``Instance.takers`` transposes it, in one C-level pass, into the
columns the exchange search walks: per good, the bitmask of its taker
agents (bit j set when agent j values the good), so agent sets are masks
as bundles are.
Each valuation answers three questions on bundle masks: a basis of a
bundle (the rest of the bundle is its wasted goods), the exchange oracle of
the solver's search (``exchange``, which follows goods entering and leaving
the bundle in place instead of being rebuilt), and the floor primitive
(``coloops``: the bundle's value with the mask of goods whose removal lowers
it); ``value``, on the base class, is the first half of ``coloops``.  A
bundle's *floor*, its value after dropping the good whose removal lowers it
most, is that value less one exactly when the mask is nonzero.  ``is_eq1``,
truncation and ``check_allocation`` (values, EQ, EQ1, and EF and EF1 from
one view of every bundle per valuation object) read it from ``coloops``,
and the oracle from ``floor_table``, which packs the same pair for every
bundle.
A 0/1 row or matrix is checked and packed by one helper, ``_digits``; a
GF(2) valuation can also be built from column masks already packed
(``LinearMatroidGF2.from_col_masks``, as the random samplers build them),
and both ways in end in the same core.
Agent types (``canonical_key``) are read from the same queries: the greedy
basis of all goods and its fundamental circuits.  ``_reduce`` is the one
GF(2) elimination behind all of them.

Everything here but a GF(2) exchange oracle is immutable after construction
and safe to share between concurrent workers; each GF(2) ``exchange`` call
returns a new oracle, owned by its caller, and an additive row is its own
stateless oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence


# ---------------------------------------------------------------------------
# GF(2) helpers (columns and rows are stored as Python int bitmasks)
# ---------------------------------------------------------------------------


def goods_of(mask: int) -> list[int]:
    """The goods of a bitmask bundle, ascending."""
    bits = bin(mask)[:1:-1]  # bit g is character g
    out = []
    g = bits.find("1")
    while g >= 0:
        out.append(g)
        g = bits.find("1", g + 1)
    return out


def _reduce(basis: dict[int, tuple[int, int]], v: int) -> tuple[int, int]:
    """Reduce ``v`` by a basis keyed by leading bit: the residual (0 iff ``v``
    is in the span) and the XOR of the goods masks of the vectors used."""
    goods = 0
    while (entry := basis.get(v.bit_length() - 1)) is not None:
        v ^= entry[0]
        goods ^= entry[1]
    return v, goods


# ---------------------------------------------------------------------------
# Valuations
# ---------------------------------------------------------------------------


class Valuation:
    """Rank-oracle interface; every method takes a bundle as a bitmask."""

    m: int
    grand_value: int  # r(E): the value of all goods, set at construction
    nonloops: int  # the goods worth one on their own (the others are loops), likewise

    def value(self, bundle: int) -> int:
        """The bundle's value, read from ``coloops``."""
        if bundle < 0 or bundle >> self.m:
            raise ValueError(f"bundle mask {bundle:#x} has goods out of range")
        return self.coloops(bundle)[0]

    def basis(self, bundle: int) -> int:
        """A basis of ``bundle`` built greedily from the highest index.  Its
        size is the bundle's value; the bundle goods outside it are the ones
        ``wasted_goods`` reports."""
        raise NotImplementedError

    def exchange(self, bundle: int) -> "BinaryAdditive | _GF2Exchange":
        """The bundle's exchange oracle, built from scratch and kept up to
        date in place while the bundle stays independent.

        Its ``circuit(g)`` maps a good g outside the bundle to None if g
        raises the value, else (for an independent bundle) to the mask of
        goods h with ``bundle - h + g`` independent: g's fundamental circuit
        without g.  ``add(g)`` follows the bundle gaining g and returns
        False, leaving the oracle as it was, when g does not raise the
        value; ``remove(g)`` follows it losing g."""
        raise NotImplementedError

    def coloops(self, bundle: int) -> tuple[int, int]:
        """The bundle's value and the mask of its goods whose removal lowers
        it (the goods in every basis of it); independent or not."""
        raise NotImplementedError

    def canonical_key(self) -> tuple[int, int, tuple[int, ...]]:
        """Representation-independent identity of the valuation function:
        ``(B, rest, circuits)`` with ``B`` the greedy basis of all goods,
        ``rest`` the goods outside ``B`` that are not loops, and the
        fundamental circuit (without the good) of each good of ``rest``,
        ascending.

        The greedy basis, the loops and the fundamental circuits depend only
        on the rank function, and together they fix it: a binary matroid is
        represented over GF(2) by the fundamental-circuit incidence matrix of
        any of its bases.  An additive row keys to ``(nonloops, 0, ())``,
        the key of the free matroid on its valued goods, so keys are
        comparable across variants.
        """
        B = self.basis((1 << self.m) - 1)
        rest = self.nonloops & ~B
        return B, rest, tuple(map(self.exchange(B).circuit, goods_of(rest)))

    def to_json(self) -> dict:
        raise NotImplementedError

    @staticmethod
    def from_json(obj: dict, index: int) -> "Valuation":
        """The valuation a JSON object describes.  Every ``ValueError`` it
        raises starts with ``valuation {index}: ``, its position, the
        constructors' own included; a missing key is named."""

        def a_list(x, what: str) -> list:
            if not isinstance(x, list):
                raise ValueError(f"{what} is not a list")
            return x

        try:
            if not isinstance(obj, dict):
                raise ValueError("each valuation must be a JSON object")
            kind = obj.get("kind")
            try:  # the constructors raise no KeyError
                if kind == "additive":
                    return BinaryAdditive(a_list(obj["row"], "'row'"))
                if kind == "matroid_gf2":
                    for g, col in enumerate(a_list(obj["cols"], "'cols'")):
                        a_list(col, f"column {g}")
                    return LinearMatroidGF2(obj["rows"], obj["cols"])
            except KeyError as key:
                raise ValueError(f"missing key {key}") from None
            raise ValueError(f"unknown valuation kind: {kind!r}")
        except ValueError as exc:
            raise ValueError(f"valuation {index}: {exc}") from None


_BITS = bytes.maketrans(b"01", b"\x00\x01")  # ASCII binary digits -> 0/1 bytes
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")  # and back


def _digits(entries: Sequence[int], message: str) -> bytes:
    """The ASCII binary digits of a 0/1 sequence read backwards (entry g is
    digit g from the right), checked in C-level passes: a type test (bools
    and floats are not entries), ``bytes`` (entries outside 0..255) and a
    0/1 test.  The type test runs first, so unhashable entries raise
    ``ValueError(message)`` too."""
    try:
        if not set(map(type, entries)) <= {int}:
            raise ValueError
        packed = bytes(entries)  # ValueError outside 0..255
        if packed.translate(None, b"\x00\x01"):
            raise ValueError
    except ValueError:
        raise ValueError(message) from None
    return packed[::-1].translate(_DIGITS)


class BinaryAdditive(Valuation):
    """Additive valuation with per-good values in {0, 1}, and its own exchange
    oracle: whatever the bundle, a valued good always adds one and an
    unvalued one replaces nothing, so the row alone answers."""

    def __init__(self, row: Sequence[int]):
        self.row = row = tuple(row)
        self.m = len(row)
        digits = _digits(row, "binary additive row must contain only 0/1 integers")
        self.nonloops = int(digits or b"0", 2)
        self.grand_value = self.nonloops.bit_count()

    def basis(self, bundle: int) -> int:
        return bundle & self.nonloops

    def exchange(self, bundle: int) -> "BinaryAdditive":
        return self

    def circuit(self, g: int) -> int | None:
        return None if (self.nonloops >> g) & 1 else 0

    def add(self, g: int) -> bool:
        return (self.nonloops >> g) & 1 == 1

    def remove(self, g: int) -> None:
        pass

    def coloops(self, bundle: int) -> tuple[int, int]:
        valued = bundle & self.nonloops
        return valued.bit_count(), valued

    def to_json(self) -> dict:
        return {"kind": "additive", "row": list(self.row)}

    def __repr__(self) -> str:
        return f"BinaryAdditive({list(self.row)})"


class LinearMatroidGF2(Valuation):
    """Matroid rank valuation given by a k x m matrix over GF(2).

    ``cols[g]`` is the length-``k`` 0/1 column of good ``g``; the value of a
    bundle is the GF(2) rank of its columns.

    There are two ways in, and both end in one core, ``_set_columns``, which
    takes the column masks (entry t of a column is bit t of its mask) and
    computes ``nonloops`` and ``grand_value`` from them.  The constructor
    checks and packs 0/1 columns in one pass: one length test over the
    columns, ``_digits`` of one flat list of the entries (the whole matrix
    read backwards as ASCII digits, as an additive row is read), and one
    ``int(..., 2)`` per column slice of it.  ``from_col_masks`` takes masks
    already packed and checks their type and range instead.
    """

    def __init__(self, rows: int, cols: Sequence[Sequence[int]]):
        self._check_rows(rows)
        m = len(cols)
        if not set(map(len, cols)) <= {rows}:
            raise ValueError("column length does not match row count")
        entries = list(chain.from_iterable(cols))
        # backwards, the last column comes first with its highest row first
        digits = _digits(entries, "matroid matrix entries must be 0/1 integers")
        backwards = [int(digits[s : s + rows], 2) for s in range(0, m * rows, rows)] if rows else [0] * m
        self._set_columns(rows, tuple(reversed(backwards)))

    @classmethod
    def from_col_masks(cls, rows: int, masks: Iterable[int]) -> "LinearMatroidGF2":
        """The valuation whose column g has mask ``masks[g]`` (entry t of the
        column is bit t), with the row count checked as the constructor
        checks it and every mask an integer in [0, 2^rows)."""
        cls._check_rows(rows)
        masks = tuple(masks)
        if not set(map(type, masks)) <= {int} or (masks and (min(masks) < 0 or max(masks) >> rows)):
            raise ValueError("column masks must be integers in [0, 2**rows)")
        self = cls.__new__(cls)
        self._set_columns(rows, masks)
        return self

    @staticmethod
    def _check_rows(rows: int) -> None:
        if type(rows) is not int or rows < 0:  # bools and floats are not counts
            raise ValueError("row count must be a non-negative integer")

    def _set_columns(self, rows: int, masks: tuple[int, ...]) -> None:
        """The core both ways in share: ``col_masks`` and the facts computed
        once from them, ``nonloops`` and ``grand_value``."""
        self.rows = rows
        self.m = len(masks)
        self.col_masks = masks
        # one 0/1 byte per column, highest good first, read as binary in C
        self.nonloops = int(bytes(map(bool, reversed(masks))).translate(_DIGITS) or b"0", 2)
        # one elimination pass, stopped once the rank reaches the row count
        basis: dict[int, tuple[int, int]] = {}
        for c in masks:
            if len(basis) == rows:
                break
            v = _reduce(basis, c)[0]
            if v:
                basis[v.bit_length() - 1] = (v, 0)
        self.grand_value = len(basis)

    def _basis(self, bundle: int) -> tuple[dict[int, tuple[int, int]], int, int]:
        """Basis of the bundle's span built greedily from the highest index,
        as leading bit -> (vector, basis goods whose columns sum to it); the
        mask of bundle goods left out (each dependent on higher ones); and
        the basis goods on the fundamental circuit of some left-out good."""
        basis: dict[int, tuple[int, int]] = {}
        col_masks = self.col_masks
        skipped = swappable = 0
        while bundle:
            g = bundle.bit_length() - 1
            bundle ^= 1 << g
            v, goods = _reduce(basis, col_masks[g])
            if v:
                basis[v.bit_length() - 1] = (v, goods | (1 << g))
            else:
                skipped |= 1 << g
                swappable |= goods
        return basis, skipped, swappable

    def basis(self, bundle: int) -> int:
        return bundle ^ self._basis(bundle)[1]

    def exchange(self, bundle: int) -> "_GF2Exchange":
        return _GF2Exchange(self._basis(bundle)[0], self.col_masks)

    def coloops(self, bundle: int) -> tuple[int, int]:
        # a basis good outside every fundamental circuit is in every basis
        basis, skipped, swappable = self._basis(bundle)
        return len(basis), bundle & ~(skipped | swappable)

    def to_json(self) -> dict:
        # each column's digits in C, lowest row first; the bit set at
        # ``rows`` keeps the zero rows above the column's highest one
        top = 1 << self.rows
        cols = [list(bin(cm | top)[:2:-1].encode().translate(_BITS)) for cm in self.col_masks]
        return {"kind": "matroid_gf2", "rows": self.rows, "cols": cols}

    def __repr__(self) -> str:
        return f"LinearMatroidGF2(rows={self.rows}, m={self.m})"


class _GF2Exchange:
    """A basis of the bundle's span keyed by leading bit, each vector with
    the bundle goods whose columns sum to it, as ``_basis`` builds it.

    In an independent bundle every good's fundamental circuit is unique, so
    any such basis of the span gives the same ``circuit`` answers; the
    updates keep a basis of the span, not the greedy one."""

    __slots__ = ("basis", "col_masks")

    def __init__(self, basis: dict[int, tuple[int, int]], col_masks: tuple[int, ...]):
        self.basis = basis
        self.col_masks = col_masks

    def circuit(self, g: int) -> int | None:
        v, goods = _reduce(self.basis, self.col_masks[g])
        return None if v else goods

    def add(self, g: int) -> bool:
        v, goods = _reduce(self.basis, self.col_masks[g])
        if v:
            self.basis[v.bit_length() - 1] = (v, goods | (1 << g))
        return v != 0

    def remove(self, g: int) -> None:
        # pivot on the lowest-led vector whose goods hold g: adding it to the
        # others that hold g clears g from them and keeps their leading bits
        # (in any order, since the additions commute)
        basis = self.basis
        holders = [lead for lead, (_, goods) in basis.items() if (goods >> g) & 1]
        lowest = min(holders)
        pivot, pivot_goods = basis.pop(lowest)
        for lead in holders:
            if lead != lowest:
                v, goods = basis[lead]
                basis[lead] = (v ^ pivot, goods ^ pivot_goods)


def floor_table(val: Valuation) -> list[int]:
    """``coloops`` of every bundle, indexed by good bitmask (2^m entries) and
    packed as ``value << 1 | has_coloop``: the floor is the entry's value
    less its low bit."""
    m = val.m
    if isinstance(val, BinaryAdditive):
        nonloops = val.nonloops
        return [((v := (s & nonloops).bit_count()) << 1) | (v > 0) for s in range(1 << m)]
    # LinearMatroidGF2: depth-first include/exclude with an incremental basis;
    # ``covered`` holds the goods left out of the basis with their fundamental
    # circuits, and the bundle goods outside it are its coloops (as in _basis)
    table = [0] * (1 << m)
    basis: dict[int, tuple[int, int]] = {}
    col_masks = val.col_masks

    def visit(g: int, mask: int, rank: int, covered: int) -> None:
        table[mask] = (rank << 1) | (mask & ~covered != 0)
        for h in range(g, m):
            bit = 1 << h
            v, goods = _reduce(basis, col_masks[h])
            if v:
                lead = v.bit_length() - 1
                basis[lead] = (v, goods | bit)
                visit(h + 1, mask | bit, rank + 1, covered)
                del basis[lead]
            else:
                visit(h + 1, mask | bit, rank, covered | goods | bit)

    visit(0, 0, 0, 0)
    return table


# ---------------------------------------------------------------------------
# Instance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Instance:
    """A fair-division instance: n agents, m goods, one valuation per agent."""

    valuations: tuple[Valuation, ...]

    def __init__(self, valuations: Sequence[Valuation]):
        valuations = tuple(valuations)
        if not valuations:
            raise ValueError("instance needs at least one agent")
        m = valuations[0].m
        if any(v.m != m for v in valuations):
            raise ValueError("all valuations must cover the same goods")
        object.__setattr__(self, "valuations", valuations)

    @property
    def n(self) -> int:
        return len(self.valuations)

    @property
    def m(self) -> int:
        return self.valuations[0].m

    @property
    def type_index(self) -> tuple[int, ...]:
        """Agent -> type id; agents with identical valuation functions share a
        type.  Each distinct valuation object is keyed once, in the order its
        first agent appears, so the ids are those of keying every agent."""
        keys: dict[tuple, int] = {}
        type_of = {v: keys.setdefault(v.canonical_key(), len(keys))
                   for v in dict.fromkeys(self.valuations)}
        return tuple(map(type_of.__getitem__, self.valuations))

    @property
    def r(self) -> int:
        """Number of agent types."""
        return max(self.type_index) + 1

    def takers(self) -> list[int]:
        """Good -> the mask of the agents for whom it is worth one on its own
        (bit j = agent j): the agent–good adjacency, read from the valuations'
        ``nonloops``.  One C-level transpose of their digits: the agents'
        rows of m binary digits, highest good first and last agent first,
        are joined into one string, and good g's column, read from it with a
        stride of m from offset m - 1 - g, is the mask's digits, highest
        agent first."""
        m, top = self.m, 1 << self.m
        # the bit set at m keeps a row's leading zeros; [3:] drops it and "0b"
        flat = "".join([bin(v.nonloops | top)[3:] for v in reversed(self.valuations)])
        return [int(flat[s::m], 2) for s in range(m - 1, -1, -1)]

    def normalisation(self) -> int | None:
        """Common grand-bundle value W, or None if not normalised."""
        totals = {v.grand_value for v in self.valuations}
        return totals.pop() if len(totals) == 1 else None

    def to_json(self) -> dict:
        """The instance document.  Each distinct valuation object is encoded
        once, and the agents holding it share that document."""
        docs = {v: v.to_json() for v in dict.fromkeys(self.valuations)}
        return {
            "n": self.n,
            "m": self.m,
            "valuations": [docs[v] for v in self.valuations],
        }

    @staticmethod
    def from_json(obj: dict) -> "Instance":
        if not isinstance(obj, dict) or not isinstance(obj.get("valuations"), list):
            raise ValueError("instance must be a JSON object with a 'valuations' list")
        vals = [Valuation.from_json(v, j) for j, v in enumerate(obj["valuations"])]
        inst = Instance(vals)
        for name, actual, what in (("n", inst.n, "agent"), ("m", inst.m, "good")):
            if name not in obj:
                continue
            if type(obj[name]) is not int:  # bools and floats are not counts
                raise ValueError(f"declared {what} count {obj[name]!r} is not an integer")
            if obj[name] != actual:
                raise ValueError(f"declared {what} count does not match valuations")
        return inst


# ---------------------------------------------------------------------------
# Allocation
# ---------------------------------------------------------------------------


UNASSIGNED = -1


@dataclass(frozen=True)
class Allocation:
    """Assignment of goods to agents; ``owner[g]`` is an agent index or -1."""

    owner: tuple[int, ...]
    n: int

    def __init__(self, owner: Sequence[int], n: int):
        owner = tuple(owner)
        if not set(map(type, owner)) <= {int} or (
            owner and (min(owner) < UNASSIGNED or max(owner) >= n)
        ):
            raise ValueError("owner entries must be integer agent indices or -1")
        object.__setattr__(self, "owner", owner)
        object.__setattr__(self, "n", n)

    @property
    def m(self) -> int:
        return len(self.owner)

    @property
    def is_complete(self) -> bool:
        return UNASSIGNED not in self.owner

    def masks(self, inst: Instance) -> list[int]:
        """Per-agent bundles as bitmasks of goods."""
        if self.m != inst.m:
            raise ValueError(f"allocation covers {self.m} goods, instance has {inst.m}")
        if self.n != inst.n:
            raise ValueError(f"allocation has {self.n} agents, instance has {inst.n}")
        masks = [0] * self.n
        for g, a in enumerate(self.owner):
            if a != UNASSIGNED:
                masks[a] |= 1 << g
        return masks

    def values(self, inst: Instance) -> tuple[int, ...]:
        """Per-agent bundle values."""
        return tuple(v.value(b) for v, b in zip(inst.valuations, self.masks(inst)))

    def to_json(self) -> dict:
        return {"owner": list(self.owner)}

    @staticmethod
    def from_json(obj: dict, n: int, m: int) -> "Allocation":
        if not isinstance(obj, dict) or not isinstance(obj.get("owner"), list):
            raise ValueError("allocation must be a JSON object with an 'owner' list")
        alloc = Allocation(obj["owner"], n)
        if alloc.m != m:
            raise ValueError(f"allocation covers {alloc.m} goods, instance has {m}")
        return alloc


# ---------------------------------------------------------------------------
# Fairness and efficiency predicates
# ---------------------------------------------------------------------------


def _top_floor(pairs: Iterable[tuple[int, int]]) -> int:
    """The largest floor among ``coloops`` pairs: a bundle's value, less one
    when some good's removal lowers it (marginals are binary)."""
    return max(value - (mask != 0) for value, mask in pairs)


def eq1_holds(pairs: Sequence[tuple[int, int]]) -> bool:
    """EQ1 read from every bundle's ``coloops`` pair, in agent order: the
    largest floor is at most the smallest value."""
    return _top_floor(pairs) <= min(value for value, _ in pairs)


def is_eq1(inst: Instance, alloc: Allocation) -> bool:
    """Equitable up to one good: for every pair (i, k) with k's bundle
    nonempty, some good of k can be dropped so that i's value for its own
    bundle is at least k's value for the reduced bundle (``eq1_holds``)."""
    if not alloc.is_complete:
        raise ValueError("predicate requires a complete allocation")
    return eq1_holds([v.coloops(b) for v, b in zip(inst.valuations, alloc.masks(inst))])


def wasted_goods(inst: Instance, alloc: Allocation) -> frozenset[int]:
    """Goods whose removal leaves their owner's value unchanged.

    Scans assigned goods in ascending index; a good reported wasted is
    dropped from the working bundle before later goods are tested, so moving
    every reported good to the pool keeps each owner's value.  An allocation
    is clean iff the result is empty.  The goods that scan keeps form the
    basis of each bundle built greedily from the highest index, so the
    result is every bundle minus that basis.
    """
    wasted = 0
    for v, b in zip(inst.valuations, alloc.masks(inst)):
        wasted |= b ^ v.basis(b)
    return frozenset(goods_of(wasted))


def check_allocation(inst: Instance, alloc: Allocation) -> dict:
    """The ``allocation`` object ``check`` prints: ``complete``, each agent's
    ``values`` of its own bundle and the ``wasted_goods``, ascending; for a
    complete allocation also ``eq`` (all values equal), ``eq1``
    (``eq1_holds``), ``ef`` (envy-free: no agent values another's bundle
    above its own) and ``ef1`` (envy-free up to one good, the envious
    agent's own valuation applied to the reduced bundle: in each agent's
    view, the largest floor is at most its own value).  Each agent reads
    ``coloops`` of its own bundle once, and each distinct valuation object
    reads it of every bundle once more for the envy view, which the agents
    holding that object share."""
    masks = alloc.masks(inst)
    own = [v.coloops(b) for v, b in zip(inst.valuations, masks)]
    values = [value for value, _ in own]
    doc = {
        "complete": alloc.is_complete,
        "values": values,
        "wasted_goods": sorted(wasted_goods(inst, alloc)),
    }
    if alloc.is_complete:
        views = {v: [v.coloops(b) for b in masks] for v in dict.fromkeys(inst.valuations)}
        seen = [(views[v], mine) for v, mine in zip(inst.valuations, values)]
        doc.update(
            eq=len(set(values)) <= 1,
            eq1=eq1_holds(own),
            ef=all(max(value for value, _ in pairs) <= mine for pairs, mine in seen),
            ef1=all(_top_floor(pairs) <= mine for pairs, mine in seen),
        )
    return doc


# ---------------------------------------------------------------------------
# Instance validation
# ---------------------------------------------------------------------------


def validate(inst: Instance) -> dict:
    """The ``instance`` object ``check`` prints: the normalisation constant
    ``W`` ("not normalised" when the grand values differ), the agent-type
    count ``r``, one warning per good valued by no agent, ascending, and
    ``binary_submodular``, always true.  It needs no check: the valuation
    constructors accept only 0/1 rows and 0/1 GF(2) matrices, whose value
    functions are matroid rank functions."""
    unvalued = (1 << inst.m) - 1
    for v in inst.valuations:
        unvalued &= ~v.nonloops
    W = inst.normalisation()
    return {
        "W": W if W is not None else "not normalised",
        "r": inst.r,
        "warnings": [f"good {g} valued by no agent" for g in goods_of(unvalued)],
        "binary_submodular": True,
    }
