"""Finite commutative rings with identity, represented by operation tables.

Elements are opaque ids ``0..order-1`` indexing the addition and
multiplication tables.  Id 0 is the ring's zero for every ring built by this
package (externally supplied rings may place zero elsewhere).  All derived
sets (zero divisors, units, annihilators, ideals) are computed exhaustively
from the tables, so every decider downstream has a single code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

# Up to this order associativity and distributivity are decided exhaustively
# through an additive generating set, in O(N^2 log N); larger rings get a
# seeded sample of triples for those laws, which costs far less there (the
# reduction took 71 ms at order 1024, the whole sampled validation 12 ms).
# The O(N^2) axioms are checked in full at every order (see validate_ring).
EXHAUSTIVE_AXIOM_LIMIT = 600
SAMPLED_TRIPLES = 40_000
_SAMPLE_BLOCK = 10_000

# Edge of the square tiles the commutativity check compares; a row block of
# a row-wise reduction holds as many entries as one tile.  Both keep every
# scratch array of a full-table pass near cache size, far below N^2.
_TILE = 512


class RingAxiomError(ValueError):
    """A ring axiom failed; carries the axiom name and a witnessing triple."""

    def __init__(self, axiom: str, witness: tuple[int, ...]):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"ring axiom violated: {axiom}, witness {witness}")


class InternalInvariantError(AssertionError):
    """An invariant the library guarantees internally did not hold."""


def _table_dtype(order: int):
    return np.uint16 if order <= 0xFFFF else np.uint32


class FiniteRing:
    """A finite commutative ring with one, defined by N x N operation tables.

    Attributes:
        order: number of elements N.
        add_table, mul_table: (N, N) integer arrays of element ids.
        zero, one: ids of the additive and multiplicative identities.
        labels: optional display strings, one per element.
        provenance: JSON-able record of how the ring was constructed.
    """

    def __init__(
        self,
        add_table,
        mul_table,
        zero: int,
        one: int,
        labels: Optional[Sequence[str]] = None,
        provenance: Optional[dict] = None,
    ):
        add = np.asarray(add_table)
        mul = np.asarray(mul_table)
        n = add.shape[0]
        dt = _table_dtype(n)
        self.order = int(n)
        self.add_table = np.ascontiguousarray(add, dtype=dt)
        self.mul_table = np.ascontiguousarray(mul, dtype=dt)
        self.zero = int(zero)
        self.one = int(one)
        self.labels = list(labels) if labels is not None else None
        self.provenance = provenance
        self.aux: dict = {}
        self._cache: dict = {}

    # -- element-level operations ------------------------------------------

    def add(self, a: int, b: int) -> int:
        return int(self.add_table[a, b])

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def elements(self) -> range:
        return range(self.order)

    def label(self, a: int) -> str:
        if self.labels is not None:
            return self.labels[a]
        return str(a)

    def __repr__(self) -> str:
        kind = (self.provenance or {}).get("kind", "table")
        return f"FiniteRing(order={self.order}, kind={kind!r})"

    # -- interchange format --------------------------------------------------

    def to_dict(self) -> dict:
        doc = {
            "order": self.order,
            "add": self.add_table.tolist(),
            "mul": self.mul_table.tolist(),
            "zero": self.zero,
            "one": self.one,
        }
        if self.labels is not None:
            doc["labels"] = list(self.labels)
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping) -> "FiniteRing":
        """The validated ring of a table document; ValueError when ``doc``
        does not have the shape ``to_dict`` writes."""
        add, mul = _id_table(doc.get("add")), _id_table(doc.get("mul"))
        zero, one, labels = doc.get("zero"), doc.get("one"), doc.get("labels")
        if not (
            add is not None and mul is not None and isinstance(zero, int) and isinstance(one, int)
            and (labels is None or isinstance(labels, list)
                 and all(isinstance(s, str) for s in labels))
        ):
            raise ValueError("malformed ring document: expected {add: [[int]], "
                             "mul: [[int]], zero: int, one: int, labels?: [str]}")
        return validate_ring(cls(add, mul, zero, one, labels=labels))


def _id_table(value) -> Optional[np.ndarray]:
    """``value`` as a 2-D integer array; None unless it is a list of equally
    long lists of ints."""
    try:
        table = np.array(value) if isinstance(value, list) else None
    except ValueError:  # rows of different lengths
        return None
    return table if table is not None and table.ndim == 2 and table.dtype.kind in "iu" else None


def element_ids(ring: FiniteRing, elems: Iterable[int]) -> np.ndarray:
    """``elems`` as a set of elements of ``ring``: an ascending,
    duplicate-free, read-only int64 id array, the one form every set of
    elements takes.  ValueError for an id outside ``0..order-1``."""
    try:
        ids = np.sort(np.asarray(elems if isinstance(elems, np.ndarray) else list(elems),
                                 dtype=np.int64))
    except OverflowError:
        ids = np.array([-1])
    if len(ids) and not (0 <= ids[0] and ids[-1] < ring.order):
        raise ValueError(f"element id out of range for order {ring.order}")
    # np.unique would import numpy.ma, which costs resident memory
    first = np.ones(len(ids), dtype=bool)
    first[1:] = ids[1:] != ids[:-1]
    return _frozen(ids[first])


def _frozen(ids: np.ndarray) -> np.ndarray:
    """``ids``, ascending and duplicate-free already, made read-only."""
    ids.flags.writeable = False
    return ids


@dataclass(frozen=True, eq=False)
class Ideal:
    """An ideal given by its elements, as :func:`element_ids` returns them,
    plus a generating set."""

    ring: FiniteRing = field(repr=False)
    elements: np.ndarray
    generators: tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self.elements)

    def validate(self) -> None:
        """Re-check the ideal axioms exhaustively (used by property tests)."""
        ring, ids = self.ring, self.elements
        mask = np.zeros(ring.order, dtype=bool)
        mask[ids] = True
        if not mask[ring.zero]:
            raise InternalInvariantError("ideal does not contain zero")
        if not mask[ring.add_table[np.ix_(ids, ids)]].all():
            raise InternalInvariantError("ideal not closed under addition")
        if not mask[ring.mul_table[ids, :]].all():
            raise InternalInvariantError("ideal not closed under ring multiplication")
        if not np.array_equal(ideal_generated(ring, self.generators).elements, ids):
            raise InternalInvariantError("ideal is not the closure of its generators")


# -- validation ---------------------------------------------------------------


def _first_bad(ok: np.ndarray) -> tuple[int, ...]:
    # argwhere returns row-major order, so the first row is the smallest witness
    return tuple(int(x) for x in np.argwhere(~ok)[0])


def _by_rows(table: np.ndarray, reduce) -> np.ndarray:
    """``reduce`` of each block of rows of ``table``, concatenated.

    A block holds about as many entries as one tile, so a row-wise
    reduction of a comparison such as ``(table == x).any(axis=1)`` makes no
    N^2-sized temporary.
    """
    step = max(1, _TILE * _TILE // len(table))
    return np.concatenate([reduce(table[s : s + step]) for s in range(0, len(table), step)])


def _is_symmetric(table: np.ndarray) -> bool:
    """``table == table.T`` everywhere, compared one tile pair at a time."""
    n = len(table)
    for i in range(0, n, _TILE):
        for j in range(i, n, _TILE):
            if not np.array_equal(table[i : i + _TILE, j : j + _TILE],
                                  table[j : j + _TILE, i : i + _TILE].T):
                return False
    return True


def _sampled_triples(n: int) -> Iterator[np.ndarray]:
    """The seeded sample of SAMPLED_TRIPLES triples, as (3, block) arrays of
    the a, b and c ids.

    Drawing block by block continues one generator stream, so the blocks
    concatenate to the single draw ``integers(0, n, size=(SAMPLED_TRIPLES, 3))``.
    """
    rng = np.random.default_rng(n)
    for start in range(0, SAMPLED_TRIPLES, _SAMPLE_BLOCK):
        yield rng.integers(0, n, size=(min(_SAMPLE_BLOCK, SAMPLED_TRIPLES - start), 3)).T


def _additive_generators(ring: FiniteRing) -> list[int]:
    """Ids ``a_1 < a_2 < ...`` such that every element is a left-normed sum
    ``((0 + a_i) + a_j) + ...`` of them (README, "Exhaustive ring laws").

    Each step takes the smallest id not yet reached and closes the reached
    set under ``x -> x + a`` for every generator ``a`` by a frontier walk over
    the addition table.  Every reached id is a reached id plus a generator,
    even on a corrupt table; on a group each generator at least doubles the
    reached subgroup, so there are at most log2(N) of them.
    """
    add = ring.add_table
    reached = np.zeros(ring.order, dtype=bool)
    reached[ring.zero] = True
    gens: list[int] = []
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        frontier = np.flatnonzero(reached)
        while frontier.size:
            fresh = np.zeros(ring.order, dtype=bool)
            fresh[add[np.ix_(frontier, gens)]] = True
            fresh &= ~reached
            reached |= fresh
            frontier = np.flatnonzero(fresh)
    return gens


def _laws_hold(ring: FiniteRing, gens: Sequence[int]) -> bool:
    """Whether addition is associative, multiplication distributes over it
    and is associative, given the O(N^2) axioms and generators as returned
    by :func:`_additive_generators`: Light's test on each generator, then
    distributivity along left-normed sums, then associativity on gens^3."""
    add, mul = ring.add_table, ring.mul_table
    for a in gens:  # (x + a) + y == (y + a) + x, i.e. x + (a + y)
        if not _is_symmetric(add[add[a]]):
            return False
    for a in gens:  # (x + a) * r == x * r + a * r
        if not np.array_equal(mul[add[a]], add[mul, mul[a]]):
            return False
    g = np.asarray(gens, dtype=np.intp)
    ab = mul[np.ix_(g, g)]
    return np.array_equal(mul[ab[:, :, None], g], mul[g[:, None, None], ab[None, :, :]])


def _raise_first_cubic_violation(ring: FiniteRing) -> None:
    """The ordered check of associativity and distributivity: raises
    RingAxiomError with the first violated law of the smallest a, at its
    row-major first (b, c)."""
    add, mul = ring.add_table, ring.mul_table
    for a in range(ring.order):
        ok = add[add[a], :] == add[a][add]
        if not ok.all():
            b, c = _first_bad(ok)
            raise RingAxiomError("add-associativity", (a, b, c))
        ok = mul[mul[a], :] == mul[a][mul]
        if not ok.all():
            b, c = _first_bad(ok)
            raise RingAxiomError("mul-associativity", (a, b, c))
        ok = mul[a][add] == add[np.ix_(mul[a], mul[a])]
        if not ok.all():
            b, c = _first_bad(ok)
            raise RingAxiomError("distributivity", (a, b, c))


def validate_ring(ring: FiniteRing) -> FiniteRing:
    """Check every ring axiom on a FiniteRing.

    All O(N^2) axioms (commutativity, identities, inverses, zero absorption)
    are always checked in full, streamed through cache-sized tiles and row
    blocks, so no check allocates an N^2-sized temporary unless it fails.
    Associativity and distributivity are O(N^3) laws.  Up to
    ``EXHAUSTIVE_AXIOM_LIMIT`` they are decided exhaustively through an
    additive generating set in O(N^2 log N) (README, "Exhaustive ring laws");
    only when that fails does the ordered O(N^3) check run, to name the
    witness.  Above the limit they are checked on a deterministic sample of
    triples.  Raises :class:`RingAxiomError` naming the first violated axiom
    with its row-major first witnessing pair or triple.
    """
    n = ring.order
    add, mul = ring.add_table, ring.mul_table
    zero, one = ring.zero, ring.one
    if add.shape != (n, n) or mul.shape != (n, n):
        raise ValueError(f"tables must be {n}x{n}")
    if int(add.max(initial=0)) >= n or int(mul.max(initial=0)) >= n:
        raise ValueError("table entry out of range")
    if not (0 <= zero < n and 0 <= one < n):
        raise ValueError("zero/one id out of range")
    if ring.labels is not None and len(ring.labels) != n:
        raise ValueError("labels length does not match order")

    idx = np.arange(n)
    if not _is_symmetric(add):
        raise RingAxiomError("add-commutativity", _first_bad(add == add.T))
    ok = add[zero] == idx
    if not ok.all():
        raise RingAxiomError("add-identity", _first_bad(ok))
    ok = _by_rows(add, lambda b: (b == zero).any(axis=1))
    if not ok.all():
        raise RingAxiomError("add-inverse", _first_bad(ok))
    if not _is_symmetric(mul):
        raise RingAxiomError("mul-commutativity", _first_bad(mul == mul.T))
    ok = mul[one] == idx
    if not ok.all():
        raise RingAxiomError("mul-identity", _first_bad(ok))
    ok = mul[zero] == zero
    if not ok.all():
        raise RingAxiomError("zero-absorption", _first_bad(ok))

    if n <= EXHAUSTIVE_AXIOM_LIMIT:
        if not _laws_hold(ring, _additive_generators(ring)):
            _raise_first_cubic_violation(ring)
            raise InternalInvariantError("generator check failed but the ordered check passed")
        return ring
    laws = (
        ("add-associativity", lambda a, b, c: add[add[a, b], c] == add[a, add[b, c]]),
        ("mul-associativity", lambda a, b, c: mul[mul[a, b], c] == mul[a, mul[b, c]]),
        ("distributivity", lambda a, b, c: mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]),
    )
    for axiom, law in laws:
        for a, b, c in _sampled_triples(n):
            ok = law(a, b, c)
            if not ok.all():
                i = int(np.nonzero(~ok)[0][0])
                raise RingAxiomError(axiom, (int(a[i]), int(b[i]), int(c[i])))
    return ring


# -- derived element sets -----------------------------------------------------


def _zero_divisor_mask(ring: FiniteRing) -> np.ndarray:
    mask = ring._cache.get("zd_mask")
    if mask is None:

        def has_nonzero_annihilator(block):
            hits = block == ring.zero
            hits[:, ring.zero] = False
            return hits.any(axis=1)

        mask = ring._cache["zd_mask"] = _by_rows(ring.mul_table, has_nonzero_annihilator)
    return mask


def zero_divisors(ring: FiniteRing) -> np.ndarray:
    """All r with r*s = 0 for some s != 0.  Contains 0 whenever order > 1."""
    return _frozen(np.flatnonzero(_zero_divisor_mask(ring)))


def regular_elements(ring: FiniteRing) -> np.ndarray:
    return _frozen(np.flatnonzero(~_zero_divisor_mask(ring)))


def units(ring: FiniteRing) -> np.ndarray:
    mask = ring._cache.get("unit_mask")
    if mask is None:
        mask = _by_rows(ring.mul_table, lambda b: (b == ring.one).any(axis=1))
        ring._cache["unit_mask"] = mask
        # in a finite commutative ring the units are exactly the regular elements
        if (mask == _zero_divisor_mask(ring)).any():
            raise InternalInvariantError("units != regular elements")
    return _frozen(np.flatnonzero(mask))


def _annihilator_sizes(ring: FiniteRing) -> np.ndarray:
    """|Ann(c)| for every element c: the zeros in row c of the
    multiplication table, which by commutativity is its column c."""
    if "ann_sizes" not in ring._cache:
        ring._cache["ann_sizes"] = _by_rows(ring.mul_table, lambda b: (b == ring.zero).sum(axis=1))
    return ring._cache["ann_sizes"]


def idempotents(ring: FiniteRing) -> np.ndarray:
    return _frozen(np.flatnonzero(ring.mul_table.diagonal() == np.arange(ring.order)))


def annihilator(ring: FiniteRing, subset: Iterable[int]) -> Ideal:
    """Ann(S) = all t with t*s = 0 for every s in S.  Ann({}) is the ring."""
    ids = sorted(set(int(s) for s in subset))
    if not ids:
        return Ideal(ring, _frozen(np.arange(ring.order)), generators=(ring.one,))
    members = _frozen(np.flatnonzero(annihilator_mask(ring, ids)))
    return Ideal(ring, members, generators=tuple(members.tolist()))


def annihilator_mask(ring: FiniteRing, subset: Iterable[int]) -> np.ndarray:
    """Boolean mask form of :func:`annihilator` (no Ideal wrapper).

    Reads table rows rather than columns (multiplication is commutative), so
    the gathers stay contiguous; narrows in chunks and stops once only 0 is
    left.
    """
    ids = [int(s) for s in subset]
    if not ids:
        return np.ones(ring.order, dtype=bool)
    mask = np.ones(ring.order, dtype=bool)
    for start in range(0, len(ids), 32):
        chunk = ids[start : start + 32]
        mask &= (ring.mul_table[chunk, :] == ring.zero).all(axis=0)
        if np.count_nonzero(mask) == 1:
            break
    return mask


def divisor_solutions(ring: FiniteRing, c: int, a: int) -> np.ndarray:
    """All b with c*b = a; empty or a coset of Ann(c)."""
    sols = _frozen(np.flatnonzero(ring.mul_table[c] == a))
    if len(sols):
        n_ann = int((ring.mul_table[c] == ring.zero).sum())
        if len(sols) != n_ann:
            raise InternalInvariantError("solution set is not a coset of Ann(c)")
    return sols


def additive_span(ring: FiniteRing, a_ids: np.ndarray, b_ids: np.ndarray) -> np.ndarray:
    """A + B for additive subgroups A, B (itself a subgroup), as an element set."""
    return _frozen(np.unique(ring.add_table[np.ix_(a_ids, b_ids)]).astype(np.int64))


def ideal_generated(ring: FiniteRing, gens: Iterable[int]) -> Ideal:
    """Closure of ``gens`` under addition and ambient multiplication."""
    gen_ids = tuple(sorted(set(int(g) for g in gens)))
    if not gen_ids:
        return Ideal(ring, element_ids(ring, [ring.zero]), generators=())
    # <g1..gk> = g1*R + ... + gk*R, and a generator already inside adds nothing
    span = _principal(ring, gen_ids[0])
    for g in gen_ids[1:]:
        if not (span == g).any():
            span = additive_span(ring, span, _principal(ring, g))
    return Ideal(ring, span, generators=gen_ids)


def _membership_key(ring: FiniteRing, ids: np.ndarray) -> bytes:
    mask = np.zeros(ring.order, dtype=bool)
    mask[ids] = True
    return np.packbits(mask).tobytes()


def _generator_min(ring: FiniteRing) -> np.ndarray:
    """Entry p is the least u*p over the units u, the smallest generator of
    pR: qR = pR iff q = u*p for a unit u (README, principal-class reduction).
    One min over the unit rows of the table, a block of rows at a time."""
    if "generator_min" not in ring._cache:
        units = np.flatnonzero(~_zero_divisor_mask(ring))
        step = max(1, _TILE * _TILE // ring.order)
        ring._cache["generator_min"] = np.minimum.reduce(
            [ring.mul_table[units[s : s + step]].min(axis=0) for s in range(0, len(units), step)]
        )
    return ring._cache["generator_min"]


def _principal(ring: FiniteRing, p: int) -> np.ndarray:
    """pR as an element set, filled once per class of equal principal
    ideals; read-only, since the ideals built from it share it."""
    table = ring._cache.setdefault("principal", {})
    g = int(_generator_min(ring)[p])
    if g not in table:
        table[g] = _frozen(np.flatnonzero(np.bincount(ring.mul_table[g], minlength=ring.order)))
    return table[g]


def is_principal(ring: FiniteRing, ideal: Ideal) -> Optional[int]:
    """Smallest p with <p> equal to the ideal, or None.  A p in an ideal I
    has pR inside I, and |pR| * |Ann(p)| = |R|, so pR = I iff the sizes
    agree; the one comparison left catches an element set that is no ideal."""
    ids = ideal.elements
    hits = ids[_annihilator_sizes(ring)[ids] * len(ids) == ring.order]
    return int(hits[0]) if len(hits) and np.array_equal(_principal(ring, hits[0]), ids) else None


def ideal_lattice(
    ring: FiniteRing, pool: Iterable[int], max_gens: Optional[int] = None
) -> Iterator[Ideal]:
    """Every distinct ideal generated by a nonempty subset of ``pool``, once.

    Breadth-first by generator count: level k holds the ideals that k pool
    elements generate and no fewer do.  Level 1 is the principal ideals pR in
    ascending p; level k+1 joins each level-k ideal I, in discovery order,
    with every p above the last generator of I in ascending order, as
    I + pR.  Each ideal is yielded once, with ``generators`` the first path
    that reaches it: the lexicographically first among its smallest
    generating subsets of ``pool`` (README, algorithm notes).  ``max_gens``
    stops after that many levels.
    """
    reps: list[tuple[int, np.ndarray]] = []  # smallest p of each distinct pR
    seen: set[bytes] = set()
    classes: set[int] = set()
    level = []
    least = _generator_min(ring)
    for p in sorted(set(int(x) for x in pool)):
        if int(least[p]) in classes:
            continue  # I + pR = I + qR for the earlier q with qR = pR
        classes.add(int(least[p]))
        ids = _principal(ring, p)
        seen.add(_membership_key(ring, ids))
        reps.append((p, ids))
        level.append((ids, (p,)))
        yield Ideal(ring, ids, generators=(p,))
    while level and (max_gens is None or len(level[0][1]) < max_gens):
        parents, level = level, []
        for ids, path in parents:
            members = np.zeros(ring.order, dtype=bool)
            members[ids] = True
            for p, pr in reps:
                if p <= path[-1] or members[p]:
                    continue
                joined = additive_span(ring, ids, pr)
                key = _membership_key(ring, joined)
                if key in seen:
                    continue
                seen.add(key)
                level.append((joined, path + (p,)))
                yield Ideal(ring, joined, generators=path + (p,))


# -- subrings -----------------------------------------------------------------


def subring(ring: FiniteRing, elems: Iterable[int]) -> tuple[FiniteRing, list[int]]:
    """Extract the subring on ``elems`` (must contain 0, 1 and be closed).

    Returns the re-indexed ring and the embedding list (new id -> old id).
    The new ring keeps id 0 = zero by sorting, since ambient id 0 is zero in
    construction-convention rings; for foreign rings zero lands wherever the
    sort puts it and the explicit zero/one fields track it.
    """
    old = sorted(set(int(e) for e in elems))
    pos = {o: i for i, o in enumerate(old)}
    if ring.zero not in pos or ring.one not in pos:
        raise ValueError("subring must contain zero and one")
    ids = np.fromiter(old, dtype=np.int64)
    sub_add = ring.add_table[np.ix_(ids, ids)]
    sub_mul = ring.mul_table[np.ix_(ids, ids)]
    for table, opname in ((sub_add, "addition"), (sub_mul, "multiplication")):
        if not np.isin(table, ids).all():
            raise ValueError(f"subset not closed under {opname}")
    remap = np.zeros(ring.order, dtype=np.int64)
    remap[ids] = np.arange(len(old))
    labels = [ring.label(o) for o in old] if ring.labels is not None else None
    out = FiniteRing(
        remap[sub_add],
        remap[sub_mul],
        pos[ring.zero],
        pos[ring.one],
        labels=labels,
        provenance={"kind": "subring"},
    )
    return out, old
