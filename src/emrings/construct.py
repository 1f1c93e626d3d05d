"""Constructors that materialize rings as operation tables.

Every constructor compiles its structured presentation (residue arithmetic,
coefficient vectors, pair semantics, fraction classes) down to full tables at
build time, so the analysis layer never special-cases a backend.  Rings of
order above ``max_order`` are refused up front because everything downstream
is exhaustive.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .rings import FiniteRing, InternalInvariantError, _table_dtype

DEFAULT_MAX_ORDER = 4096


class OrderCapError(ValueError):
    """Requested ring would exceed the configured order cap.  ``order`` is
    the order, or the power ``"b^k"`` that gives it when it is too large to
    write out."""

    def __init__(self, order: int | str, cap: int):
        super().__init__(
            f"refusing to materialize ring of order {order} (cap {cap}); "
            "raise max_order to allow it"
        )
        self.order = order
        self.cap = cap


def _check_cap(order: int, cap: int) -> None:
    if order > cap:
        raise OrderCapError(order, cap)


def _check_power_cap(base: int, exp: int, cap: int) -> None:
    """Refuse a ring of order ``base**exp`` above ``cap``, and any basis of
    ``cap.bit_length()`` or more elements whatever the base order (over
    Z_1 the order stays 1 as the table grows), before the exp x exp
    basis-product table is built; the power is only formed below that."""
    if exp >= cap.bit_length():
        raise OrderCapError(f"{base}^{exp} (a basis of {exp} elements)", cap)
    _check_cap(base**exp, cap)


def _decode_all(radices: Sequence[int]) -> np.ndarray:
    """(N, k) array of little-endian digit vectors for all mixed-radix ids."""
    n = int(np.prod(radices)) if len(radices) else 1
    coords = np.empty((n, len(radices)), dtype=np.int64)
    rest = np.arange(n, dtype=np.int64)
    for i, r in enumerate(radices):
        coords[:, i] = rest % r
        rest //= r
    return coords


def _weights(radices: Sequence[int]) -> list[int]:
    """Place value of each little-endian digit, plus the order at the end."""
    weights = [1]
    for r in radices:
        weights.append(weights[-1] * int(r))
    return weights


# Scratch bound of one row block in _digit_tables, in bytes per array.
_BLOCK_BYTES = 1 << 20

# Scratch bound of one _gather chunk (flat index and gathered values), in bytes.
_GATHER_BYTES = _BLOCK_BYTES // 2
_INTP_BYTES = np.dtype(np.intp).itemsize

# Shortest contiguous run, in elements, over which _digit_tables adds a term.
_RUN = 256


def _gather(table: np.ndarray, x, y) -> np.ndarray:
    """``table[x, y]`` for broadcast index arrays, gathered from the raveled
    table in row chunks.  The flat index ``x * r + y`` is formed in intp (in
    the table's uint16 it would wrap once r^2 > 65535), one chunk at a time,
    and a chunk's index and gathered values hold at most ``_GATHER_BYTES``
    together."""
    flat, width = table.ravel(), table.shape[1]
    chunk = max(1, _GATHER_BYTES // (_INTP_BYTES + table.itemsize))
    # |x| * |y| bounds the broadcast size and is cheaper to take
    both = None if getattr(x, "size", 1) * getattr(y, "size", 1) <= chunk else np.broadcast(x, y)
    if both is None or both.size <= chunk:
        return flat.take(np.multiply(x, width, dtype=np.intp) + y)
    # fix leading axes until the rest fits in a chunk, then step along the
    # last one fixed
    shape, axis, inner = both.shape, 0, both.size
    while inner > chunk:
        inner //= shape[axis]
        axis += 1
    step = max(1, chunk // inner)
    x, y = (np.reshape(v, (1,) * (len(shape) - np.ndim(v)) + np.shape(v)) for v in (x, y))
    out = np.empty(shape, dtype=table.dtype)
    for lead in np.ndindex(*shape[: axis - 1]):
        for start in range(0, shape[axis - 1], step):
            sl = (*(slice(i, i + 1) for i in lead), slice(start, start + step))
            part = out[sl]
            # each operand is sliced on the axes it spans, so a small one
            # stays small
            xs, ys = (v[tuple(s if n > 1 else slice(None) for s, n in zip(sl, v.shape))]
                      for v in (x, y))
            idx = np.multiply(xs, width, dtype=np.intp)
            idx = np.add(idx, ys, out=idx if idx.size == part.size else None)
            # digits lie below their radix, so no index is out of range and
            # "clip" only lets take write into part without a buffer
            flat.take(idx, out=part, mode="clip")
    return out


def _digit_tables(
    radices: Sequence[int],
    add_digits: Callable[[list, list], list],
    mul_digits: Callable[[list, list], list],
) -> tuple[np.ndarray, np.ndarray]:
    """Add and mul tables of a ring whose operations act digit by digit.

    Element ids are little-endian mixed-radix digit vectors over ``radices``.
    ``add_digits(a, b)`` and ``mul_digits(a, b)`` return, for every digit k,
    digit k of the sum or product as an array broadcast over the digit index
    arrays ``a`` and ``b`` (entries of ``a`` may be plain ints).  Each digit
    is below its radix, so ``id = sum_k w_k d_k`` never carries, and each
    output digit, scaled by its place value ``w_k``, is added by broadcasting
    into a C-order digit view of the table.

    Rows go in blocks that fix the fewest leading (most significant) row
    digits for which one block of the table holds at most ``_BLOCK_BYTES``
    (1 MiB).  Every digit array of a block is at most block-sized, and
    ``_gather`` forms its flat intp index in chunks of at most
    ``_GATHER_BYTES`` (512 KiB); a handful are alive at once, and nothing of
    size order^2 is allocated apart from the two tables.

    Each scaled term is written into one block-sized scratch buffer, spread
    over the fewest least significant column digits that hold ``_RUN``
    (256) elements together, or over all column digits in a smaller ring.
    The view is contiguous over those axes, so adding the spread term runs
    inner loops of at least ``_RUN`` elements, where a term that skips the
    lowest column digit would run inner loops of one radix.  The first term
    of a block is assigned, not added, so no table page is read before it
    is written.
    """
    m = len(radices)
    weights = _weights(radices)
    order = weights[-1]
    dt = np.dtype(_table_dtype(order))
    free = m
    while free > 0 and weights[free] * order * dt.itemsize > _BLOCK_BYTES:
        free -= 1
    rows = weights[free]
    # axes of a block view: free row digits, then all column digits, most
    # significant first
    shape = [radices[k] for k in reversed(range(free))] + [
        radices[k] for k in reversed(range(m))
    ]
    low = next((k for k in range(m) if weights[k] >= _RUN), m)
    lead, tail = len(shape) - low, tuple(shape[len(shape) - low :])

    def digit_axis(axis: int, radix: int) -> np.ndarray:
        dims = [1] * len(shape)
        dims[axis] = radix
        return np.arange(radix).reshape(dims)

    a_free = [digit_axis(free - 1 - k, radices[k]) for k in range(free)]
    b = [digit_axis(free + m - 1 - k, radices[k]) for k in range(m)]
    scale = [dt.type(w) for w in weights[:m]]
    add = np.empty((order, order), dtype=dt)
    mul = np.empty((order, order), dtype=dt)
    scratch = np.empty(rows * order, dtype=dt)
    for start in range(0, order, rows):
        a = a_free + [(start // weights[k]) % radices[k] for k in range(free, m)]
        for table, digits in ((add, add_digits), (mul, mul_digits)):
            view = table[start : start + rows].reshape(shape)
            for k, (w, d) in enumerate(zip(scale, digits(a, b))):
                run = np.shape(d)[:lead] + tail
                term = scratch[: math.prod(run)].reshape(run)
                np.multiply(d, w, out=term)
                if k:
                    view += term
                else:
                    view[...] = term
    return add, mul


def _digit_labels(terms: Sequence[Sequence], join: Callable[[tuple], str]) -> list[str]:
    """Labels in id order of the mixed-radix elements whose digit k has the
    display term ``terms[k][c]`` at value c; ``join`` gets one term per
    digit, least significant first."""
    return [join(combo[::-1]) for combo in itertools.product(*terms[::-1])]


def _sum_label(terms: Sequence[Optional[str]]) -> str:
    """Sum of the coefficient terms that are not None (zero coefficients)."""
    present = [t for t in terms if t is not None]
    return " + ".join(present) if present else "0"


def _tuple_label(parts: Sequence[str]) -> str:
    return "(" + ",".join(parts) + ")"


def _coeff_label(coeff: str, basis: str) -> str:
    if basis == "1":
        return coeff
    if coeff == "1":
        return basis
    if "+" in coeff or "/" in coeff:
        return f"({coeff}){basis}"
    return f"{coeff}{basis}"


# -- cyclic rings ---------------------------------------------------------------


def cyclic(n: int, max_order: int = DEFAULT_MAX_ORDER) -> FiniteRing:
    """The ring Z_n with element i at index i (n = 1 gives the zero ring)."""
    if n < 1:
        raise ValueError("cyclic ring needs n >= 1")
    _check_cap(n, max_order)
    dt = _table_dtype(n)
    add = np.empty((n, n), dtype=dt)
    mul = np.empty((n, n), dtype=dt)
    idx = np.arange(n, dtype=np.int64)
    # int64 row blocks of at most _BLOCK_BYTES, reduced straight into the tables
    rows = max(1, _BLOCK_BYTES // (n * idx.itemsize))
    for start in range(0, n, rows):
        i = idx[start : start + rows, None]
        np.remainder(i + idx, n, out=add[start : start + rows], casting="unsafe")
        np.remainder(i * idx, n, out=mul[start : start + rows], casting="unsafe")
    return FiniteRing(
        add,
        mul,
        zero=0,
        one=1 % n,
        labels=[str(i) for i in range(n)],
        provenance={"kind": "cyclic", "n": n},
    )


# -- coefficient-vector rings over a base ring ----------------------------------


def _vector_ring(
    base: FiniteRing,
    struct: np.ndarray,
    basis_labels: Sequence[str],
    provenance: dict,
    labels: Optional[list[str]] = None,
) -> FiniteRing:
    """Ring on coefficient vectors over ``base`` with basis products ``struct``.

    ``struct[i, j]`` is the basis index of the product of basis monomials i
    and j, or -1 when that product is 0 in the quotient.  Multiplication is
    the induced bilinear map; addition is componentwise.  Callers refuse
    ``base.order ** nb > max_order`` before they build ``struct``.  Element
    labels are ``labels`` when given, else sums of coefficient terms.
    """
    nb = len(basis_labels)
    radices = [base.order] * nb
    badd, bmul = base.add_table, base.mul_table
    pairs = [
        [(i, j) for i in range(nb) for j in range(nb) if struct[i, j] == k]
        for k in range(nb)
    ]

    def add_digits(a: list, b: list) -> list:
        return [_gather(badd, a[k], b[k]) for k in range(nb)]

    def mul_digits(a: list, b: list) -> list:
        out = []
        for k in range(nb):
            acc = base.zero
            for i, j in pairs[k]:
                acc = _gather(badd, acc, _gather(bmul, a[i], b[j]))
            out.append(acc)
        return out

    add, mul = _digit_tables(radices, add_digits, mul_digits)
    weights = _weights(radices)
    if labels is None and base.labels is not None:
        coeffs = [base.label(c) for c in range(base.order)]
        terms = [
            [
                None if c == base.zero else _coeff_label(coeff, basis)
                for c, coeff in enumerate(coeffs)
            ]
            for basis in basis_labels
        ]
        labels = _digit_labels(terms, _sum_label)
    ring = FiniteRing(
        add,
        mul,
        zero=base.zero * sum(weights[:nb]),
        one=base.one + base.zero * sum(weights[1:nb]),
        labels=labels,
        provenance=provenance,
    )
    ring.aux["base"] = base
    ring.aux["radices"] = radices
    return ring


def poly_quotient_xn(
    base: FiniteRing,
    n: int,
    var: str = "x",
    max_order: int = DEFAULT_MAX_ORDER,
) -> FiniteRing:
    """R[x]/(x^n): coefficient vectors (a_0 .. a_{n-1}) with truncation at x^n."""
    if n < 2:
        raise ValueError("poly_quotient_xn needs n >= 2")
    _check_power_cap(base.order, n, max_order)
    struct = np.array(
        [[i + j if i + j < n else -1 for j in range(n)] for i in range(n)],
        dtype=np.int64,
    )
    basis_labels = ["1"] + [var if k == 1 else f"{var}^{k}" for k in range(1, n)]
    prov = {
        "kind": "polyQuotientXn",
        "base": base.provenance,
        "n": n,
        "var": var,
        "base_order": base.order,
    }
    return _vector_ring(base, struct, basis_labels, prov)


def _monomial_divides(divisor: Sequence[int], mono: Sequence[int]) -> bool:
    return all(d <= m for d, m in zip(divisor, mono))


def monomial_basis(
    nvars: int, relations: Sequence[Sequence[int]], degree: int
) -> Iterator[tuple[int, ...]]:
    """Monomials of total degree <= degree not divisible by any relation, by
    degree and then with earlier variables first (1, x, y, x^2, xy, y^2, ...).

    The multisets of variable indices of one degree come lexicographically
    out of ``combinations_with_replacement``, which is descending order of
    their exponent vectors."""
    for k in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(nvars), k):
            mono = [0] * nvars
            for i in combo:
                mono[i] += 1
            if not any(_monomial_divides(r, mono) for r in relations):
                yield tuple(mono)


def _monomial_label(mono: Sequence[int], varnames: Sequence[str]) -> str:
    parts = []
    for e, v in zip(mono, varnames):
        if e == 1:
            parts.append(v)
        elif e > 1:
            parts.append(f"{v}^{e}")
    return "".join(parts) if parts else "1"


def monomial_quotient(
    m: int,
    nvars: int,
    relations: Sequence[Sequence[int]],
    degree: int,
    varnames: Optional[Sequence[str]] = None,
    max_order: int = DEFAULT_MAX_ORDER,
) -> FiniteRing:
    """Z_m[x_1..x_v] modulo monomial relations and all degrees > ``degree``.

    Relations are exponent vectors.  The result is the finite degree
    truncation, so reports downstream must carry the truncation degree.
    """
    if nvars < 1:
        raise ValueError("monomial_quotient needs at least one variable")
    if degree < 0:
        raise ValueError("truncation degree must be >= 0")
    rels = [tuple(int(e) for e in r) for r in relations]
    for r in rels:
        if len(r) != nvars or any(e < 0 for e in r):
            raise ValueError(f"relation {r} is not a monomial in {nvars} variables")
    if varnames is None:
        varnames = ["x", "y", "z"][:nvars] if nvars <= 3 else [f"x{i+1}" for i in range(nvars)]
    base = cyclic(m, max_order=max_order)
    basis = []
    for mono in monomial_basis(nvars, rels, degree):
        basis.append(mono)
        _check_power_cap(m, len(basis), max_order)
    bidx = {e: k for k, e in enumerate(basis)}
    nb = len(basis)
    struct = np.full((nb, nb), -1, dtype=np.int64)
    for i, ei in enumerate(basis):
        for j, ej in enumerate(basis):
            s = tuple(x + y for x, y in zip(ei, ej))
            if sum(s) <= degree and not any(_monomial_divides(r, s) for r in rels):
                struct[i, j] = bidx[s]
    prov = {
        "kind": "monomialQuotient",
        "m": m,
        "v": nvars,
        "relations": [list(r) for r in rels],
        "d": degree,
        "varnames": list(varnames),
    }
    ring = _vector_ring(base, struct, [_monomial_label(e, varnames) for e in basis], prov)
    ring.aux["basis_monomials"] = basis
    return ring


def idealization(base: FiniteRing, max_order: int = DEFAULT_MAX_ORDER) -> FiniteRing:
    """R(+)R on pairs (r, m) with (r1,m1)(r2,m2) = (r1 r2, r1 m2 + r2 m1)."""
    _check_power_cap(base.order, 2, max_order)
    struct = np.array([[0, 1], [1, -1]], dtype=np.int64)
    prov = {"kind": "idealization", "base": base.provenance, "base_order": base.order}
    labels = None
    if base.labels is not None:
        labels = _digit_labels([[base.label(c) for c in range(base.order)]] * 2, _tuple_label)
    return _vector_ring(base, struct, ["1", "ε"], prov, labels=labels)


def group_ring(
    base: FiniteRing,
    moduli: Sequence[int],
    max_order: int = DEFAULT_MAX_ORDER,
) -> FiniteRing:
    """R[G] for the finite abelian group G = Z_m1 x ... x Z_mk.

    Elements are G-indexed coefficient vectors with convolution product.
    Only abelian groups are expressible (a moduli list), which keeps the
    result commutative.
    """
    mods = [int(m) for m in moduli]
    if any(m < 1 for m in mods):
        raise ValueError("group moduli must be positive")
    gsize = math.prod(mods)
    _check_power_cap(base.order, gsize, max_order)
    gelems = [tuple(int(x) for x in row) for row in _decode_all(mods)] if mods else [()]
    gidx = {g: k for k, g in enumerate(gelems)}
    struct = np.empty((gsize, gsize), dtype=np.int64)
    for i, gi in enumerate(gelems):
        for j, gj in enumerate(gelems):
            struct[i, j] = gidx[tuple((a + b) % m for a, b, m in zip(gi, gj, mods))]

    def glabel(g: tuple[int, ...]) -> str:
        if not any(g):
            return "1"
        return "g" + "".join(str(x) for x in g)

    prov = {
        "kind": "groupRing",
        "base": base.provenance,
        "group": mods,
        "base_order": base.order,
    }
    ring = _vector_ring(base, struct, [glabel(g) for g in gelems], prov)
    ring.aux["group_elements"] = gelems
    return ring


# -- direct products --------------------------------------------------------------


def direct_product(
    factors: Sequence[FiniteRing], max_order: int = DEFAULT_MAX_ORDER
) -> FiniteRing:
    """Componentwise product ring; element ids are little-endian mixed radix."""
    if not factors:
        raise ValueError("direct_product needs at least one factor")
    radices = [f.order for f in factors]
    order = int(np.prod(radices))
    _check_cap(order, max_order)
    add, mul = _digit_tables(
        radices,
        lambda a, b: [_gather(f.add_table, ai, bi) for f, ai, bi in zip(factors, a, b)],
        lambda a, b: [_gather(f.mul_table, ai, bi) for f, ai, bi in zip(factors, a, b)],
    )
    weights = _weights(radices)
    zero = sum(w * f.zero for w, f in zip(weights, factors))
    one = sum(w * f.one for w, f in zip(weights, factors))
    labels = None
    if all(f.labels is not None for f in factors):
        labels = _digit_labels(
            [[f.label(c) for c in range(f.order)] for f in factors], _tuple_label
        )
    ring = FiniteRing(
        add,
        mul,
        zero=zero,
        one=one,
        labels=labels,
        provenance={
            "kind": "product",
            "factors": [f.provenance for f in factors],
            "orders": radices,
        },
    )
    ring.aux["factors"] = list(factors)
    ring.aux["radices"] = radices
    return ring


def digit_ids(ring: FiniteRing, digit_sets: Sequence[Iterable[int]]) -> np.ndarray:
    """Ascending ids of the elements of a mixed-radix ring (``aux['radices']``)
    whose digit k lies in ``digit_sets[k]``: the sum of the digit sets, each
    scaled by its place value."""
    ids = np.zeros(1, dtype=np.int64)
    for w, digits in reversed(list(zip(_weights(ring.aux["radices"]), digit_sets))):
        ids = (ids[:, None] + w * np.array(sorted(set(digits)), dtype=np.int64)).ravel()
    return ids


# -- localization -----------------------------------------------------------------


def localization(ring: FiniteRing, grading, s_elems: Iterable[int]):
    """S^-1 R for a multiplicatively closed S inside the homogeneous elements.

    Classes of pairs (a, s) under (a,s) ~ (b,t)  iff  u(ta - sb) = 0 for some
    u in S, found through the corner ring eR (README, "Localization
    reduction"): with e the idempotent power of the product of S, the class
    of (a, s) is e*a*(e*s)^-1, and |S^-1 R| = |eR| <= |R| needs no order cap.
    Returns the localized ring; ``aux['canonical_map']`` maps each ambient
    element a to the class of a/1, the class of e*a, and
    ``aux['class_pairs']`` lists the first-seen representative pair per
    class.
    """
    s_ids = sorted(set(int(s) for s in s_elems))
    bad = [s for s in s_ids if not 0 <= s < ring.order]
    if bad:
        raise ValueError(f"multiplicative set id {bad[0]} is out of range for order {ring.order}")
    if ring.one not in s_ids:
        raise ValueError("multiplicative set must contain 1")
    s_arr = np.fromiter(s_ids, dtype=np.int64)
    closed = np.isin(ring.mul_table[np.ix_(s_arr, s_arr)], s_arr).all()
    if not closed:
        raise ValueError("set is not multiplicatively closed")
    if not all(s == ring.zero or grading.degree_of(s) is not None for s in s_ids):
        raise ValueError("multiplicative set must consist of homogeneous elements")
    n = ring.order
    ns = len(s_ids)
    rmul = ring.mul_table

    # e: the idempotent power of the product of S
    p = ring.one
    for s in s_ids:
        p = ring.mul(p, s)
    e = p
    while ring.mul(e, e) != e:
        e = ring.mul(e, p)
    # class value e*a*(e*s)^-1 of every pair; (e*s)^-1 is the x in eR with (e*s)*x = e
    corner = np.unique(rmul[e])
    inv = corner[np.argmax(rmul[np.ix_(rmul[e, s_arr], corner)] == e, axis=1)]
    value = rmul[rmul[e][:, None], inv[None, :]].ravel()

    # classes numbered by their first pair in (a, s) order, pair a*|S| + i
    # being (a, s_i)
    vals, first = np.unique(value, return_index=True)
    by_first = np.argsort(first, kind="stable")
    reps = [(int(i // ns), int(s_arr[i % ns])) for i in first[by_first]]
    vals = vals[by_first]

    # R's tables restricted to eR, renumbered by class, in row blocks
    order = len(vals)
    dt = _table_dtype(order)
    of = np.zeros(n, dtype=dt)
    of[vals] = np.arange(order)
    add = np.empty((order, order), dtype=dt)
    mul = np.empty((order, order), dtype=dt)
    # a block's three scratch arrays (rows of R, their eR columns, their
    # class ids) hold under _BLOCK_BYTES together
    rows = max(1, _BLOCK_BYTES // (4 * n * rmul.itemsize))
    for start in range(0, order, rows):
        block = vals[start : start + rows]
        for dest, src in ((add, ring.add_table), (mul, rmul)):
            dest[start : start + rows] = of[src[block].take(vals, axis=1)]
    canonical = of[rmul[e]].astype(np.int64)
    labels = None
    if ring.labels is not None:
        labels = [
            ring.label(a) if s == ring.one else f"{ring.label(a)}/{ring.label(s)}"
            for a, s in reps
        ]
    out = FiniteRing(
        add,
        mul,
        zero=int(canonical[ring.zero]),
        one=int(canonical[ring.one]),
        labels=labels,
        provenance={"kind": "localization", "base": ring.provenance, "s": s_ids},
    )
    if out.zero != 0:
        raise InternalInvariantError("localization class of 0 is not id 0")
    out.aux["base"] = ring
    out.aux["grading"] = grading
    out.aux["canonical_map"] = canonical
    out.aux["class_pairs"] = reps
    return out


# -- construction documents --------------------------------------------------------


def _list_of(ok: Callable[[object], bool]) -> Callable[[object], bool]:
    return lambda value: isinstance(value, list) and all(ok(v) for v in value)


_INT = lambda value: isinstance(value, int)
_STR = lambda value: isinstance(value, str)


def _field(doc: Mapping, key: str, ok: Callable[[object], bool], default=None):
    """``doc[key]``, or ``default`` when absent; ValueError unless ``ok`` holds."""
    value = doc.get(key, default)
    if not ok(value):
        raise ValueError(f"malformed construction document: {doc['kind']!r} has a "
                         f"missing or ill-typed {key!r}")
    return value


def build_spec(doc: Mapping, max_order: int = DEFAULT_MAX_ORDER) -> FiniteRing:
    """Materialize a construction document (see the README for the format);
    ValueError naming the field when the document has the wrong shape."""
    if not isinstance(doc, Mapping):
        raise ValueError(f"malformed construction document: {type(doc).__name__}, not an object")
    kind = doc.get("kind")

    def base() -> FiniteRing:
        return build_spec(doc.get("base"), max_order=max_order)

    if kind == "cyclic":
        return cyclic(_field(doc, "n", _INT), max_order=max_order)
    if kind == "product":
        factors = _field(doc, "factors", lambda v: isinstance(v, list))
        factors = [build_spec(f, max_order=max_order) for f in factors]
        return direct_product(factors, max_order=max_order)
    if kind == "polyQuotientXn":
        n, var = _field(doc, "n", _INT), _field(doc, "var", _STR, "x")
        return poly_quotient_xn(base(), n, var=var, max_order=max_order)
    if kind == "monomialQuotient":
        return monomial_quotient(
            _field(doc, "m", _INT),
            _field(doc, "v", _INT),
            _field(doc, "relations", _list_of(_list_of(_INT)), []),
            _field(doc, "d", _INT),
            varnames=_field(doc, "varnames", lambda v: v is None or _list_of(_STR)(v)),
            max_order=max_order,
        )
    if kind == "idealization":
        return idealization(base(), max_order=max_order)
    if kind == "groupRing":
        return group_ring(base(), _field(doc, "group", _list_of(_INT)), max_order=max_order)
    if kind == "localization":
        from .grading import grading_for_spec

        ring = base()
        grading = grading_for_spec(ring, doc.get("grading", "canonical"))
        return localization(ring, grading, _field(doc, "s", _list_of(_INT)))
    raise ValueError(f"unknown construction kind {kind!r}")
