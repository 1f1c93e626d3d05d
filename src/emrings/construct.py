"""Constructors that materialize rings as operation tables.

Every constructor compiles its structured presentation (residue arithmetic,
coefficient vectors, pair semantics, fraction classes) down to full tables at
build time, so the analysis layer never special-cases a backend.  Rings of
order above ``max_order`` are refused up front because everything downstream
is exhaustive.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .rings import FiniteRing, InternalInvariantError, _table_dtype

DEFAULT_MAX_ORDER = 4096


class OrderCapError(ValueError):
    """Requested ring would exceed the configured order cap."""

    def __init__(self, order: int, cap: int):
        super().__init__(
            f"refusing to materialize ring of order {order} (cap {cap}); "
            "raise max_order to allow it"
        )
        self.order = order
        self.cap = cap


def _check_cap(order: int, cap: int) -> None:
    if order > cap:
        raise OrderCapError(order, cap)


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
    digits for which one block of the table, and so every digit array of
    the block, holds at most ``_BLOCK_BYTES`` (1 MiB).  A handful of such
    arrays are alive at once; nothing of size order^2 is allocated apart
    from the two tables.
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

    def digit_axis(axis: int, radix: int) -> np.ndarray:
        dims = [1] * len(shape)
        dims[axis] = radix
        return np.arange(radix).reshape(dims)

    a_free = [digit_axis(free - 1 - k, radices[k]) for k in range(free)]
    b = [digit_axis(free + m - 1 - k, radices[k]) for k in range(m)]
    scale = [dt.type(w) for w in weights[:m]]
    add = np.zeros((order, order), dtype=dt)
    mul = np.zeros((order, order), dtype=dt)
    for start in range(0, order, rows):
        a = a_free + [(start // weights[k]) % radices[k] for k in range(free, m)]
        for table, digits in ((add, add_digits), (mul, mul_digits)):
            view = table[start : start + rows].reshape(shape)
            for w, d in zip(scale, digits(a, b)):
                view += d * w
    return add, mul


def _sum_label(terms: list[str]) -> str:
    return " + ".join(terms) if terms else "0"


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
    idx = np.arange(n, dtype=np.int64)
    add = (idx[:, None] + idx[None, :]) % n
    mul = (idx[:, None] * idx[None, :]) % n
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
    max_order: int,
) -> FiniteRing:
    """Ring on coefficient vectors over ``base`` with basis products ``struct``.

    ``struct[i, j]`` is the basis index of the product of basis monomials i
    and j, or -1 when that product is 0 in the quotient.  Multiplication is
    the induced bilinear map; addition is componentwise.
    """
    nb = len(basis_labels)
    order = base.order**nb
    _check_cap(order, max_order)
    radices = [base.order] * nb
    badd, bmul = base.add_table, base.mul_table
    pairs = [
        [(i, j) for i in range(nb) for j in range(nb) if struct[i, j] == k]
        for k in range(nb)
    ]

    def add_digits(a: list, b: list) -> list:
        return [badd[a[k], b[k]] for k in range(nb)]

    def mul_digits(a: list, b: list) -> list:
        out = []
        for k in range(nb):
            acc = base.zero
            for i, j in pairs[k]:
                acc = badd[acc, bmul[a[i], b[j]]]
            out.append(acc)
        return out

    add, mul = _digit_tables(radices, add_digits, mul_digits)
    weights = _weights(radices)
    labels = None
    if base.labels is not None:
        labels = [
            _sum_label(
                [
                    _coeff_label(base.label(int(c)), basis_labels[i])
                    for i, c in enumerate(vec)
                    if c != base.zero
                ]
            )
            for vec in _decode_all(radices)
        ]
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
    ring.aux["basis_labels"] = list(basis_labels)
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
    return _vector_ring(base, struct, basis_labels, prov, max_order)


def _monomial_divides(divisor: Sequence[int], mono: Sequence[int]) -> bool:
    return all(d <= m for d, m in zip(divisor, mono))


def monomial_basis(
    nvars: int, relations: Sequence[Sequence[int]], degree: int
) -> list[tuple[int, ...]]:
    """Monomials of total degree <= degree not divisible by any relation."""
    basis: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], remaining: int):
        if len(prefix) == nvars:
            if not any(_monomial_divides(r, prefix) for r in relations):
                basis.append(prefix)
            return
        for e in range(remaining + 1):
            rec(prefix + (e,), remaining - e)

    rec((), degree)
    # degree-lexicographic with earlier variables first (1, x, y, x^2, ...)
    basis.sort(key=lambda m: (sum(m), [-e for e in m]))
    return basis


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
    basis = monomial_basis(nvars, rels, degree)
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
    ring = _vector_ring(
        cyclic(m, max_order=max_order),
        struct,
        [_monomial_label(e, varnames) for e in basis],
        prov,
        max_order,
    )
    ring.aux["basis_monomials"] = basis
    return ring


def idealization(base: FiniteRing, max_order: int = DEFAULT_MAX_ORDER) -> FiniteRing:
    """R(+)R on pairs (r, m) with (r1,m1)(r2,m2) = (r1 r2, r1 m2 + r2 m1)."""
    struct = np.array([[0, 1], [1, -1]], dtype=np.int64)
    prov = {"kind": "idealization", "base": base.provenance, "base_order": base.order}
    ring = _vector_ring(base, struct, ["1", "ε"], prov, max_order)
    if base.labels is not None:
        coords = _decode_all([base.order, base.order])
        ring.labels = [f"({base.label(int(r))},{base.label(int(mm))})" for r, mm in coords]
    return ring


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
    gsize = int(np.prod(mods)) if mods else 1
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
    ring = _vector_ring(base, struct, [glabel(g) for g in gelems], prov, max_order)
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
        lambda a, b: [f.add_table[ai, bi] for f, ai, bi in zip(factors, a, b)],
        lambda a, b: [f.mul_table[ai, bi] for f, ai, bi in zip(factors, a, b)],
    )
    weights = _weights(radices)
    zero = sum(w * f.zero for w, f in zip(weights, factors))
    one = sum(w * f.one for w, f in zip(weights, factors))
    labels = None
    if all(f.labels is not None for f in factors):
        labels = [
            "(" + ",".join(f.label(int(c)) for f, c in zip(factors, vec)) + ")"
            for vec in _decode_all(radices)
        ]
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


def product_project(ring: FiniteRing, i: int, elem: int) -> int:
    """Image of a product-ring element under projection to factor i."""
    radices = ring.aux["radices"]
    return int((elem // int(np.prod(radices[:i]))) % radices[i])


def product_embed(ring: FiniteRing, i: int, elem: int) -> int:
    """Injection of a factor element into the product (zeros elsewhere)."""
    factors = ring.aux["factors"]
    radices = ring.aux["radices"]
    vec = [f.zero for f in factors]
    vec[i] = elem
    return int(sum(v * int(np.prod(radices[:k])) for k, v in enumerate(vec)))


# -- localization -----------------------------------------------------------------


def localization(
    ring: FiniteRing,
    grading,
    s_elems: Iterable[int],
    max_order: int = DEFAULT_MAX_ORDER,
):
    """S^-1 R for a multiplicatively closed S inside the homogeneous elements.

    Classes of pairs (a, s) under (a,s) ~ (b,t)  iff  u(ta - sb) = 0 for some
    u in S.  Returns the localized ring; ``aux['canonical_map']`` maps each
    ambient element a to the class of a/1 and ``aux['class_pairs']`` lists the
    first-seen representative pair per class.
    """
    from .grading import homogeneous_elements  # deferred: grading imports rings only

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
    hom = homogeneous_elements(grading).element_set
    if not set(s_ids) <= hom:
        raise ValueError("multiplicative set must consist of homogeneous elements")
    n = ring.order
    ns = len(s_ids)
    torsion = (ring.mul_table[s_arr, :] == ring.zero).any(axis=0)
    neg = ring.neg_table

    pair_a = np.repeat(np.arange(n, dtype=np.int64), ns)
    pair_s = np.tile(s_arr, n)
    pair_class = np.full(n * ns, -1, dtype=np.int64)
    reps: list[tuple[int, int]] = []
    remaining = np.arange(n * ns, dtype=np.int64)
    while remaining.size:
        p0 = int(remaining[0])
        b, t = int(pair_a[p0]), int(pair_s[p0])
        ta = ring.mul_table[t, pair_a[remaining]].astype(np.int64)
        sb = ring.mul_table[pair_s[remaining], b].astype(np.int64)
        diff = ring.add_table[ta, neg[sb]]
        match = torsion[diff]
        cls = len(reps)
        pair_class[remaining[match]] = cls
        reps.append((b, t))
        remaining = remaining[~match]
    order = len(reps)
    _check_cap(order, max_order)

    spos = np.full(n, -1, dtype=np.int64)
    spos[s_arr] = np.arange(ns)
    rep_a = np.fromiter((r[0] for r in reps), dtype=np.int64)
    rep_s = np.fromiter((r[1] for r in reps), dtype=np.int64)
    dt = _table_dtype(order)
    add = np.empty((order, order), dtype=dt)
    mul = np.empty((order, order), dtype=dt)
    for i in range(order):
        ai, si = int(rep_a[i]), int(rep_s[i])
        num = ring.add_table[
            ring.mul_table[ai, rep_s].astype(np.int64),
            ring.mul_table[si, rep_a].astype(np.int64),
        ].astype(np.int64)
        den = ring.mul_table[si, rep_s].astype(np.int64)
        add[i] = pair_class[num * ns + spos[den]]
        num = ring.mul_table[ai, rep_a].astype(np.int64)
        mul[i] = pair_class[num * ns + spos[den]]
    canonical = pair_class[np.arange(n, dtype=np.int64) * ns + spos[ring.one]]
    labels = None
    if ring.labels is not None:
        labels = [
            ring.label(int(a)) if s == ring.one else f"{ring.label(int(a))}/{ring.label(int(s))}"
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
    out.aux["pair_class"] = pair_class
    out.aux["pair_a"] = pair_a
    out.aux["pair_s"] = pair_s
    out.aux["s_ids"] = s_ids
    return out


# -- construction documents --------------------------------------------------------


def build_spec(doc: dict, max_order: int = DEFAULT_MAX_ORDER) -> FiniteRing:
    """Materialize a construction document (see the README for the format)."""
    kind = doc.get("kind")
    if kind == "cyclic":
        return cyclic(int(doc["n"]), max_order=max_order)
    if kind == "product":
        factors = [build_spec(f, max_order=max_order) for f in doc["factors"]]
        return direct_product(factors, max_order=max_order)
    if kind == "polyQuotientXn":
        base = build_spec(doc["base"], max_order=max_order)
        return poly_quotient_xn(
            base, int(doc["n"]), var=doc.get("var", "x"), max_order=max_order
        )
    if kind == "monomialQuotient":
        return monomial_quotient(
            int(doc["m"]),
            int(doc["v"]),
            doc.get("relations", []),
            int(doc["d"]),
            varnames=doc.get("varnames"),
            max_order=max_order,
        )
    if kind == "idealization":
        base = build_spec(doc["base"], max_order=max_order)
        return idealization(base, max_order=max_order)
    if kind == "groupRing":
        base = build_spec(doc["base"], max_order=max_order)
        return group_ring(base, doc["group"], max_order=max_order)
    if kind == "localization":
        from .grading import grading_for_spec

        base = build_spec(doc["base"], max_order=max_order)
        grading = grading_for_spec(base, doc.get("grading", "canonical"))
        return localization(base, grading, doc["s"], max_order=max_order)
    raise ValueError(f"unknown construction kind {kind!r}")
