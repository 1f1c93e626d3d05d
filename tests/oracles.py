"""Independent brute-force oracles the tests check the library against.

These work straight off the operation tables and never call the reduced
search paths they exist to validate.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Optional

import numpy as np


def subset_stream(pool: Iterable[int]):
    """Every nonempty subset of ``pool`` as an ascending tuple, by size and
    then lexicographically: the coefficient-set enumeration the ideal
    deciders reduce to one visit per generated ideal."""
    ids = sorted(set(int(p) for p in pool))
    for size in range(1, len(ids) + 1):
        yield from itertools.combinations(ids, size)


def first_subset(pool: Iterable[int], check: Callable) -> Optional[tuple[int, ...]]:
    """First subset in :func:`subset_stream` order for which check() holds."""
    return next((s for s in subset_stream(pool) if check(s)), None)


def table_annihilator(ring, subset) -> np.ndarray:
    """Mask of every t with t*s = 0 for all s in subset, off the table."""
    return (ring.mul_table[list(subset)] == ring.zero).all(axis=0)


def poly_annihilator_bruteforce(ring, f_coeffs, max_deg: int) -> Optional[tuple[int, ...]]:
    """First nonzero g (little-endian tuple enumeration) of degree <= max_deg
    with f*g = 0, computed by direct convolution over the tables."""
    n = ring.order
    width = max_deg + 1
    total = n**width
    add, mul = ring.add_table, ring.mul_table
    f = list(f_coeffs)
    block = 1 << 14
    for start in range(0, total, block):
        idxs = np.arange(start, min(start + block, total), dtype=np.int64)
        digits = np.empty((len(idxs), width), dtype=np.int64)
        rest = idxs.copy()
        for i in range(width):
            digits[:, i] = rest % n
            rest //= n
        ok = np.ones(len(idxs), dtype=bool)
        for k in range(len(f) + width - 1):
            acc = np.full(len(idxs), ring.zero, dtype=np.int64)
            for i, a in enumerate(f):
                j = k - i
                if 0 <= j < width:
                    acc = add[acc, mul[a, digits[:, j]]].astype(np.int64)
            ok &= acc == ring.zero
            if not ok.any():
                break
        ok[idxs == 0] = False  # the all-zero tuple
        hits = np.nonzero(ok)[0]
        if len(hits):
            return tuple(int(x) for x in digits[hits[0]])
    return None


def content_bruteforce(ring, f_coeffs, keep: Optional[Callable] = None) -> Optional[int]:
    """Smallest c in Z(R)\\{0} admitting ANY cofactor g with f = c*g and
    Ann(C(g)) = 0, deg g <= deg f + |R|; ``keep(c)``, when given, restricts
    the candidates c.

    For fixed c the equation pins g's low coefficients to the divisor
    solution sets (all combinations are tried, no representative shortcut)
    and leaves the slots above deg f free inside Ann(c); filling every slot
    with all of Ann(c)\\{0} maximizes the content ideal, which can only
    shrink Ann(C(g)), so it is the best possible tail and fits within the
    |R| extra slots.
    """
    n = ring.order
    zero = ring.zero
    mul = ring.mul_table
    f = list(f_coeffs)
    while f and f[-1] == zero:
        f.pop()
    if not f:
        raise ValueError("zero polynomial")
    ann_all = mul == zero  # row s = annihilator mask of s
    zd_mask = ann_all.copy()
    zd_mask[:, zero] = False
    zd = [int(c) for c in np.nonzero(zd_mask.any(axis=1))[0] if c != zero]
    if keep is not None:
        zd = [c for c in zd if keep(c)]
    for c in zd:
        row = mul[c]
        sols = [np.nonzero(row == a)[0] for a in f]
        if any(len(s) == 0 for s in sols):
            continue
        tail = np.nonzero(row == zero)[0]
        tail = tail[tail != zero]
        tail_mask = ann_all[tail].all(axis=0) if len(tail) else np.ones(n, dtype=bool)
        sizes = [len(s) for s in sols]
        total = int(np.prod(sizes))
        block = 1 << 13
        for start in range(0, total, block):
            idxs = np.arange(start, min(start + block, total), dtype=np.int64)
            rest = idxs.copy()
            mask = np.broadcast_to(tail_mask, (len(idxs), n)).copy()
            for i, s in enumerate(sols):
                picked = s[rest % sizes[i]]
                rest //= sizes[i]
                mask &= ann_all[picked]
            if (mask.sum(axis=1) == 1).any():
                return c
    return None


def _digit_vectors(radices) -> np.ndarray:
    """(N, k) little-endian digit vectors of all mixed-radix ids."""
    n = int(np.prod(radices))
    return np.stack(np.unravel_index(np.arange(n), radices[::-1]), axis=1)[:, ::-1]


def vector_ring_rows(base, struct, rows=None) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``rows`` (default all) of the add and mul tables of the
    coefficient-vector ring over ``base`` whose basis products are ``struct``
    (-1 for 0), built one row at a time with a running accumulator per
    output coefficient and a matmul by the place values."""
    from emrings.rings import _table_dtype

    nb = len(struct)
    order = base.order**nb
    radices = [base.order] * nb
    coords = _digit_vectors(radices)
    badd, bmul = base.add_table, base.mul_table
    dt = _table_dtype(order)
    rows = range(order) if rows is None else list(rows)
    add = np.empty((len(rows), order), dtype=dt)
    mul = np.empty((len(rows), order), dtype=dt)
    weights = np.asarray(np.cumprod([1] + radices[:-1]), dtype=np.int64)
    acc = np.empty((order, nb), dtype=np.int64)
    for r, a in enumerate(rows):
        ca = coords[a]
        out = np.empty((order, nb), dtype=np.int64)
        for i in range(nb):
            out[:, i] = badd[ca[i], coords[:, i]]
        add[r] = out @ weights
        acc[:] = base.zero
        for i in range(nb):
            if ca[i] == base.zero:
                continue
            for j in range(nb):
                k = struct[i][j]
                if k < 0:
                    continue
                acc[:, k] = badd[acc[:, k], bmul[ca[i], coords[:, j]]]
        mul[r] = acc @ weights
    return add, mul


def product_rows(factors, rows=None) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``rows`` (default all) of the add and mul tables of the direct
    product of ``factors``, built one row at a time componentwise."""
    from emrings.rings import _table_dtype

    radices = [f.order for f in factors]
    order = int(np.prod(radices))
    coords = _digit_vectors(radices)
    dt = _table_dtype(order)
    rows = range(order) if rows is None else list(rows)
    add = np.empty((len(rows), order), dtype=dt)
    mul = np.empty((len(rows), order), dtype=dt)
    weights = np.asarray(np.cumprod([1] + radices[:-1]), dtype=np.int64)
    for r, a in enumerate(rows):
        ca = coords[a]
        sa = np.empty((order, len(factors)), dtype=np.int64)
        ma = np.empty((order, len(factors)), dtype=np.int64)
        for i, f in enumerate(factors):
            sa[:, i] = f.add_table[ca[i], coords[:, i]]
            ma[:, i] = f.mul_table[ca[i], coords[:, i]]
        add[r] = sa @ weights
        mul[r] = ma @ weights
    return add, mul


def all_permutation_isomorphism(r1, r2) -> Optional[list[int]]:
    """Ring isomorphism by scanning every permutation (orders <= 7 only)."""
    import itertools

    n = r1.order
    if n != r2.order:
        return None
    if n > 7:
        raise ValueError("permutation scan is only for tiny rings")
    a1, m1 = r1.add_table, r1.mul_table
    a2, m2 = r2.add_table, r2.mul_table
    for perm in itertools.permutations(range(n)):
        phi = np.fromiter(perm, dtype=np.int64)
        if phi[r1.zero] != r2.zero or phi[r1.one] != r2.one:
            continue
        if not np.array_equal(phi[a1], a2[phi[:, None], phi[None, :]]):
            continue
        if np.array_equal(phi[m1], m2[phi[:, None], phi[None, :]]):
            return list(perm)
    return None
