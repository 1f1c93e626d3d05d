"""Independent brute-force oracles the tests check the library against.

These work straight off the operation tables and never call the reduced
search paths they exist to validate.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Optional, Sequence

import numpy as np
from hypothesis import strategies as st

from emrings import analysis
from emrings.construct import (
    cyclic,
    digit_ids,
    direct_product,
    localization,
    monomial_basis,
    poly_quotient_xn,
)
from emrings import grading as grading_module
from emrings.grading import (
    Grading,
    GradingError,
    GradingGroup,
    homogeneous_elements,
    localization_grading,
    trivial_grading,
    validate_grading,
)
from emrings.rings import _zero_divisor_mask, annihilator_mask, idempotents, units, zero_divisors


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


def _additive_order(ring: FiniteRing, a: int) -> int:
    k, x = 1, a
    while x != ring.zero:
        x = ring.add(x, a)
        k += 1
    return k


def find_isomorphism(r1: FiniteRing, r2: FiniteRing) -> Optional[list[int]]:
    """Search for a ring isomorphism r1 -> r2; returns the image list or None.

    Pins 1 -> 1, then backtracks over images of additive generators (always
    the smallest unmapped id), pruning on additive order and injectivity.
    Complete maps are verified against the full tables, so a returned list is
    a certified isomorphism.
    """
    if r1.order != r2.order:
        return None
    n = r1.order
    if _additive_order(r1, r1.one) != _additive_order(r2, r2.one):
        return None
    orders2: dict[int, list[int]] = {}
    for y in range(n):
        orders2.setdefault(_additive_order(r2, y), []).append(y)

    def extend(mapping: dict[int, int], g: int, u: int) -> Optional[dict[int, int]]:
        # mapping's keys form an additive subgroup S; cover every coset S + k*g
        new_map = dict(mapping)
        used = set(new_map.values())
        kg, ku = g, u
        while kg != r1.zero:
            for x, y in mapping.items():
                xk, yk = r1.add(x, kg), r2.add(y, ku)
                prev = new_map.get(xk)
                if prev is not None:
                    if prev != yk:
                        return None
                elif yk in used:
                    return None
                else:
                    new_map[xk] = yk
                    used.add(yk)
            kg, ku = r1.add(kg, g), r2.add(ku, u)
        if ku != r2.zero:
            return None
        # multiplicative consistency on everything mapped so far prunes the
        # additive-only branches before they fan out
        keys = list(new_map)
        for x1 in keys:
            y1 = new_map[x1]
            for x2 in keys:
                p = r1.mul(x1, x2)
                py = new_map.get(p)
                if py is not None and py != r2.mul(y1, new_map[x2]):
                    return None
        return new_map

    def backtrack(mapping: dict[int, int]) -> Optional[dict[int, int]]:
        if len(mapping) == n:
            return mapping
        g = min(x for x in range(n) if x not in mapping)
        taken = set(mapping.values())
        for u in orders2.get(_additive_order(r1, g), []):
            if u in taken:
                continue
            ext = extend(mapping, g, u)
            if ext is None:
                continue
            got = backtrack(ext)
            if got is not None:
                return got
        return None

    base = extend({r1.zero: r2.zero}, r1.one, r2.one)
    if base is None:
        return None
    result = backtrack(base)
    if result is None:
        return None
    phi = np.empty(n, dtype=np.int64)
    for x, y in result.items():
        phi[x] = y
    if not np.array_equal(phi[r1.add_table], r2.add_table[phi[:, None], phi[None, :]]):
        return None
    if not np.array_equal(phi[r1.mul_table], r2.mul_table[phi[:, None], phi[None, :]]):
        return None
    return [int(x) for x in phi]


def t7_grid_failure(ring, grading, check: Callable, degrees=(1, 1)) -> Optional[dict]:
    """First failure of ``check`` over every homogeneous bivariate grid of
    x-degree <= dx and y-degree <= dy with entries from one support
    component, scanned component by component in ``itertools.product``
    order: the grid enumeration the per-ideal t7 check replaces."""
    from emrings.poly import bivariate

    dx, dy = degrees
    for key in grading.support_keys:
        pool = grading.support[key].tolist()
        for grid in itertools.product(pool, repeat=(dx + 1) * (dy + 1)):
            rows = [grid[r * (dx + 1) : (r + 1) * (dx + 1)] for r in range(dy + 1)]
            failure = check(bivariate(ring, rows))
            if failure is not None:
                return failure
    return None


def localization_classes(ring, s_ids) -> dict:
    """S^-1 R by the pairwise class search the corner-ring reduction
    replaces: each pass takes the first unclassified pair (b, t) and gives
    its class to every remaining pair (a, s) with u(ta - sb) = 0 for some u
    in S; the tables are then filled one class at a time from the
    representative pairs.  ``s_ids`` is S, sorted."""
    from emrings.rings import _table_dtype

    s_arr = np.fromiter(s_ids, dtype=np.int64)
    n = ring.order
    ns = len(s_ids)
    torsion = (ring.mul_table[s_arr, :] == ring.zero).any(axis=0)
    neg = neg_table_full(ring)

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
    return {
        "add": add,
        "mul": mul,
        "pair_class": pair_class,
        "class_pairs": reps,
        "canonical_map": canonical,
        "labels": labels,
    }


def localization_grading_pairs(loc, pair_class, s_ids):
    """Support of the grading of the localization ``loc`` with
    deg(a/s) = deg(a) - deg(s), found by walking every pair (a, s) the
    class search numbered in ``pair_class`` (pair a*|S| + i is (a, s_i)):
    the pair loop the canonical-map images replace.  Maps each degree to
    its sorted class ids, 0 included; a class seen in two degrees raises."""
    base, grading = loc.aux["base"], loc.aux["grading"]
    group = grading.group
    ns = len(s_ids)
    class_deg: dict = {}
    for p, cls in enumerate(pair_class):
        a, s = p // ns, s_ids[p % ns]
        da = grading.degree_of(a)
        if da is None or s == base.zero or cls == loc.zero:
            continue
        lam = group.op(da, group.inverse(grading.degree_of(s)))
        if class_deg.setdefault(int(cls), lam) != lam:
            raise AssertionError(f"class {cls} presents in degrees {class_deg[cls]} and {lam}")
    comps: dict = {}
    for cls, lam in class_deg.items():
        comps.setdefault(lam, {loc.zero}).add(cls)
    return {k: tuple(sorted(v)) for k, v in sorted(comps.items())}


def homogeneous_units(grading) -> list:
    """The homogeneous regular elements, which in a finite ring are the
    homogeneous units: the set hT(R) localizes at."""
    return sorted(set(homogeneous_elements(grading).tolist()) & set(units(grading.ring).tolist()))


def additive_span_closure(ring, elems) -> np.ndarray:
    """Smallest additive subgroup containing ``elems``, as a sorted id array,
    by repeated pairwise sums until the set stops growing."""
    span = np.unique(np.fromiter(set(int(e) for e in elems) | {ring.zero}, dtype=np.int64))
    while True:
        bigger = np.unique(ring.add_table[np.ix_(span, span)])
        if bigger.size == span.size:
            return span
        span = bigger


def armendariz_scan_loop(ring, blocks, degree: int) -> Optional[dict]:
    """Find f, g with fg = 0 but some coefficient product nonzero, testing
    every a_i b_j of each g with fg = 0 one ``ring.mul`` at a time.

    ``blocks`` pairs a tag (component key or None) with a tuple array; pairs
    are scanned across block pairs in order, f-major, g >= f inside one block.
    """
    from emrings.poly import Polynomial, poly_str

    zero = ring.zero
    width = degree + 1
    for bi, (tag_f, P) in enumerate(blocks):
        for bj in range(bi, len(blocks)):
            tag_g, Q = blocks[bj]
            for fi in range(len(P)):
                frow = P[fi]
                if (frow == zero).all():
                    continue
                gs = Q[fi:] if bj == bi else Q
                base = fi if bj == bi else 0
                alive = ~np.all(gs == zero, axis=1)
                prod_zero = np.ones(len(gs), dtype=bool)
                for k in range(2 * degree + 1):
                    acc = np.full(len(gs), zero, dtype=np.int64)
                    for i in range(max(0, k - degree), min(degree, k) + 1):
                        term = ring.mul_table[frow[i], gs[:, k - i]].astype(np.int64)
                        acc = ring.add_table[acc, term].astype(np.int64)
                    prod_zero &= acc == zero
                    if not prod_zero.any():
                        break
                cand = np.nonzero(prod_zero & alive)[0]
                for gi in cand:
                    grow = gs[gi]
                    for i in range(width):
                        for j in range(width):
                            if ring.mul(int(frow[i]), int(grow[j])) != zero:
                                return {
                                    "f": [int(x) for x in frow],
                                    "g": [int(x) for x in grow],
                                    "f_str": poly_str(Polynomial(ring, tuple(frow))),
                                    "g_str": poly_str(Polynomial(ring, tuple(grow))),
                                    "component_f": None if tag_f is None else list(tag_f),
                                    "component_g": None if tag_g is None else list(tag_g),
                                    "nonzero_product_at": [i, j],
                                    "g_index": int(base + gi),
                                }
    return None


def _first_bad(ok: np.ndarray) -> tuple[int, ...]:
    return tuple(int(x) for x in np.argwhere(~ok)[0])


def validate_ring_full(ring):
    """The ring axioms checked on whole-table arrays: every O(N^2) axiom
    through one N x N comparison, the O(N^3) laws exhaustively up to
    EXHAUSTIVE_AXIOM_LIMIT and on one seeded draw of SAMPLED_TRIPLES
    triples above it.  Raises RingAxiomError with the row-major first
    witness, like validate_ring."""
    from emrings.rings import EXHAUSTIVE_AXIOM_LIMIT, SAMPLED_TRIPLES, RingAxiomError

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
    ok = add == add.T
    if not ok.all():
        raise RingAxiomError("add-commutativity", _first_bad(ok))
    ok = add[zero] == idx
    if not ok.all():
        raise RingAxiomError("add-identity", _first_bad(ok))
    ok = (add == zero).any(axis=1)
    if not ok.all():
        raise RingAxiomError("add-inverse", _first_bad(ok))
    ok = mul == mul.T
    if not ok.all():
        raise RingAxiomError("mul-commutativity", _first_bad(ok))
    ok = mul[one] == idx
    if not ok.all():
        raise RingAxiomError("mul-identity", _first_bad(ok))
    ok = mul[zero] == zero
    if not ok.all():
        raise RingAxiomError("zero-absorption", _first_bad(ok))

    if n <= EXHAUSTIVE_AXIOM_LIMIT:
        for a in range(n):
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
    else:
        rng = np.random.default_rng(n)
        trips = rng.integers(0, n, size=(SAMPLED_TRIPLES, 3))
        a, b, c = trips[:, 0], trips[:, 1], trips[:, 2]
        ok = add[add[a, b], c] == add[a, add[b, c]]
        if not ok.all():
            i = int(np.nonzero(~ok)[0][0])
            raise RingAxiomError("add-associativity", (int(a[i]), int(b[i]), int(c[i])))
        ok = mul[mul[a, b], c] == mul[a, mul[b, c]]
        if not ok.all():
            i = int(np.nonzero(~ok)[0][0])
            raise RingAxiomError("mul-associativity", (int(a[i]), int(b[i]), int(c[i])))
        ok = mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]
        if not ok.all():
            i = int(np.nonzero(~ok)[0][0])
            raise RingAxiomError("distributivity", (int(a[i]), int(b[i]), int(c[i])))
    return ring


def zero_divisor_mask_full(ring) -> np.ndarray:
    """r is a zero divisor iff row r of the multiplication table has a zero
    off column 0, read from one N x N comparison."""
    hits = ring.mul_table == ring.zero
    hits[:, ring.zero] = False
    return hits.any(axis=1)


def unit_mask_full(ring) -> np.ndarray:
    return (ring.mul_table == ring.one).any(axis=1)


def neg_table_full(ring) -> np.ndarray:
    """-a for every a, from the positions of the zeros of the addition table."""
    pairs = np.argwhere(ring.add_table == ring.zero)
    neg = np.empty(ring.order, dtype=ring.add_table.dtype)
    neg[pairs[:, 0]] = pairs[:, 1]
    return neg


def annihilator_sizes_full(ring) -> np.ndarray:
    """|Ann(c)| for every c, as column sums of the zeros of the multiplication table."""
    return (ring.mul_table == ring.zero).sum(axis=0)


# -- the former per-constructor grading builders, each with its own id
# arithmetic; the library now builds all of them through construct.digit_ids


def xn_grading(ring: FiniteRing) -> Grading:
    """Grading H_k = R x^k of a poly_quotient_xn ring, over Z_n."""
    prov = ring.provenance or {}
    if prov.get("kind") != "polyQuotientXn":
        raise ValueError("xn_grading needs a poly_quotient_xn ring")
    b, n = prov["base_order"], prov["n"]
    group = GradingGroup((n,))
    comps = {(k,): [c * b**k for c in range(b)] for k in range(n)}
    return validate_grading(Grading(ring, group, comps))


def groupring_grading(ring: FiniteRing) -> Grading:
    """Grading H_sigma = R sigma of a group ring R[G], over G."""
    prov = ring.provenance or {}
    if prov.get("kind") != "groupRing":
        raise ValueError("groupring_grading needs a group_ring ring")
    b = prov["base_order"]
    moduli = tuple(prov["group"])
    gelems = ring.aux["group_elements"]
    group = GradingGroup(moduli)
    comps = {
        tuple(g): [c * b**pos for c in range(b)] for pos, g in enumerate(gelems)
    }
    return validate_grading(Grading(ring, group, comps))


def idealization_grading(ring: FiniteRing) -> Grading:
    """Z_2-grading H_0 = R (+) 0, H_1 = 0 (+) R of an idealization."""
    prov = ring.provenance or {}
    if prov.get("kind") != "idealization":
        raise ValueError("idealization_grading needs an idealization ring")
    b = prov["base_order"]
    group = GradingGroup((2,))
    comps = {
        (0,): list(range(b)),
        (1,): [m * b for m in range(b)],
    }
    return validate_grading(Grading(ring, group, comps))


def truncated_monomial_grading(ring: FiniteRing) -> Grading:
    """Multidegree grading of a truncated monomial quotient, over Z^v."""
    prov = ring.provenance or {}
    if prov.get("kind") != "monomialQuotient":
        raise ValueError("truncated_monomial_grading needs a monomial_quotient ring")
    m = prov["m"]
    basis = ring.aux["basis_monomials"]
    group = GradingGroup((0,) * prov["v"])
    comps = {
        tuple(mono): [c * m**pos for c in range(m)] for pos, mono in enumerate(basis)
    }
    return validate_grading(Grading(ring, group, comps))


def product_grading(ring: FiniteRing, factor_gradings: Sequence[Grading]) -> Grading:
    """Componentwise grading of a direct product of same-group graded rings;
    a factor graded by its identity component alone is regraded by the
    group of the other factors first.  Factors graded over different groups
    are each regraded over the product group first, their degrees padded
    with the identity outside their own coordinates."""
    prov = ring.provenance or {}
    if prov.get("kind") != "product":
        raise ValueError("product_grading needs a direct_product ring")
    factors = ring.aux["factors"]
    radices = ring.aux["radices"]
    if len(factor_gradings) != len(factors):
        raise ValueError("one grading per factor required")
    nontrivial = [i for i, g in enumerate(factor_gradings) if len(g.support) > 1
                  or any(k != g.group.identity() for k in g.support)]
    if len({factor_gradings[i].group.moduli for i in nontrivial}) > 1:
        moduli = sum((factor_gradings[i].group.moduli for i in nontrivial), ())
        regraded, before = list(factor_gradings), 0
        for i in nontrivial:
            g = factor_gradings[i]
            pad = lambda k: (0,) * before + k + (0,) * (len(moduli) - before - len(k))
            comps = {pad(k): ids for k, ids in g.support.items()}
            regraded[i] = validate_grading(Grading(factors[i], GradingGroup(moduli), comps))
            before += len(g.group.moduli)
        factor_gradings = regraded
    moduli = factor_gradings[(nontrivial or [0])[0]].group.moduli
    identity = GradingGroup(moduli).identity()
    factor_gradings = [
        g if g.group.moduli == moduli else validate_grading(
            Grading(f, GradingGroup(moduli), {identity: range(f.order)}))
        for g, f in zip(factor_gradings, factors)
    ]
    weights = [int(np.prod(radices[:i])) for i in range(len(factors))]
    keys = sorted({k for g in factor_gradings for k in g.support_keys})
    comps = {}
    for key in keys:
        enc = np.zeros(1, dtype=np.int64)
        for i, g in enumerate(factor_gradings):
            elems = g.component(key)
            enc = (enc[:, None] + elems[None, :] * weights[i]).ravel()
        comps[key] = enc
    return validate_grading(Grading(ring, GradingGroup(moduli), comps))


def localization_grading(ring: FiniteRing) -> Grading:
    """Grading of S^-1 R with deg(a/s) = deg(a) - deg(s).

    Its component of degree sigma is the image of the base component R_sigma
    under the canonical map a -> class of a/1 (README, "Localization
    grading"); validation rejects the result if the images do not sum
    directly, which can only come from an implementation bug.
    """
    prov = ring.provenance or {}
    if prov.get("kind") != "localization":
        raise ValueError("localization_grading needs a localization ring")
    bgrading: Grading = ring.aux["grading"]
    canonical = ring.aux["canonical_map"]
    comps = {k: canonical[ids] for k, ids in bgrading.support.items()}
    return validate_grading(Grading(ring, bgrading.group, comps))


def square_zero_extension_grading(ring: FiniteRing, base_grading: Grading) -> Grading:
    """Lift a base grading to R[x]/(x^2): component at sigma is R_sigma + R_sigma X."""
    prov = ring.provenance or {}
    if prov.get("kind") != "polyQuotientXn" or prov.get("n") != 2:
        raise ValueError("square_zero_extension_grading needs R[x]/(x^2)")
    b = prov["base_order"]
    comps = {}
    for key, elems in base_grading.support.items():
        comps[key] = (elems[:, None] + elems[None, :] * b).ravel()
    return validate_grading(Grading(ring, base_grading.group, comps))


def former_canonical_grading(ring: FiniteRing) -> Grading:
    """The natural grading of a constructed ring, dispatched on provenance."""
    kind = (ring.provenance or {}).get("kind")
    if kind == "cyclic":
        return trivial_grading(ring)
    if kind == "polyQuotientXn":
        return xn_grading(ring)
    if kind == "monomialQuotient":
        return truncated_monomial_grading(ring)
    if kind == "idealization":
        return idealization_grading(ring)
    if kind == "groupRing":
        return groupring_grading(ring)
    if kind == "product":
        return product_grading(
            ring, [former_canonical_grading(f) for f in ring.aux["factors"]]
        )
    if kind == "localization":
        return localization_grading(ring)
    return trivial_grading(ring)


# -- generated construction documents


def _root(cap: int, k: int) -> int:
    """Largest b with b**k <= cap."""
    b = 1
    while (b + 1) ** k <= cap:
        b += 1
    return b


def construction_document(draw, cap: int) -> tuple[dict, int]:
    """A construction document of order at most ``cap``, and that order."""
    kinds = ["cyclic"]
    if cap >= 4:
        kinds += ["product", "polyQuotientXn", "idealization", "groupRing", "monomialQuotient"]
    kind = draw(st.sampled_from(kinds))
    if kind == "cyclic":
        n = draw(st.integers(1, min(cap, 8)))
        return {"kind": "cyclic", "n": n}, n
    if kind == "product":
        first, a = construction_document(draw, cap // 2)
        second, b = construction_document(draw, cap // a)
        return {"kind": "product", "factors": [first, second]}, a * b
    if kind == "monomialQuotient":
        m, v, d = draw(st.integers(2, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
        exponents = st.lists(st.integers(0, 2), min_size=v, max_size=v).filter(any)
        relations = draw(st.lists(exponents, max_size=2))
        order = m ** len(list(monomial_basis(v, relations, d)))
        if order > cap:
            return {"kind": "cyclic", "n": m}, m
        return {"kind": "monomialQuotient", "m": m, "v": v, "relations": relations, "d": d}, order
    if kind == "groupRing":
        group = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
        size = math.prod(group)
        base, b = construction_document(draw, _root(cap, size))
        return {"kind": "groupRing", "base": base, "group": group}, b**size
    n = 2 if kind == "idealization" else draw(st.integers(2, 4))
    base, b = construction_document(draw, _root(cap, n))
    doc = {"kind": kind, "base": base}
    if kind == "polyQuotientXn":
        doc["n"] = n
    return doc, b**n


# -- the former per-element principal-ideal table, keyed by membership bits;
# the library now reads every principal-ideal question off rings._generator_min


def _membership_key(ring, ids: np.ndarray) -> bytes:
    mask = np.zeros(ring.order, dtype=bool)
    mask[ids] = True
    return np.packbits(mask).tobytes()


def _principal(ring, p: int) -> tuple[bytes, np.ndarray]:
    """(membership key, sorted ids) of pR from a per-ring table.

    Rows are filled on first use, one element at a time, and equal principal
    ideals share one entry.  (The table lives under its own cache names, so
    it never meets the library's.)
    """
    table = ring._cache.setdefault("former_principal", {})
    hit = table.get(p)
    if hit is None:
        mask = np.zeros(ring.order, dtype=bool)
        mask[ring.mul_table[p]] = True
        ids = np.flatnonzero(mask)
        key = _membership_key(ring, ids)
        shared = ring._cache.setdefault("former_principal_by_key", {})
        hit = table[p] = shared.setdefault(key, (key, ids))
    return hit


def keyed_generator_min(ring) -> np.ndarray:
    """Entry p is the smallest q whose principal ideal has p's membership key."""
    first: dict[bytes, int] = {}
    return np.array([first.setdefault(_principal(ring, p)[0], p) for p in range(ring.order)])


def keyed_candidate_data(ring) -> tuple[np.ndarray, list[list[int]]]:
    """The former content-search candidate table: Z(R)\\{0} grouped by key."""
    by_key: dict[bytes, list[int]] = {}
    zd = zero_divisor_mask_full(ring)
    for c in range(ring.order):
        if zd[c] and c != ring.zero:
            by_key.setdefault(_principal(ring, c)[0], []).append(c)
    classes = list(by_key.values())
    div = np.zeros((len(classes), ring.order), dtype=bool)
    for row, members in zip(div, classes):
        row[_principal(ring, members[0])[1]] = True
    return div, classes


def keyed_is_principal(ring, ideal) -> Optional[int]:
    """Smallest p with <p> equal to the ideal, or None (p ranges over the
    ideal, since p lies in pR)."""
    key = _membership_key(ring, ideal.elements)
    for p in ideal.elements.tolist():
        if _principal(ring, p)[0] == key:
            return int(p)
    return None


def keyed_t10_witnesses(grading) -> dict[int, Optional[int]]:
    """For each homogeneous a, the first idempotent b with Ann(a) = bR."""
    ring = grading.ring
    idem = [int(b) for b in np.flatnonzero(ring.mul_table.diagonal() == np.arange(ring.order))]
    homogeneous = sorted({ring.zero}.union(*(ids.tolist() for ids in grading.support.values())))
    witnesses = {}
    for a in homogeneous:
        ann = _membership_key(ring, np.flatnonzero(table_annihilator(ring, [a])))
        witnesses[int(a)] = next((b for b in idem if _principal(ring, b)[0] == ann), None)
    return witnesses


def keyed_ideal_lattice(ring, pool, max_gens: Optional[int] = None):
    """The former ideal-lattice enumeration, (generators, elements) per ideal,
    with level 1 deduplicated on membership keys."""
    reps: list[tuple[int, np.ndarray]] = []
    seen: set[bytes] = set()
    level = []
    for p in sorted(set(int(x) for x in pool)):
        key, ids = _principal(ring, p)
        if key in seen:
            continue
        seen.add(key)
        reps.append((p, ids))
        level.append((ids, (p,)))
        yield (p,), tuple(int(x) for x in ids)
    while level and (max_gens is None or len(level[0][1]) < max_gens):
        parents, level = level, []
        for ids, path in parents:
            members = np.zeros(ring.order, dtype=bool)
            members[ids] = True
            for p, pr in reps:
                if p <= path[-1] or members[p]:
                    continue
                joined = np.unique(ring.add_table[np.ix_(ids, pr)])
                key = _membership_key(ring, joined)
                if key in seen:
                    continue
                seen.add(key)
                level.append((joined, path + (p,)))
                yield path + (p,), tuple(int(x) for x in joined)


# -- the former t4 and t6 readings of a ring's corners: t4 localized at
# every nonzero homogeneous idempotent e != 1, and t6 first projected a
# product's grading onto its factors, then localized at the factor
# identities.  The suite now reads both rows off the atoms' corners,
# grading.graded_factors


_E1 = lambda: poly_quotient_xn(cyclic(4), 2, var="Y")

# rings that split into two or three graded factors under their canonical
# and trivial gradings; Z2 x Z2 x Z4 has three atoms and six proper
# homogeneous idempotents
SPLIT_RINGS = {
    "Z2 x e1": lambda: direct_product([cyclic(2), _E1()]),
    "e1 x Z3": lambda: direct_product([_E1(), cyclic(3)]),
    "Z4 x Z2[Y]/(Y^2)": lambda: direct_product(
        [cyclic(4), poly_quotient_xn(cyclic(2), 2, var="Y")]
    ),
    "Z6[Y]/(Y^2)": lambda: poly_quotient_xn(cyclic(6), 2, var="Y"),
    "Z10": lambda: cyclic(10),
    "Z12": lambda: cyclic(12),
    "Z2 x Z2 x Z4": lambda: direct_product([cyclic(2), cyclic(2), cyclic(4)]),
}


def _corner(ring, grading, e: int) -> Grading:
    """{1, e}^-1 R under its localization grading."""
    return localization_grading(localization(ring, grading, [ring.one, e]))


def former_t4_corners(ring, grading) -> list:
    """The corner at each nonzero homogeneous idempotent e != 1, ascending:
    the sets the former t4 row localized at."""
    return [
        _corner(ring, grading, e) for e in idempotents(ring).tolist()
        if e not in (ring.zero, ring.one) and grading.degree_of(e) is not None
    ]


def former_factor_corners(ring, grading) -> Optional[list]:
    """The corner e_iR of each factor identity e_i of a product ring, or
    None when some e_i is not homogeneous: the former t6 row's factors."""
    factors = ring.aux["factors"]
    ids = [
        int(digit_ids(ring, [[f.one if j == i else f.zero] for j, f in enumerate(factors)])[0])
        for i in range(len(factors))
    ]
    if any(grading.degree_of(e) is None for e in ids):
        return None
    return [_corner(ring, grading, e) for e in ids]


def product_project(ring, i: int, elem):
    """Image of a product-ring element, or an array of them, under
    projection to factor i: digit i of its mixed-radix id."""
    radices = ring.aux["radices"]
    return elem // int(np.prod(radices[:i])) % radices[i]


def former_projected_gradings(ring, grading) -> Optional[list]:
    """The gradings of the factors of a product ring by the projections of
    ``grading``'s components, or None when ``grading`` is not their product
    grading."""
    projected = []
    for i, factor in enumerate(ring.aux["factors"]):
        comps = {k: product_project(ring, i, ids) for k, ids in grading.support.items()}
        try:
            projected.append(Grading(factor, grading.group, comps))
        except GradingError:
            return None
    support = lambda g: {k: ids.tolist() for k, ids in g.support.items()}
    rebuilt = grading_module.product_grading(ring, projected)
    return projected if support(rebuilt) == support(grading) else None


# -- the former homogeneous zero-divisor pool builders, one per caller; the
# library now reads every pool off grading.component_zero_divisors


def former_component_pools(ring, grading) -> list:
    """(key, nonzero zero divisors of R_key) for each support component, in
    key order: a homogeneous coefficient set lies in one component, and a
    unit coefficient makes a polynomial regular."""
    zd = _zero_divisor_mask(ring)
    return [
        (key, {e for e in grading.support[key].tolist() if zd[e]} - {ring.zero})
        for key in grading.support_keys
    ]


def former_armendariz_pools(ring, grading) -> list:
    """The pools the former is_armendariz_g_graded scanned."""
    zd = set(zero_divisors(ring).tolist())
    return [(key, sorted(set(grading.support[key].tolist()) & zd)) for key in grading.support_keys]


def former_homogeneous_zero_divisors(grading) -> list[int]:
    zd = set(zero_divisors(grading.ring).tolist())
    return sorted(set(homogeneous_elements(grading).tolist()) & zd)


def former_check_t8_condition(grading) -> bool:
    """True iff no nonzero homogeneous element is a zero divisor."""
    hz = former_homogeneous_zero_divisors(grading)
    return all(e == grading.ring.zero for e in hz)


# -- the former whole-block table gather; construct._gather now gathers in
# row chunks


def former_gather(table: np.ndarray, x, y) -> np.ndarray:
    """``table[x, y]`` for broadcast index arrays, as one gather from the
    raveled table.  The flat index ``x * r + y`` is formed in intp: in the
    table's uint16 it would wrap once r^2 > 65535."""
    return table.ravel().take(np.multiply(x, table.shape[1], dtype=np.intp) + y)


# -- the content search before the annihilator prune: it tries every class
# whose principal ideal holds the coefficients, each through the acceptance
# test the library no longer needs (README, "Acceptance after the prune")


def try_candidate(ring, coeffs: Sequence[int], c: int) -> Optional[list[int]]:
    """The acceptance test for one candidate c: smallest representatives b_i
    of c*b = a_i, then accept iff Ann({b_i} u Ann(c)) = {0}.  Returns the
    b_i on success."""
    row = ring.mul_table[c]
    hits = row == np.asarray(coeffs)[:, None]
    if not hits.any(axis=1).all():
        return None  # some coefficient is not divisible by c
    reps = [int(b) for b in hits.argmax(axis=1)]
    ann_c = np.flatnonzero(row == ring.zero)
    ts = np.flatnonzero(annihilator_mask(ring, set(reps)))
    ts = ts[ts != ring.zero]
    for start in range(0, len(ts), 64):
        block = ts[start : start + 64]
        if (ring.mul_table[np.ix_(block, ann_c)] == ring.zero).all(axis=1).any():
            return None
    return reps


def unpruned_content(f, grading=None) -> Optional[tuple[int, Optional[int], tuple[int, ...]]]:
    """(c, homogeneous_c, cofactor coefficients) of the first accepted class
    among all classes cR that hold every coefficient of ``f``, or None.

    Candidates are tried through ``try_candidate``.  ``homogeneous_c`` is
    None without a grading, as in the library.
    """
    ring = f.ring

    def accepts(c):
        return try_candidate(ring, f.coeffs, c)

    div, classes, _ = analysis._candidate_data(ring)
    support = sorted(set(f.coeffs) - {ring.zero})
    viable = [classes[k] for k in np.flatnonzero(div[:, support].all(axis=1))]
    for at, members in enumerate(viable):
        reps = accepts(members[0])
        if reps is not None:
            break
    else:
        return None
    c = members[0]
    tail = [int(w) for w in np.flatnonzero(ring.mul_table[c] == ring.zero) if w != ring.zero]
    homogeneous_c = None
    if grading is not None and grading.degree_of(c) is not None:
        homogeneous_c = c
    elif grading is not None:
        firsts = []
        for members in viable[at:]:
            h = next((g for g in members if grading.degree_of(g) is not None), None)
            if h is not None:
                firsts.append((h, members[0]))
        homogeneous_c = next((h for h, first in sorted(firsts) if accepts(first) is not None), None)
    return c, homogeneous_c, tuple(reps) + tuple(tail)
