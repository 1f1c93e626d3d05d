"""G-gradings of finite rings: validation, decomposition, canonical gradings.

A grading stores only its nonzero support components, keyed by integer
vectors over a finitely generated abelian group (modulus 0 marks an infinite
cyclic coordinate).  Validation is exhaustive and precomputes the
decomposition table, after which every lookup is O(1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .construct import digit_ids, localization
from .rings import (
    FiniteRing,
    Ideal,
    InternalInvariantError,
    _frozen,
    _zero_divisor_mask,
    element_ids,
    idempotents,
    units,
)

DegreeKey = tuple[int, ...]


class GradingError(ValueError):
    """A grading axiom failed; names the violated clause with a witness."""

    def __init__(self, clause: str, detail: str):
        self.clause = clause
        super().__init__(f"grading invalid ({clause}): {detail}")


@dataclass(frozen=True)
class GradingGroup:
    """Finitely generated abelian group as a vector of cyclic moduli.

    Modulus 0 means an infinite cyclic coordinate; elements are integer
    vectors reduced per nonzero modulus, added coordinatewise.
    """

    moduli: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "moduli", tuple(int(m) for m in self.moduli))
        if any(m < 0 for m in self.moduli):
            raise ValueError("moduli must be >= 0 (0 marks an infinite coordinate)")

    def identity(self) -> DegreeKey:
        return (0,) * len(self.moduli)

    def reduce(self, vec: Sequence[int]) -> DegreeKey:
        if len(vec) != len(self.moduli):
            raise ValueError(f"degree vector {vec} has wrong length")
        return tuple(int(v) % m if m else int(v) for v, m in zip(vec, self.moduli))

    def op(self, a: Sequence[int], b: Sequence[int]) -> DegreeKey:
        return self.reduce([x + y for x, y in zip(a, b)])

    def inverse(self, a: Sequence[int]) -> DegreeKey:
        return self.reduce([-x for x in a])


class Grading:
    """A decomposition R = (+)_sigma R_sigma with multiplicativity, validated
    when built.

    ``components`` maps degree vectors to element ids; zero components are
    dropped, and the constructor ends with :func:`validate_grading`, which
    raises :class:`GradingError` on a violated axiom, so every Grading is
    valid.  ``support`` maps degree keys to element sets (``element_ids``
    arrays, which reject an id out of range); keys are kept in
    sorted order so every iteration downstream is deterministic.
    """

    def __init__(
        self,
        ring: FiniteRing,
        group: GradingGroup,
        components: Mapping[Sequence[int], Iterable[int]],
    ):
        self.ring = ring
        self.group = group
        support: dict[DegreeKey, np.ndarray] = {}
        for key, elems in components.items():
            k = group.reduce(tuple(key))
            ids = element_ids(ring, elems)
            if (ids == ring.zero).all():
                continue  # zero component: not part of the support
            if k in support:
                raise GradingError("duplicate-degree", f"degree {k} appears twice")
            support[k] = ids
        self.support = dict(sorted(support.items()))
        validate_grading(self)

    @property
    def support_keys(self) -> list[DegreeKey]:
        return list(self.support.keys())

    def component(self, key: Sequence[int]) -> np.ndarray:
        k = self.group.reduce(tuple(key))
        return self.support.get(k, element_ids(self.ring, [self.ring.zero]))

    def identity_component(self) -> np.ndarray:
        return self.component(self.group.identity())

    def degree_of(self, a: int) -> Optional[DegreeKey]:
        """Degree of a nonzero homogeneous element, else None (deg 0 undefined)."""
        return self._degrees[a]

    def to_dict(self) -> dict:
        return {
            "moduli": list(self.group.moduli),
            "components": [
                {"degree": list(k), "elements": ids.tolist()}
                for k, ids in self.support.items()
            ],
        }


def _int_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, int) for v in value)


def grading_from_dict(ring: FiniteRing, doc: Mapping) -> Grading:
    comps = doc.get("components")
    if not (_int_list(doc.get("moduli")) and isinstance(comps, list) and all(
        isinstance(c, Mapping) and _int_list(c.get("degree")) and _int_list(c.get("elements"))
        for c in comps
    )):
        raise GradingError("malformed-document", "expected {moduli: [int], components: "
                           "[{degree: [int], elements: [int]}]}")
    group = GradingGroup(tuple(doc["moduli"]))
    by_degree: dict[DegreeKey, list[int]] = {}
    for c in comps:
        key = tuple(c["degree"])
        if key in by_degree:
            raise GradingError("duplicate-degree", f"degree {key} appears twice")
        by_degree[key] = c["elements"]
    return Grading(ring, group, by_degree)


def validate_grading(grading: Grading) -> Grading:
    """Exhaustively verify every grading invariant and precompute lookups.

    Checks, in order: each component is an additive subgroup; the components
    sum directly to the whole ring (counting plus bijectivity of the sum
    map); multiplicativity R_sigma R_tau inside R_{sigma tau}; and 1 in R_e.
    Raises :class:`GradingError` naming the violated clause.  The Grading
    constructor calls it; on a built grading it checks again and returns it.
    """
    ring = grading.ring
    n = ring.order
    keys = grading.support_keys
    comps = [grading.support[k] for k in keys]

    masks = []
    for k, c in zip(keys, comps):
        members = np.zeros(n, dtype=bool)
        members[c] = True
        masks.append(members)
        if not members[ring.zero]:
            raise GradingError("not-a-subgroup", f"component {k} misses 0")
        sums = ring.add_table[np.ix_(c, c)]
        ok = members[sums]
        if not ok.all():
            i, j = np.argwhere(~ok)[0]
            raise GradingError(
                "not-a-subgroup",
                f"component {k}: {int(c[i])} + {int(c[j])} leaves the component",
            )

    sizes = [len(c) for c in comps]
    total = int(np.prod(sizes)) if sizes else 1
    if total != n:
        raise GradingError(
            "not-direct-sum", f"component sizes multiply to {total}, ring order is {n}"
        )
    partial = np.array([ring.zero], dtype=np.int64)
    for c in comps:
        partial = ring.add_table[np.ix_(partial, c)].ravel().astype(np.int64)
    counts = np.bincount(partial, minlength=n)
    if (counts != 1).any():
        elem = int(np.nonzero(counts != 1)[0][0])
        raise GradingError(
            "not-direct-sum", f"element {elem} has {int(counts[elem])} decompositions"
        )
    inv = np.empty(n, dtype=np.int64)
    inv[partial] = np.arange(total)
    decomp = np.zeros((n, len(keys)), dtype=np.int64)
    if keys:
        digits = np.unravel_index(inv, tuple(sizes))
        for pos in range(len(keys)):
            decomp[:, pos] = comps[pos][digits[pos]]
    resum = np.full(n, ring.zero, dtype=np.int64)
    for pos in range(len(keys)):
        resum = ring.add_table[resum, decomp[:, pos]].astype(np.int64)
    if not np.array_equal(resum, np.arange(n)):
        raise InternalInvariantError("decomposition table does not re-sum to identity")

    key_pos = {k: i for i, k in enumerate(keys)}
    for i, sigma in enumerate(keys):
        for j, tau in enumerate(keys):
            target = grading.group.op(sigma, tau)
            prods = ring.mul_table[np.ix_(comps[i], comps[j])]
            if target in key_pos:
                ok = masks[key_pos[target]][prods]
            else:
                ok = prods == ring.zero
            if not ok.all():
                a, b = np.argwhere(~ok)[0]
                raise GradingError(
                    "multiplicativity",
                    f"{int(comps[i][a])} in R_{sigma} times {int(comps[j][b])} "
                    f"in R_{tau} lands outside R_{target}",
                )

    if ring.one != ring.zero:
        e = grading.group.identity()
        if e not in key_pos or ring.one not in grading.support[e]:
            raise GradingError("identity-component", "1 is not in R_e")

    degrees: list[Optional[DegreeKey]] = [None] * n
    for k, c in zip(keys, comps):
        for a in c[c != ring.zero].tolist():
            degrees[a] = k
    grading._decomp = decomp
    grading._degrees = degrees
    return grading


# -- queries -------------------------------------------------------------------


def decompose(grading: Grading, a: int) -> dict[DegreeKey, int]:
    """Unique decomposition of ``a``; keys with zero component are omitted."""
    row = grading._decomp[a]
    return {
        k: int(row[pos])
        for pos, k in enumerate(grading.support_keys)
        if int(row[pos]) != grading.ring.zero
    }


def homogeneous_elements(grading: Grading) -> np.ndarray:
    mask = np.zeros(grading.ring.order, dtype=bool)
    mask[grading.ring.zero] = True
    for ids in grading.support.values():
        mask[ids] = True
    return _frozen(np.flatnonzero(mask))


def component_zero_divisors(grading: Grading) -> list[tuple[DegreeKey, np.ndarray]]:
    """(key, ids) for each support component in key order, ``ids`` the
    ascending nonzero zero divisors in R_key.  These are the coefficient pools
    of the homogeneous zero-divisor polynomials: their coefficients lie in one
    component, and a unit coefficient would make them regular."""
    ring = grading.ring
    zd = _zero_divisor_mask(ring)
    pools = []
    for key, ids in grading.support.items():
        pools.append((key, ids[zd[ids] & (ids != ring.zero)]))
    return pools


def is_graded_ideal(grading: Grading, ideal: Ideal) -> bool:
    """True iff every member's homogeneous components lie in the ideal."""
    ids = ideal.elements
    mask = np.zeros(grading.ring.order, dtype=bool)
    mask[ids] = True
    return bool(mask[grading._decomp[ids]].all())


def _generators(grading: Grading, comp: np.ndarray) -> Iterator[int]:
    """The ascending nonzero u in the component ``comp`` = R_sigma with
    R_e u = R_sigma.  Multiplicativity puts R_e u inside R_sigma, so they are
    equal iff R_e u has |R_sigma| elements."""
    ring, re = grading.ring, grading.identity_component()
    for u in comp[comp != ring.zero].tolist():
        if len(np.unique(ring.mul_table[u, re])) == len(comp):
            yield u


def is_crossed_product(grading: Grading) -> tuple[bool, dict[DegreeKey, Optional[int]]]:
    """Does every support component contain a unit?

    On success each witness is the smallest unit u of its component, verified
    to satisfy R_sigma = R_e u (which crossed products guarantee); a failure
    of that identity would be an internal bug, not a property verdict.
    """
    unit = np.zeros(grading.ring.order, dtype=bool)
    unit[units(grading.ring)] = True
    witnesses: dict[DegreeKey, Optional[int]] = {}
    for key, comp in grading.support.items():
        witnesses[key] = next((u for u in _generators(grading, comp) if unit[u]), None)
        if witnesses[key] is None and unit[comp].any():
            raise InternalInvariantError(
                f"component {key} has a unit but is not R_e times a unit"
            )
    return None not in witnesses.values(), witnesses


# -- hypothesis checks used by the theorem catalog -------------------------------


def check_t2_hypotheses(grading: Grading) -> tuple[bool, dict[DegreeKey, Optional[int]]]:
    """For each support component, find u with R_sigma = R_e u and no nonzero
    annihilator of u inside R_e; reports the smallest such u per component."""
    ring, re = grading.ring, grading.identity_component()
    witnesses = {
        key: next((u for u in _generators(grading, comp)
                   if np.count_nonzero(ring.mul_table[u, re] == ring.zero) == 1), None)
        for key, comp in grading.support.items()
    }
    return None not in witnesses.values(), witnesses


def check_t8_condition(grading: Grading) -> bool:
    """True iff no nonzero homogeneous element is a zero divisor."""
    return not any(len(pool) for _, pool in component_zero_divisors(grading))


def check_t10_condition(grading: Grading) -> tuple[bool, dict[int, Optional[int]]]:
    """For each homogeneous a, the smallest idempotent b with Ann(a) = bR:
    ab = 0 puts bR inside Ann(a), and |bR| = |R| / |Ann(b)| (README,
    principal-class reduction), so they are equal iff the sizes agree."""
    ring = grading.ring
    idem = idempotents(ring)
    idem_ann = (ring.mul_table[idem] == ring.zero).sum(axis=1)
    witnesses: dict[int, Optional[int]] = {}
    for a in homogeneous_elements(grading).tolist():
        kills = ring.mul_table[a] == ring.zero
        hits = idem[kills[idem] & (np.count_nonzero(kills) * idem_ann == ring.order)]
        witnesses[int(a)] = int(hits[0]) if len(hits) else None
    return None not in witnesses.values(), witnesses


# -- canonical gradings ----------------------------------------------------------


def trivial_grading(ring: FiniteRing) -> Grading:
    group = GradingGroup((1,))
    return Grading(ring, group, {(0,): range(ring.order)})


def _digit_grading(ring: FiniteRing, group: GradingGroup, keys: Sequence, digits) -> Grading:
    """Validated grading of a mixed-radix ring whose component at ``keys[i]``
    holds the ids with digit k in ``digits[i][k]`` (README, "Digit-set
    gradings")."""
    comps = {key: digit_ids(ring, sets) for key, sets in zip(keys, digits)}
    return Grading(ring, group, comps)


# kind -> (moduli, degree of each basis element) of a coefficient-vector ring,
# whose component of degree d_k is the base at digit k
_VECTOR_DEGREES = {
    "polyQuotientXn": lambda ring, p: ((p["n"],), [(k,) for k in range(p["n"])]),
    "monomialQuotient": lambda ring, p: ((0,) * p["v"], ring.aux["basis_monomials"]),
    "idealization": lambda ring, p: ((2,), [(0,), (1,)]),
    "groupRing": lambda ring, p: (tuple(p["group"]), ring.aux["group_elements"]),
}


def product_grading(ring: FiniteRing, factor_gradings: Sequence[Grading]) -> Grading:
    """Componentwise grading of a direct product (README, "Digit-set
    gradings").  When the graded factors share one group G, the component of
    sigma has (R_i)_sigma at digit i.  When their groups differ, the product
    is graded by the product group, their moduli concatenated, and
    (R_i)_sigma sits at sigma in factor i's coordinates and e elsewhere.  A
    factor graded by its identity component alone lies in degree e."""
    prov = ring.provenance or {}
    if prov.get("kind") != "product":
        raise ValueError("product_grading needs a direct_product ring")
    if len(factor_gradings) != len(ring.aux["factors"]):
        raise ValueError("one grading per factor required")
    graded = [i for i, g in enumerate(factor_gradings)
              if set(g.support_keys) - {g.group.identity()}]
    moduli = [factor_gradings[i].group.moduli for i in graded]
    if len(set(moduli)) > 1:  # the product group: factor i at its own coordinates
        group = GradingGroup(sum(moduli, ()))
        ends = np.cumsum([len(m) for m in moduli]).tolist()
        spans = {i: (end - len(m), end) for i, m, end in zip(graded, moduli, ends)}
    else:
        group = factor_gradings[graded[0] if graded else 0].group
        spans = {i: (0, len(group.moduli)) for i in graded}
    identity = group.identity()

    def digit_set(i, key):
        g = factor_gradings[i]
        if i not in spans:  # graded by its identity component alone: degree e
            return g.ring.elements() if key == identity else (g.ring.zero,)
        lo, hi = spans[i]
        if key[:lo] + key[hi:] != identity[:lo] + identity[hi:]:
            return (g.ring.zero,)
        return g.component(key[lo:hi])

    keys = sorted({identity, *(identity[:lo] + k + identity[hi:]
                               for i, (lo, hi) in spans.items()
                               for k in factor_gradings[i].support_keys)})
    digits = [[digit_set(i, key) for i in range(len(factor_gradings))] for key in keys]
    return _digit_grading(ring, group, keys, digits)


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
    return Grading(ring, bgrading.group, comps)


def graded_factors(ring: FiniteRing, grading: Optional[Grading]) -> list[Grading]:
    """The graded factors eR of R (README, "Graded factors"), one per atom,
    that is per primitive homogeneous idempotent e, ascending: each is the
    corner {1, e}^-1 R under its localization grading.  [] when 1 is the
    only atom.  ``grading`` None stands for the trivial grading, built only
    when R splits."""
    idem = idempotents(ring)
    idem = idem[[e != ring.zero and (grading is None or grading.degree_of(e) is not None)
                 for e in idem.tolist()]]
    # f <= e iff fe = f; e is an atom when it lies above no other f
    below = ring.mul_table[np.ix_(idem, idem)] == idem
    atoms = idem[below.sum(axis=1) == 1]
    if len(atoms) < 2:
        return []
    if grading is None:
        grading = trivial_grading(ring)
    return [localization_grading(localization(ring, grading, [ring.one, int(e)])) for e in atoms]


def square_zero_extension_grading(ring: FiniteRing, base_grading: Grading) -> Grading:
    """Lift a base grading to R[x]/(x^2): component at sigma is R_sigma + R_sigma X."""
    prov = ring.provenance or {}
    if prov.get("kind") != "polyQuotientXn" or prov.get("n") != 2:
        raise ValueError("square_zero_extension_grading needs R[x]/(x^2)")
    digits = [[ids] * 2 for ids in base_grading.support.values()]
    return _digit_grading(ring, base_grading.group, base_grading.support_keys, digits)


def canonical_grading(ring: FiniteRing) -> Grading:
    """The natural grading of a constructed ring, dispatched on provenance."""
    prov = ring.provenance or {}
    kind = prov.get("kind")
    if kind in _VECTOR_DEGREES:
        moduli, degrees = _VECTOR_DEGREES[kind](ring, prov)
        base, nb = ring.aux["base"], len(degrees)
        whole, zero = range(base.order), [base.zero]
        digits = [[whole if j == k else zero for j in range(nb)] for k in range(nb)]
        return _digit_grading(ring, GradingGroup(moduli), degrees, digits)
    if kind == "product":
        return product_grading(ring, [canonical_grading(f) for f in ring.aux["factors"]])
    if kind == "localization":
        return localization_grading(ring)
    return trivial_grading(ring)


def grading_for_spec(ring: FiniteRing, spec) -> Grading:
    """Resolve a grading argument: 'canonical', 'trivial', or a document."""
    if spec == "canonical" or spec is None:
        return canonical_grading(ring)
    if spec == "trivial":
        return trivial_grading(ring)
    if isinstance(spec, Mapping):
        return grading_from_dict(ring, spec)
    raise ValueError(f"unknown grading spec {spec!r}")
