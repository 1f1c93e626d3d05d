"""G-gradings of finite rings: validation, decomposition, canonical gradings.

A grading stores only its nonzero support components, keyed by integer
vectors over a finitely generated abelian group (modulus 0 marks an infinite
cyclic coordinate).  Validation is exhaustive and precomputes the
decomposition table, after which every lookup is O(1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .rings import (
    ElementSet,
    FiniteRing,
    Ideal,
    InternalInvariantError,
    _membership_key,
    _principal,
    annihilator_mask,
    idempotents,
    units,
    zero_divisors,
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
    """A validated decomposition R = (+)_sigma R_sigma with multiplicativity.

    Construct with the raw support mapping, then pass through
    :func:`validate_grading` (the canonical-grading builders do this for
    you).  ``support`` maps degree keys to ElementSets; keys are kept in
    sorted order so every iteration downstream is deterministic.
    """

    def __init__(
        self,
        ring: FiniteRing,
        group: GradingGroup,
        components: Mapping[Sequence[int], Iterable[int]],
        labels: Optional[Mapping[DegreeKey, str]] = None,
    ):
        self.ring = ring
        self.group = group
        support: dict[DegreeKey, ElementSet] = {}
        for key, elems in components.items():
            k = group.reduce(tuple(key))
            es = ElementSet(ring, elems)
            if len(es) <= 1 and (not es.elements or es.elements[0] == ring.zero):
                continue  # zero component: not part of the support
            if k in support:
                raise GradingError("duplicate-degree", f"degree {k} appears twice")
            support[k] = es
        self.support = dict(sorted(support.items()))
        self.labels = dict(labels) if labels else {}
        self._validated = False
        self._decomp: Optional[np.ndarray] = None
        self._degree_pos: Optional[np.ndarray] = None

    @property
    def support_keys(self) -> list[DegreeKey]:
        return list(self.support.keys())

    def component(self, key: Sequence[int]) -> ElementSet:
        k = self.group.reduce(tuple(key))
        return self.support.get(k, ElementSet(self.ring, (self.ring.zero,)))

    def identity_component(self) -> ElementSet:
        return self.component(self.group.identity())

    def require_validated(self) -> None:
        if not self._validated:
            raise InternalInvariantError("grading used before validate_grading")

    def degree_of(self, a: int) -> Optional[DegreeKey]:
        """Degree of a nonzero homogeneous element, else None (deg 0 undefined)."""
        self.require_validated()
        if a == self.ring.zero:
            return None
        pos = int(self._degree_pos[a])
        return self.support_keys[pos] if pos >= 0 else None

    def to_dict(self) -> dict:
        return {
            "moduli": list(self.group.moduli),
            "components": [
                {"degree": list(k), "elements": [int(e) for e in es.elements]}
                for k, es in self.support.items()
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
    comps = {tuple(c["degree"]): c["elements"] for c in comps}
    return validate_grading(Grading(ring, group, comps))


def validate_grading(grading: Grading) -> Grading:
    """Exhaustively verify every grading invariant and precompute lookups.

    Checks, in order: each component is an additive subgroup; the components
    sum directly to the whole ring (counting plus bijectivity of the sum
    map); multiplicativity R_sigma R_tau inside R_{sigma tau}; and 1 in R_e.
    Raises :class:`GradingError` naming the violated clause.
    """
    ring = grading.ring
    n = ring.order
    keys = grading.support_keys
    comps = [np.fromiter(grading.support[k].elements, dtype=np.int64) for k in keys]

    for k, c in zip(keys, comps):
        members = np.zeros(n, dtype=bool)
        members[c] = True
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
    masks = []
    for c in comps:
        m = np.zeros(n, dtype=bool)
        m[c] = True
        masks.append(m)
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

    degree_pos = np.full(n, -1, dtype=np.int64)
    for pos, c in enumerate(comps):
        nonzero = c[c != ring.zero]
        degree_pos[nonzero] = pos
    grading._decomp = decomp
    grading._degree_pos = degree_pos
    grading._validated = True
    return grading


# -- queries -------------------------------------------------------------------


def decompose(grading: Grading, a: int) -> dict[DegreeKey, int]:
    """Unique decomposition of ``a``; keys with zero component are omitted."""
    grading.require_validated()
    row = grading._decomp[a]
    return {
        k: int(row[pos])
        for pos, k in enumerate(grading.support_keys)
        if int(row[pos]) != grading.ring.zero
    }


def homogeneous_elements(grading: Grading) -> ElementSet:
    ids = {grading.ring.zero}
    for es in grading.support.values():
        ids.update(es.elements)
    return ElementSet(grading.ring, ids)


def homogeneous_zero_divisors(grading: Grading) -> ElementSet:
    zd = zero_divisors(grading.ring).element_set
    return ElementSet(grading.ring, homogeneous_elements(grading).element_set & zd)


def is_graded_ideal(grading: Grading, ideal: Ideal) -> bool:
    """True iff every member's homogeneous components lie in the ideal."""
    grading.require_validated()
    ids = np.fromiter(ideal.elements, dtype=np.int64)
    mask = np.zeros(grading.ring.order, dtype=bool)
    mask[ids] = True
    return bool(mask[grading._decomp[ids]].all())


def is_crossed_product(grading: Grading) -> tuple[bool, dict[DegreeKey, Optional[int]]]:
    """Does every support component contain a unit?

    On success each witness is the smallest unit u of its component, verified
    to satisfy R_sigma = R_e u (which crossed products guarantee); a failure
    of that identity would be an internal bug, not a property verdict.
    """
    grading.require_validated()
    ring = grading.ring
    unit_set = units(ring).element_set
    re = np.fromiter(grading.identity_component().elements, dtype=np.int64)
    witnesses: dict[DegreeKey, Optional[int]] = {}
    ok = True
    for key, es in grading.support.items():
        comp_units = [u for u in es.elements if u in unit_set]
        if not comp_units:
            witnesses[key] = None
            ok = False
            continue
        chosen = None
        target = np.fromiter(es.elements, dtype=np.int64)
        for u in comp_units:
            if np.array_equal(np.unique(ring.mul_table[re, u]), target):
                chosen = u
                break
        if chosen is None:
            raise InternalInvariantError(
                f"component {key} has a unit but is not R_e times a unit"
            )
        witnesses[key] = int(chosen)
    return ok, witnesses


def transport_grading(grading: Grading, auto: "Automorphism") -> Grading:
    """Push the grading forward through a validated ring automorphism."""
    validate_automorphism(auto)
    perm = np.fromiter(auto.perm, dtype=np.int64)
    comps = {
        k: [int(perm[e]) for e in es.elements] for k, es in grading.support.items()
    }
    return validate_grading(Grading(grading.ring, grading.group, comps))


@dataclass(frozen=True)
class Automorphism:
    """A ring automorphism as a permutation of element ids."""

    ring: FiniteRing
    perm: tuple[int, ...]


def validate_automorphism(auto: Automorphism) -> Automorphism:
    ring = auto.ring
    perm = np.fromiter(auto.perm, dtype=np.int64)
    if len(perm) != ring.order or len(np.unique(perm)) != ring.order:
        raise ValueError("automorphism is not a permutation of the elements")
    if perm[ring.zero] != ring.zero or perm[ring.one] != ring.one:
        raise ValueError("automorphism must fix 0 and 1")
    if not np.array_equal(perm[ring.add_table], ring.add_table[perm[:, None], perm[None, :]]):
        raise ValueError("automorphism does not preserve addition")
    if not np.array_equal(perm[ring.mul_table], ring.mul_table[perm[:, None], perm[None, :]]):
        raise ValueError("automorphism does not preserve multiplication")
    return auto


# -- hypothesis checks used by the theorem catalog -------------------------------


def check_t2_hypotheses(grading: Grading) -> tuple[bool, dict[DegreeKey, Optional[int]]]:
    """For each support component, find u with R_sigma = R_e u and no nonzero
    annihilator of u inside R_e; reports the smallest such u per component."""
    grading.require_validated()
    ring = grading.ring
    re = np.fromiter(grading.identity_component().elements, dtype=np.int64)
    ok = True
    witnesses: dict[DegreeKey, Optional[int]] = {}
    for key, es in grading.support.items():
        target = np.fromiter(es.elements, dtype=np.int64)
        found = None
        for u in es.elements:
            if u == ring.zero:
                continue
            products = ring.mul_table[re, u]
            if not np.array_equal(np.unique(products), target):
                continue
            kills = re[products == ring.zero]
            if len(kills) == 0 or (len(kills) == 1 and int(kills[0]) == ring.zero):
                found = int(u)
                break
        witnesses[key] = found
        if found is None:
            ok = False
    return ok, witnesses


def check_t8_condition(grading: Grading) -> bool:
    """True iff no nonzero homogeneous element is a zero divisor."""
    hz = homogeneous_zero_divisors(grading)
    return all(e == grading.ring.zero for e in hz.elements)


def check_t10_condition(grading: Grading) -> tuple[bool, dict[int, Optional[int]]]:
    """For each homogeneous a, find an idempotent b with Ann(a) = bR."""
    grading.require_validated()
    ring = grading.ring
    idem = idempotents(ring).elements
    ok = True
    witnesses: dict[int, Optional[int]] = {}
    for a in homogeneous_elements(grading).elements:
        ann = _membership_key(ring, np.flatnonzero(annihilator_mask(ring, [a])))
        found = next((b for b in idem if _principal(ring, b)[0] == ann), None)
        witnesses[int(a)] = found
        if found is None:
            ok = False
    return ok, witnesses


# -- canonical gradings ----------------------------------------------------------


def trivial_grading(ring: FiniteRing) -> Grading:
    group = GradingGroup((1,))
    return validate_grading(Grading(ring, group, {(0,): range(ring.order)}))


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
    """Componentwise grading of a direct product of same-group graded rings."""
    prov = ring.provenance or {}
    if prov.get("kind") != "product":
        raise ValueError("product_grading needs a direct_product ring")
    factors = ring.aux["factors"]
    radices = ring.aux["radices"]
    if len(factor_gradings) != len(factors):
        raise ValueError("one grading per factor required")
    moduli = factor_gradings[0].group.moduli
    if any(g.group.moduli != moduli for g in factor_gradings):
        raise ValueError("factor gradings must share one group")
    weights = [int(np.prod(radices[:i])) for i in range(len(factors))]
    keys = sorted({k for g in factor_gradings for k in g.support_keys})
    comps = {}
    for key in keys:
        enc = np.zeros(1, dtype=np.int64)
        for i, g in enumerate(factor_gradings):
            elems = np.fromiter(g.component(key).elements, dtype=np.int64)
            enc = (enc[:, None] + elems[None, :] * weights[i]).ravel()
        comps[key] = enc
    return validate_grading(Grading(ring, GradingGroup(moduli), comps))


def localization_grading(ring: FiniteRing) -> Grading:
    """Grading of S^-1 R with deg(a/s) = deg(a) - deg(s).

    Every class must land in a single component across all its homogeneous
    presentations; a conflict fails loudly since it can only come from an
    implementation bug, not from the mathematics.
    """
    prov = ring.provenance or {}
    if prov.get("kind") != "localization":
        raise ValueError("localization_grading needs a localization ring")
    base: FiniteRing = ring.aux["base"]
    bgrading: Grading = ring.aux["grading"]
    pair_class = ring.aux["pair_class"]
    pair_a = ring.aux["pair_a"]
    pair_s = ring.aux["pair_s"]
    group = bgrading.group
    class_deg: dict[int, DegreeKey] = {}
    for p in range(len(pair_class)):
        a, s = int(pair_a[p]), int(pair_s[p])
        if a == base.zero or s == base.zero:
            continue
        da = bgrading.degree_of(a)
        if da is None:
            continue
        ds = bgrading.degree_of(s)
        cls = int(pair_class[p])
        if cls == ring.zero:
            continue
        lam = group.op(da, group.inverse(ds))
        seen = class_deg.get(cls)
        if seen is not None and seen != lam:
            raise GradingError(
                "localization-degree-conflict",
                f"class {cls} presents in degrees {seen} and {lam}",
            )
        class_deg[cls] = lam
    comps: dict[DegreeKey, set[int]] = {}
    for cls, lam in class_deg.items():
        comps.setdefault(lam, {ring.zero}).add(cls)
    return validate_grading(Grading(ring, group, comps))


def square_zero_extension_grading(ring: FiniteRing, base_grading: Grading) -> Grading:
    """Lift a base grading to R[x]/(x^2): component at sigma is R_sigma + R_sigma X."""
    prov = ring.provenance or {}
    if prov.get("kind") != "polyQuotientXn" or prov.get("n") != 2:
        raise ValueError("square_zero_extension_grading needs R[x]/(x^2)")
    b = prov["base_order"]
    comps = {}
    for key, es in base_grading.support.items():
        elems = np.fromiter(es.elements, dtype=np.int64)
        comps[key] = (elems[:, None] + elems[None, :] * b).ravel()
    return validate_grading(Grading(ring, base_grading.group, comps))


def canonical_grading(ring: FiniteRing) -> Grading:
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
            ring, [canonical_grading(f) for f in ring.aux["factors"]]
        )
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
