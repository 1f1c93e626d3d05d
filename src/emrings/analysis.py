"""Annihilating-content search with certificates and the EM-property deciders.

The central reductions: a polynomial's zero-divisor status and the existence
of an annihilating content depend only on the ideal its coefficients
generate, and for each candidate content c one representative per
coefficient suffices once all of Ann(c) is appended to the cofactor.  Both
facts carry oracle tests in the suite (they are proved in the README's
algorithm notes, then validated against unrestricted brute force).

Every decider returns a :class:`PropertyReport` whose false verdicts carry a
re-checkable counterexample and whose bounded verdicts list the caps used.
Candidate and ideal scans run sequentially in canonical order and stop at
the first hit, so verdicts and witnesses are deterministic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .construct import _decode_all
from .grading import Grading, homogeneous_elements, is_graded_ideal
from .poly import (
    BivariatePolynomial,
    Polynomial,
    biv_scale,
    is_zero_divisor_poly,
    kronecker_flatten,
    kronecker_unflatten,
    poly_scale,
    poly_str,
)
from .rings import (
    FiniteRing,
    InternalInvariantError,
    _principal,
    annihilator_mask,
    ideal_lattice,
    units,
    zero_divisors,
)


@dataclass(frozen=True)
class SearchCaps:
    """Bounds shared by the deciders.

    ``max_degree`` bounds polynomial enumeration (pairs and tuples).
    ``jobs`` is accepted for compatibility and has no effect: every scan
    runs sequentially.
    """

    max_degree: int = 3
    jobs: int = 1


@dataclass
class PropertyReport:
    """Decider outcome: verdict, witness, and the bounds that were in force."""

    property: str
    verdict: str  # "true" | "false" | "true_up_to_bounds"
    witness: Optional[dict] = None
    bounds: dict = field(default_factory=dict)
    millis: float = 0.0

    @property
    def holds(self) -> bool:
        return self.verdict != "false"

    def to_dict(self, timing: bool = True) -> dict:
        return {
            "property": self.property,
            "verdict": self.verdict,
            "witness": self.witness,
            "bounds": self.bounds,
            "millis": self.millis if timing else None,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "PropertyReport":
        return cls(
            property=doc["property"],
            verdict=doc["verdict"],
            witness=doc.get("witness"),
            bounds=doc.get("bounds", {}),
            millis=doc.get("millis") or 0.0,
        )


@dataclass(frozen=True)
class ContentWitness:
    """A certified factorization f = c*g with c a zero divisor, g regular."""

    c: int
    g: Polynomial
    homogeneous_c: Optional[int] = None

    def revalidate(self, f: Polynomial) -> None:
        ring = f.ring
        if self.c == ring.zero:
            raise InternalInvariantError("content witness c is zero")
        c_ann = annihilator_mask(ring, [self.c])
        if int(c_ann.sum()) == 1:
            raise InternalInvariantError("content witness c is not a zero divisor")
        if poly_scale(self.c, self.g) != f:
            raise InternalInvariantError("content witness does not factor f")
        g_ann = annihilator_mask(ring, set(self.g.coeffs))
        if int(g_ann.sum()) != 1:
            raise InternalInvariantError("cofactor has a nonzero annihilator")
        f_ann = annihilator_mask(ring, set(f.coeffs))
        if not np.array_equal(f_ann, c_ann):
            raise InternalInvariantError("Ann(C(f)) differs from Ann(c)")
        if self.homogeneous_c is not None and self.homogeneous_c == ring.zero:
            raise InternalInvariantError("homogeneous content witness is zero")

    def to_dict(self) -> dict:
        ring = self.g.ring
        return {
            "c": int(self.c),
            "c_label": ring.label(self.c),
            "g": [int(x) for x in self.g.coeffs],
            "g_str": poly_str(self.g),
            "homogeneous_c": None if self.homogeneous_c is None else int(self.homogeneous_c),
        }


# -- deterministic scanning ----------------------------------------------------


def first_hit(items: Iterable, check: Callable):
    """First item (in iteration order) for which check() is not None.

    Returns (item, payload) or None; no item past the hit is checked.
    """
    for item in items:
        payload = check(item)
        if payload is not None:
            return item, payload
    return None


# -- candidate machinery -------------------------------------------------------


def _candidate_data(ring: FiniteRing) -> tuple[np.ndarray, list[list[int]]]:
    """The distinct principal ideals cR over c in Z(R)\\{0}, one row each,
    in ascending order of their smallest generator.

    Returns their membership masks (row r marks c_r * R, so step (1) of the
    content search is one vectorized lookup) and the generators of each
    ideal, ascending.  The generators of one cR are associates, so they all
    accept or all fail (README, principal-class reduction).
    """
    cached = ring._cache.get("content_candidates")
    if cached is None:
        by_key: dict[bytes, list[int]] = {}
        for c in zero_divisors(ring).elements:
            if c != ring.zero:
                by_key.setdefault(_principal(ring, c)[0], []).append(c)
        classes = list(by_key.values())
        div = np.zeros((len(classes), ring.order), dtype=bool)
        for row, members in zip(div, classes):
            row[_principal(ring, members[0])[1]] = True
        cached = (div, classes)
        ring._cache["content_candidates"] = cached
    return cached


def _try_candidate(ring: FiniteRing, coeffs: Sequence[int], c: int) -> Optional[list[int]]:
    """Steps (2)-(3) for one candidate c: smallest representatives, then the
    acceptance test Ann({b_i} u Ann(c)) = {0}.  Returns the b_i on success."""
    row = ring.mul_table[c]
    hits = row == np.asarray(coeffs)[:, None]
    if not hits.any(axis=1).all():
        return None  # some coefficient is not divisible by c
    reps = [int(b) for b in hits.argmax(axis=1)]
    ann_c = np.flatnonzero(row == ring.zero)
    mask = annihilator_mask(ring, set(reps))
    ts = np.nonzero(mask)[0]
    ts = ts[ts != ring.zero]
    if len(ts) == 0:
        return reps
    for start in range(0, len(ts), 64):
        block = ts[start : start + 64]
        kills = (ring.mul_table[np.ix_(block, ann_c)] == ring.zero).all(axis=1)
        if kills.any():
            return None
    return reps


def _witness_polynomial(ring: FiniteRing, c: int, reps: Sequence[int]) -> Polynomial:
    row = ring.mul_table[c]
    tail = [int(w) for w in np.nonzero(row == ring.zero)[0] if w != ring.zero]
    return Polynomial(ring, tuple(reps) + tuple(tail))


def _homogeneous_content(
    ring: FiniteRing, coeffs: Sequence[int], grading: Grading, classes: list[list[int]]
) -> Optional[int]:
    """Smallest homogeneous generator over the accepted classes among
    ``classes``, whose first entry is the class of the content c found."""
    c = classes[0][0]
    if grading.degree_of(c) is not None:
        return c
    firsts = []
    for members in classes:
        h = next((g for g in members if grading.degree_of(g) is not None), None)
        if h is not None:
            firsts.append((h, members[0]))
    hit = first_hit(sorted(firsts), lambda hg: _try_candidate(ring, coeffs, hg[1]))
    return None if hit is None else hit[0][0]


def find_annihilating_content(
    f: Polynomial,
    grading: Optional[Grading] = None,
) -> Optional[ContentWitness]:
    """Smallest annihilating content of f in Z(R)\\{0}, with its cofactor.

    Scans the distinct principal ideals cR, c in Z(R)\\{0}, in ascending
    order of their smallest generator c, and tests only that c: (1) every
    coefficient must lie in c*R, (2) take the smallest representative b_i
    of each divisor equation c*b = a_i, (3) accept iff
    Ann({b_i} u Ann(c)) = {0}, returning the cofactor g made of the b_i plus
    all of Ann(c)\\{0} appended at higher degrees.  Associates accept
    together (README, principal-class reduction), so the first accepted c
    is the smallest accepted zero divisor.  When a grading is supplied,
    ``homogeneous_c`` is the smallest homogeneous generator of an accepted
    cR.  Returns None only after exhausting every class.
    """
    if not is_zero_divisor_poly(f)[0]:
        raise ValueError("content search requires a zero-divisor polynomial")
    ring = f.ring
    div, classes = _candidate_data(ring)
    support = sorted(set(c for c in f.coeffs if c != ring.zero))
    viable = np.flatnonzero(div[:, support].all(axis=1))

    # the winning candidate depends only on the coefficient set (acceptance is
    # representative-invariant), so memoize it per ring
    set_cache = ring._cache.setdefault("content_by_set", {})
    key = frozenset(support)
    if key in set_cache:
        c = set_cache[key]
        if c is None:
            return None
        reps = _try_candidate(ring, f.coeffs, c)
        if reps is None:
            raise InternalInvariantError("cached content candidate stopped working")
    else:
        hit = first_hit((classes[k][0] for k in viable), lambda c: _try_candidate(ring, f.coeffs, c))
        if hit is None:
            set_cache[key] = None
            return None
        c, reps = hit
        set_cache[key] = c
    homogeneous_c = None
    if grading is not None:
        later = [classes[k] for k in viable if classes[k][0] >= c]
        homogeneous_c = _homogeneous_content(ring, f.coeffs, grading, later)
    witness = ContentWitness(c=c, g=_witness_polynomial(ring, c, reps), homogeneous_c=homogeneous_c)
    witness.revalidate(f)
    return witness


# -- EM deciders ----------------------------------------------------------------


def _ring_bounds(ring: FiniteRing) -> dict:
    prov = ring.provenance or {}
    if prov.get("kind") == "monomialQuotient":
        return {"truncated_at_degree": prov["d"]}
    return {}


def is_em_subset(
    ring: FiniteRing,
    elems: Iterable[int],
    caps: SearchCaps = SearchCaps(),
    name: str = "em-subset",
) -> PropertyReport:
    """Does every zero-divisor polynomial with coefficients in ``elems`` have
    an annihilating content?

    Zero-divisor status and content existence depend only on the ideal the
    coefficients generate, so the scan runs once per ideal generated by a
    subset of elems n Z(R)\\{0} (ideals with trivial annihilator give regular
    polynomials and are skipped).  Always exhaustive; a false witness is the
    generating subset the ideal enumeration reached first, as coefficients.
    """
    t0 = time.perf_counter()
    zd = zero_divisors(ring).element_set
    pool = set(int(e) for e in elems) & zd - {ring.zero}

    def check(ideal):
        mask = annihilator_mask(ring, ideal.generators)
        mask[ring.zero] = False
        if not mask.any():
            return None  # jointly regular coefficients: not a zero-divisor poly
        f = Polynomial(ring, ideal.generators)
        if find_annihilating_content(f) is None:
            return f
        return None

    hit = first_hit(ideal_lattice(ring, pool), check)
    bounds = _ring_bounds(ring)
    millis = (time.perf_counter() - t0) * 1000
    if hit is not None:
        ideal, f = hit
        subset = ideal.generators
        witness = {
            "coefficients": [int(s) for s in subset],
            "labels": [ring.label(s) for s in subset],
            "poly": [int(x) for x in f.coeffs],
            "poly_str": poly_str(f),
        }
        return PropertyReport(name, "false", witness, bounds, millis)
    return PropertyReport(name, "true", None, bounds, millis)


def is_em_ring(ring: FiniteRing, caps: SearchCaps = SearchCaps()) -> PropertyReport:
    """EM-ring: every zero-divisor polynomial has an annihilating content."""
    return is_em_subset(ring, range(ring.order), caps, name="em")


def is_em_g_graded(
    ring: FiniteRing, grading: Grading, caps: SearchCaps = SearchCaps()
) -> PropertyReport:
    """EM-G-graded: every support component is an EM-subset of the ring."""
    t0 = time.perf_counter()
    bounds = _ring_bounds(ring)
    for key in grading.support_keys:
        sub = is_em_subset(ring, grading.support[key].elements, caps, name="em-subset")
        if not sub.holds:
            witness = dict(sub.witness or {})
            witness["component"] = list(key)
            millis = (time.perf_counter() - t0) * 1000
            return PropertyReport("em-graded", "false", witness, bounds, millis)
    millis = (time.perf_counter() - t0) * 1000
    return PropertyReport("em-graded", "true", None, bounds, millis)


# -- Armendariz deciders ----------------------------------------------------------


def _tuple_block(pool: Sequence[int], length: int) -> np.ndarray:
    """All coefficient tuples over pool, ascending in mixed-radix order."""
    return np.fromiter(pool, dtype=np.int64)[_decode_all([len(pool)] * length)]


def _armendariz_scan(
    ring: FiniteRing,
    blocks: list[tuple[object, np.ndarray]],
    degree: int,
) -> Optional[dict]:
    """Find f, g with fg = 0 but some coefficient product nonzero.

    ``blocks`` pairs a tag (component key or None) with a tuple array; pairs
    are scanned across block pairs in order, f-major, g >= f inside one block.
    """
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


def is_armendariz(
    ring: FiniteRing, degree: int = 1, caps: SearchCaps = SearchCaps()
) -> PropertyReport:
    """fg = 0 forces all coefficient products zero, for f, g of degree <= cap.

    Coefficients range over Z(R): a unit coefficient on either side makes the
    polynomial regular, so such pairs can never multiply to zero.
    """
    if degree < 1:
        raise ValueError("degree cap must be >= 1")
    t0 = time.perf_counter()
    pool = list(zero_divisors(ring).elements)
    witness = None
    if pool:
        blocks = [(None, _tuple_block(pool, degree + 1))]
        witness = _armendariz_scan(ring, blocks, degree)
    bounds = {"max_degree": degree, **_ring_bounds(ring)}
    millis = (time.perf_counter() - t0) * 1000
    if witness is not None:
        return PropertyReport("armendariz", "false", witness, bounds, millis)
    return PropertyReport("armendariz", "true_up_to_bounds", None, bounds, millis)


def is_armendariz_g_graded(
    ring: FiniteRing,
    grading: Grading,
    degree: int = 1,
    caps: SearchCaps = SearchCaps(),
) -> PropertyReport:
    """Armendariz condition restricted to homogeneous f, g."""
    if degree < 1:
        raise ValueError("degree cap must be >= 1")
    t0 = time.perf_counter()
    zd = zero_divisors(ring).element_set
    blocks = []
    for key in grading.support_keys:
        pool = sorted(set(grading.support[key].elements) & zd)
        if pool:
            blocks.append((key, _tuple_block(pool, degree + 1)))
    witness = _armendariz_scan(ring, blocks, degree) if blocks else None
    bounds = {"max_degree": degree, **_ring_bounds(ring)}
    millis = (time.perf_counter() - t0) * 1000
    if witness is not None:
        return PropertyReport("armendariz-graded", "false", witness, bounds, millis)
    return PropertyReport("armendariz-graded", "true_up_to_bounds", None, bounds, millis)


# -- Bezout-graded ----------------------------------------------------------------


def is_bezout_g_graded(
    ring: FiniteRing,
    grading: Grading,
    k: int = 2,
    caps: SearchCaps = SearchCaps(),
) -> PropertyReport:
    """Is every graded ideal on <= k generators principal?

    Enumerates every ideal generated by at most k ring elements.  The first
    level of the enumeration is every principal ideal, so an ideal first
    reached at a later level is not principal, and the first graded one is
    the witness, with its lexicographically first smallest generating set.
    Exhaustive at every order.
    """
    if k < 2:
        raise ValueError("generator cap must be >= 2")
    t0 = time.perf_counter()

    def check(ideal):
        if len(ideal.generators) < 2 or not is_graded_ideal(grading, ideal):
            return None
        return {"generators": [int(g) for g in ideal.generators], "ideal_size": len(ideal)}

    hit = first_hit(ideal_lattice(ring, range(ring.order), k), check)
    bounds = {"generator_cap": k, **_ring_bounds(ring)}
    millis = (time.perf_counter() - t0) * 1000
    if hit is not None:
        return PropertyReport("bezout-graded", "false", hit[1], bounds, millis)
    return PropertyReport("bezout-graded", "true", None, bounds, millis)


# -- regular embedding (identity component into the whole ring) --------------------


def check_regular_embedding(
    grading: Grading, caps: SearchCaps = SearchCaps()
) -> PropertyReport:
    """Tuples over R_e with trivial annihilator inside R_e must stay regular
    in R.  Precondition: the component-cyclicity hypotheses hold."""
    from .grading import check_t2_hypotheses

    ok, _ = check_t2_hypotheses(grading)
    if not ok:
        raise ValueError("regular-embedding check requires the component hypotheses")
    t0 = time.perf_counter()
    ring = grading.ring
    re = grading.identity_component().elements
    re_mask = np.zeros(ring.order, dtype=bool)
    re_mask[list(re)] = True
    pool = [e for e in re if e != ring.zero]

    def check(ideal):
        ann = annihilator_mask(ring, ideal.generators)
        inside = ann & re_mask
        if int(inside.sum()) != 1:
            return None  # not regular inside R_e: hypothesis empty
        if int(ann.sum()) != 1:
            return {
                "tuple": [int(s) for s in ideal.generators],
                "ambient_annihilator": int(np.nonzero(ann)[0][1]),
            }
        return None

    hit = first_hit(ideal_lattice(ring, pool), check)
    bounds = _ring_bounds(ring)
    millis = (time.perf_counter() - t0) * 1000
    if hit is not None:
        return PropertyReport("regular-embedding", "false", hit[1], bounds, millis)
    return PropertyReport("regular-embedding", "true", None, bounds, millis)


# -- catalog checks ----------------------------------------------------------------


def homogeneous_regular_elements(grading: Grading) -> list[int]:
    ring = grading.ring
    hom = homogeneous_elements(grading).element_set
    return sorted(hom & units(ring).element_set)


def _component_ideal_hit(ring: FiniteRing, grading: Grading, check: Callable):
    """First (component key, payload) of ``check`` over the ideals generated
    by subsets of one component's nonzero zero divisors, component by
    component in key order; None when every ideal passes."""
    zd = zero_divisors(ring).element_set
    for key in grading.support_keys:
        pool = set(grading.support[key].elements) & zd - {ring.zero}
        hit = first_hit(ideal_lattice(ring, pool), check)
        if hit is not None:
            return key, hit[1]
    return None


def verify_t5(
    ring: FiniteRing,
    grading: Grading,
    caps: SearchCaps = SearchCaps(),
    em_report: Optional[PropertyReport] = None,
) -> PropertyReport:
    """When hT(R) is EM-graded, every homogeneous zero-divisor coefficient
    set must share its annihilator with a single ring element.

    The regular elements of a finite ring are units, so hT(R) is R with the
    same grading (README, t5 hypothesis) and the hypothesis is R's own
    EM-graded verdict, taken from ``em_report`` when given.  Ann(S) = Ann((S)),
    so the check runs once per ideal generated by a subset of one
    component's nonzero zero divisors, and is exhaustive; a false witness is
    that ideal's first generating subset.  A false verdict is classified as
    an internal-bug indicator, not a property of the mathematics.
    """
    t0 = time.perf_counter()
    if em_report is None:
        em_report = is_em_g_graded(ring, grading, caps)
    bounds = {**_ring_bounds(ring)}
    if not em_report.holds:
        millis = (time.perf_counter() - t0) * 1000
        bounds["skipped"] = "hypothesis not satisfied"
        return PropertyReport("t5", "true_up_to_bounds", None, bounds, millis)

    ann_sizes = (ring.mul_table == ring.zero).sum(axis=0)

    def check(ideal):
        target = annihilator_mask(ring, ideal.generators)
        if int(target.sum()) == 1:
            return None  # regular coefficient set
        count = int(target.sum())
        for c in np.nonzero(ann_sizes == count)[0]:
            if np.array_equal(ring.mul_table[:, c] == ring.zero, target):
                return None
        return {
            "coefficients": [int(s) for s in ideal.generators],
            "classified": "internal-bug-indicator",
        }

    hit = _component_ideal_hit(ring, grading, check)
    millis = (time.perf_counter() - t0) * 1000
    if hit is not None:
        witness = {**hit[1], "component": list(hit[0])}
        return PropertyReport("t5", "false", witness, bounds, millis)
    return PropertyReport("t5", "true", None, bounds, millis)


def ideal_grid(ring: FiniteRing, generators: Sequence[int]) -> BivariatePolynomial:
    """The generators laid out two per row, one row per power of y."""
    rows = [generators[i : i + 2] for i in range(0, len(generators), 2)]
    return BivariatePolynomial(ring, tuple(Polynomial(ring, tuple(r)) for r in rows))


def check_bivariate_content(f: BivariatePolynomial) -> Optional[dict]:
    """Does a bivariate zero divisor F factor as c*W with W regular?

    Flattens F to one variable, finds a content (c, g1), unpacks g1 back
    into a bivariate cofactor W (tail coefficients beyond the packing
    windows ride along as higher y-powers so W keeps the full content), then
    demands F = c*W with Ann(C(W)) = 0.  Returns None when F is zero, is
    regular or factors; otherwise a witness naming F and the failed stage.
    """
    ring = f.ring
    zero = ring.zero
    if f.is_zero:
        return None
    mask = annihilator_mask(ring, set(f.coefficient_ids()))
    mask[zero] = False
    if not mask.any():
        return None  # regular
    flat, offsets, widths = kronecker_flatten(f)
    witness = find_annihilating_content(flat)
    if witness is None:
        return {"f": str(f), "stage": "no content for flattened polynomial"}
    g1 = witness.g
    used = offsets[-1] + widths[-1]
    tail = [g1.coefficient(i) for i in range(used, len(g1.coeffs))]
    # W = slot rows + tail constants as higher y-powers; F = c*W splits
    # into the slot part reproducing F and c killing every tail entry
    slots = kronecker_unflatten(ring, g1, offsets, widths)
    if biv_scale(witness.c, slots) != f:
        return {"f": str(f), "stage": "cofactor does not reproduce F"}
    if tail and not (ring.mul_table[witness.c, tail] == zero).all():
        return {"f": str(f), "stage": "tail of cofactor not killed by content"}
    cof_ann = annihilator_mask(ring, set(slots.coefficient_ids()) | set(tail))
    if int(cof_ann.sum()) != 1:
        return {"f": str(f), "stage": "bivariate cofactor is not regular"}
    return None


def verify_t7_bounded(
    ring: FiniteRing,
    grading: Grading,
    caps: SearchCaps = SearchCaps(),
    em_report: Optional[PropertyReport] = None,
) -> PropertyReport:
    """Contents survive one polynomial extension, at every degree.

    Whether a homogeneous bivariate F is a zero divisor, which content c the
    flattened F finds, and whether its cofactor W is regular depend only on
    the ideal I its coefficients generate (README, t7 reduction).  So
    :func:`check_bivariate_content` runs once per ideal generated by a
    subset of one component's nonzero zero divisors, on its generators laid
    out by :func:`ideal_grid`, and the verdict is exhaustive.  Failures
    indicate an artifact bug.  The name predates the reduction and is kept
    because the benchmark's tracer looks the function up by it.
    """
    if em_report is None:
        em_report = is_em_g_graded(ring, grading, caps)
    if not em_report.holds:
        raise ValueError("t7 check requires an EM-graded ring")
    t0 = time.perf_counter()
    hit = _component_ideal_hit(
        ring, grading, lambda ideal: check_bivariate_content(ideal_grid(ring, ideal.generators))
    )
    bounds = _ring_bounds(ring)
    millis = (time.perf_counter() - t0) * 1000
    if hit is not None:
        witness = {**hit[1], "classified": "internal-bug-indicator"}
        return PropertyReport("t7", "false", witness, bounds, millis)
    return PropertyReport("t7", "true", None, bounds, millis)
