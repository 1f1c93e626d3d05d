"""Annihilating-content search with certificates and the EM-property deciders.

The central reductions: a polynomial's zero-divisor status and the existence
of an annihilating content depend only on the ideal its coefficients
generate, and for each candidate content c one representative per
coefficient suffices once all of Ann(c) is appended to the cofactor.  Both
facts carry oracle tests in the suite (they are proved in the README's
algorithm notes, then validated against unrestricted brute force).

Every decider returns a :class:`PropertyReport` whose false verdicts carry a
re-checkable counterexample and whose bounded verdicts list the caps used.
The ideal-lattice deciders share one scan (``_lattice_hit``, over tagged
pools) and one report (``_report``).  Candidate and ideal scans run
sequentially in canonical order and stop at the first hit, so verdicts and
witnesses are deterministic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .construct import _decode_all, localization
from .grading import (
    Grading,
    component_zero_divisors,
    is_graded_ideal,
    localization_grading,
    trivial_grading,
)
from .poly import (
    BivariatePolynomial,
    Polynomial,
    biv_scale,
    bivariate,
    is_zero_divisor_poly,
    kronecker_flatten,
    kronecker_unflatten,
    poly_scale,
    poly_str,
)
from .rings import (
    FiniteRing,
    InternalInvariantError,
    _annihilator_sizes,
    _generator_min,
    _zero_divisor_mask,
    annihilator_mask,
    element_ids,
    ideal_lattice,
    idempotents,
    zero_divisors,
)


@dataclass(frozen=True)
class SearchCaps:
    """Accepted by :func:`~emrings.theorems.theorem_suite` for compatibility.

    No decider reads it.  ``jobs`` has no effect: every scan runs
    sequentially.
    """

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
        if np.count_nonzero(c_ann) == 1:
            raise InternalInvariantError("content witness c is not a zero divisor")
        if poly_scale(self.c, self.g) != f:
            raise InternalInvariantError("content witness does not factor f")
        g_ann = annihilator_mask(ring, set(self.g.coeffs))
        if np.count_nonzero(g_ann) != 1:
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


def _ring_bounds(ring: FiniteRing) -> dict:
    prov = ring.provenance or {}
    if prov.get("kind") == "monomialQuotient":
        return {"truncated_at_degree": prov["d"]}
    return {}


def _lattice_hit(
    ring: FiniteRing, pools: Iterable, check: Callable, max_gens: Optional[int] = None
):
    """First (tag, payload) of ``check`` over the ideals generated by subsets
    of each (tag, pool) in turn, the pools in the order given; None when
    every ideal passes.  The tag is a component key, or None when ungraded."""
    for tag, pool in pools:
        hit = first_hit(ideal_lattice(ring, pool, max_gens), check)
        if hit is not None:
            return tag, hit[1]
    return None


def _report(
    name: str, ring: FiniteRing, t0: float, hit, bounds: Optional[dict] = None, holds: str = "true"
) -> PropertyReport:
    """The report of a scan started at ``t0``: verdict ``holds`` when ``hit``
    is None, else false with the hit's witness, which also names the
    component when the hit's tag is one."""
    bounds = {**(bounds or {}), **_ring_bounds(ring)}
    millis = (time.perf_counter() - t0) * 1000
    if hit is None:
        return PropertyReport(name, holds, None, bounds, millis)
    tag, witness = hit
    if tag is not None:
        witness = {**witness, "component": list(tag)}
    return PropertyReport(name, "false", witness, bounds, millis)


# -- candidate machinery -------------------------------------------------------


def _candidate_data(ring: FiniteRing) -> tuple[np.ndarray, list[list[int]]]:
    """The distinct principal ideals cR over c in Z(R)\\{0}, one row each,
    in ascending order of their smallest generator.

    Returns their membership masks (row r marks c_r * R, so step (1) of the
    content search is one vectorized lookup) and the generators of each
    ideal, ascending: the c sharing one least unit multiple
    (rings._generator_min).  They are associates, so they all accept or all
    fail (README, principal-class reduction).
    """
    cached = ring._cache.get("content_candidates")
    if cached is None:
        members = np.flatnonzero(_zero_divisor_mask(ring) & (np.arange(ring.order) != ring.zero))
        least = _generator_min(ring)[members]
        classes = [members[least == c].tolist() for c in members[least == members]]
        div = np.zeros((len(classes), ring.order), dtype=bool)
        for row, group in zip(div, classes):
            row[ring.mul_table[group[0]]] = True
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


def _em_failure(ring: FiniteRing, ideal) -> Optional[dict]:
    """Witness that the ideal's generators, taken as coefficients, give a
    zero-divisor polynomial with no annihilating content; else None."""
    mask = annihilator_mask(ring, ideal.generators)
    mask[ring.zero] = False
    if not mask.any():
        return None  # jointly regular coefficients: not a zero-divisor poly
    f = Polynomial(ring, ideal.generators)
    if find_annihilating_content(f) is not None:
        return None
    return {
        "coefficients": [int(s) for s in ideal.generators],
        "labels": [ring.label(s) for s in ideal.generators],
        "poly": [int(x) for x in f.coeffs],
        "poly_str": poly_str(f),
    }


def is_em_subset(
    ring: FiniteRing, elems: Iterable[int], *, name: str = "em-subset"
) -> PropertyReport:
    """Does every zero-divisor polynomial with coefficients in ``elems`` have
    an annihilating content?

    Zero-divisor status and content existence depend only on the ideal the
    coefficients generate, so the scan runs once per ideal generated by a
    subset of elems n Z(R)\\{0} (ideals with trivial annihilator give regular
    polynomials and are skipped).  Always exhaustive; a false witness is the
    generating subset the ideal enumeration reached first, as coefficients.
    ValueError when ``elems`` holds an id outside the ring.
    """
    t0 = time.perf_counter()
    ids = element_ids(ring, elems)
    pool = ids[_zero_divisor_mask(ring)[ids] & (ids != ring.zero)]
    hit = _lattice_hit(ring, [(None, pool)], lambda ideal: _em_failure(ring, ideal))
    return _report(name, ring, t0, hit)


def is_em_ring(ring: FiniteRing) -> PropertyReport:
    """EM-ring: every zero-divisor polynomial has an annihilating content."""
    return is_em_subset(ring, range(ring.order), name="em")


def is_em_g_graded(ring: FiniteRing, grading: Grading) -> PropertyReport:
    """EM-G-graded: every support component is an EM-subset of the ring.

    A homogeneous polynomial has all its coefficients in one component, so
    this is :func:`is_em_subset`'s ideal scan run component by component;
    a false witness also names the component.
    """
    t0 = time.perf_counter()
    pools = component_zero_divisors(grading)
    hit = _lattice_hit(ring, pools, lambda ideal: _em_failure(ring, ideal))
    return _report("em-graded", ring, t0, hit)


# -- Armendariz deciders ----------------------------------------------------------


# Most coefficient tuples one pool of R may expand to; _tuple_block
# materializes all.  A graded factor's pools are no larger than R's.
ARMENDARIZ_TUPLE_CAP = 1 << 20

# Most entries of one batch's temporaries in _armendariz_scan, its Ann(C(f))
# gather and its candidate matrix, as rings._TILE bounds a tile.  Batches
# start at one f and double up to this bound, so a scan that fails at its
# first f does no more work than one f at a time.
_ARMENDARIZ_BATCH = 1 << 22


def _tuple_block(pool: Sequence[int], length: int) -> np.ndarray:
    """All coefficient tuples over pool, ascending in mixed-radix order."""
    return np.fromiter(pool, dtype=np.int64)[_decode_all([len(pool)] * length)]


def _first_failing_pair(
    ring: FiniteRing, F: np.ndarray, Gt: np.ndarray, triangle: bool, degree: int
) -> Optional[tuple[int, int]]:
    """(r, c) of the first pair, row-major, of f = F[r] and g = Gt[:, c]
    with fg = 0 and some a_i b_j nonzero, or None; ``triangle`` keeps only
    c >= r.  Gt holds one g per column."""
    zero, n = ring.zero, ring.order
    mul_flat, add_flat = ring.mul_table.ravel(), ring.add_table.ravel()
    # row r of ann is Ann(C(F[r])); a pair is a candidate when some b_j
    # lies outside it, that is when some a_i b_j is nonzero
    ann = (ring.mul_table[F] == zero).all(axis=1)
    cand = ~ann[:, Gt].all(axis=1)
    if triangle and len(F) > 1:
        cand = np.triu(cand)
    pairs = np.flatnonzero(cand)
    if not len(pairs):
        return None
    rows, cols = np.divmod(pairs, cand.shape[1])
    # offsets of f's coefficients into the flattened tables; a coefficient
    # that is zero in every f of the batch adds no term
    offsets = np.ascontiguousarray(F.T) * n
    live = (F != zero).any(axis=0)
    for k in range(2 * degree + 1):
        acc = None
        for i in range(max(0, k - degree), min(degree, k) + 1):
            if live[i]:
                term = mul_flat[offsets[i][rows] + Gt[k - i][cols]]
                acc = term if acc is None else add_flat[np.multiply(acc, n, dtype=np.intp) + term]
        if acc is not None:
            keep = acc == zero
            rows, cols = rows[keep], cols[keep]
        if not len(rows):
            return None
    return int(rows[0]), int(cols[0])


def _armendariz_scan(
    ring: FiniteRing,
    blocks: list[tuple[object, np.ndarray]],
    degree: int,
) -> Optional[dict]:
    """Find f, g with fg = 0 but some coefficient product nonzero.

    ``blocks`` pairs a tag (component key or None) with a tuple array; pairs
    are scanned across block pairs in order, f-major, g >= f inside one block.
    Each step takes a batch of consecutive f and keeps, in scan order, the
    pairs that fail (README, Armendariz acceptance); the witness is the
    first of them, with its first nonzero (i, j), row-major.
    """
    width = degree + 1
    columns = [np.ascontiguousarray(Q.T) for _, Q in blocks]
    for bi, (tag_f, P) in enumerate(blocks):
        for bj in range(bi, len(blocks)):
            tag_g, Q = blocks[bj]
            start, size = 0, 1
            while start < len(P):
                # inside one block g >= f, so g starts at the batch's first f
                lo = start if bj == bi else 0
                cap = _ARMENDARIZ_BATCH // (width * (len(Q) - lo + ring.order))
                size = max(1, min(size, cap))
                hit = _first_failing_pair(
                    ring, P[start : start + size], columns[bj][:, lo:], bj == bi, degree
                )
                if hit is not None:
                    frow, grow = P[start + hit[0]], Q[lo + hit[1]]
                    i, j = np.argwhere(ring.mul_table[np.ix_(frow, grow)] != ring.zero)[0]
                    return {
                        "f": [int(x) for x in frow],
                        "g": [int(x) for x in grow],
                        "f_str": poly_str(Polynomial(ring, tuple(frow))),
                        "g_str": poly_str(Polynomial(ring, tuple(grow))),
                        "component_f": None if tag_f is None else list(tag_f),
                        "component_g": None if tag_g is None else list(tag_g),
                        "nonzero_product_at": [int(i), int(j)],
                        "g_index": lo + hit[1],
                    }
                start += size
                size *= 2
    return None


def _armendariz_pools(grading: Grading) -> list:
    """(key, ascending ids) per support component: 0 and the component's
    nonzero zero divisors, the coefficients of homogeneous f and g that can
    multiply to zero."""
    ring = grading.ring
    return [(key, sorted([ring.zero, *ids])) for key, ids in component_zero_divisors(grading)]


def _factor_gradings(ring: FiniteRing, grading: Optional[Grading]) -> list[Grading]:
    """The graded factors eR of R (README, "Graded factors"), one per
    primitive homogeneous idempotent e, each the corner {1, e}^-1 R under
    its localization grading; [] when 1 is the only nonzero homogeneous
    idempotent.  ``grading`` None stands for the trivial grading, built
    only when R splits."""
    idem = idempotents(ring)
    idem = idem[[e != ring.zero and (grading is None or grading.degree_of(e) is not None)
                 for e in idem.tolist()]]
    # f <= e iff fe = f; e is primitive when it lies above no other f
    below = ring.mul_table[np.ix_(idem, idem)] == idem
    primitive = idem[below.sum(axis=1) == 1]
    if len(primitive) < 2:
        return []
    if grading is None:
        grading = trivial_grading(ring)
    return [
        localization_grading(localization(ring, grading, [ring.one, int(e)])) for e in primitive
    ]


def _armendariz_report(
    name: str, ring: FiniteRing, pools: list, degree: int, grading: Optional[Grading]
) -> PropertyReport:
    """Decide the Armendariz condition over the nonempty ``pools`` (tag,
    coefficients) of R, graded by ``grading`` (None: ungraded).

    After the tuple cap is checked on R's own pools, each graded factor eR
    is scanned over its own pools; R passes iff every factor does (README,
    "Graded factors").  When a factor fails, or R does not split, R's pools
    are scanned whole, which gives the witness.
    """
    if degree < 1:
        raise ValueError("degree cap must be >= 1")
    t0 = time.perf_counter()
    pools = [(tag, pool) for tag, pool in pools if pool]
    for _, pool in pools:
        count = len(pool) ** (degree + 1)
        if count > ARMENDARIZ_TUPLE_CAP:
            raise ValueError(
                f"Armendariz scan over {len(pool)} coefficients at degree {degree} "
                f"needs {count} tuples, above the cap of {ARMENDARIZ_TUPLE_CAP}"
            )

    def scan(over: FiniteRing, tagged: list) -> Optional[dict]:
        blocks = [(tag, _tuple_block(pool, degree + 1)) for tag, pool in tagged]
        return _armendariz_scan(over, blocks, degree)

    bounds = {"max_degree": degree}
    factors = _factor_gradings(ring, grading)
    if factors and all(scan(g.ring, _armendariz_pools(g)) is None for g in factors):
        return _report(name, ring, t0, None, bounds, holds="true_up_to_bounds")
    witness = scan(ring, pools)
    if witness is None and factors:
        raise InternalInvariantError("a graded factor fails the Armendariz scan but R passes")
    hit = None if witness is None else (None, witness)
    return _report(name, ring, t0, hit, bounds, holds="true_up_to_bounds")


def is_armendariz(ring: FiniteRing, degree: int = 1) -> PropertyReport:
    """fg = 0 forces all coefficient products zero, for f, g of degree <= cap.

    Coefficients range over Z(R): a unit coefficient on either side makes the
    polynomial regular, so such pairs can never multiply to zero.
    """
    pool = zero_divisors(ring).tolist()
    return _armendariz_report("armendariz", ring, [(None, pool)], degree, None)


def is_armendariz_g_graded(ring: FiniteRing, grading: Grading, degree: int = 1) -> PropertyReport:
    """Armendariz condition restricted to homogeneous f, g."""
    return _armendariz_report(
        "armendariz-graded", ring, _armendariz_pools(grading), degree, grading
    )


# -- Bezout-graded ----------------------------------------------------------------


def is_bezout_g_graded(ring: FiniteRing, grading: Grading, k: int = 2) -> PropertyReport:
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

    hit = _lattice_hit(ring, [(None, range(ring.order))], check, k)
    return _report("bezout-graded", ring, t0, hit, {"generator_cap": k})


# -- regular embedding (identity component into the whole ring) --------------------


def check_regular_embedding(grading: Grading) -> PropertyReport:
    """Tuples over R_e with trivial annihilator inside R_e must stay regular
    in R.  Precondition, the caller's to check: the component-cyclicity
    hypotheses hold (``check_t2_hypotheses``)."""
    t0 = time.perf_counter()
    ring = grading.ring
    re = grading.identity_component()
    re_mask = np.zeros(ring.order, dtype=bool)
    re_mask[re] = True
    pool = re[re != ring.zero]

    def check(ideal):
        ann = annihilator_mask(ring, ideal.generators)
        inside = ann & re_mask
        if np.count_nonzero(inside) != 1:
            return None  # not regular inside R_e: hypothesis empty
        if np.count_nonzero(ann) != 1:
            return {
                "tuple": [int(s) for s in ideal.generators],
                "ambient_annihilator": int(np.nonzero(ann)[0][1]),
            }
        return None

    hit = _lattice_hit(ring, [(None, pool)], check)
    return _report("regular-embedding", ring, t0, hit)


# -- catalog checks ----------------------------------------------------------------


def verify_t5(ring: FiniteRing, grading: Grading) -> PropertyReport:
    """When hT(R) is EM-graded, every homogeneous zero-divisor coefficient
    set must share its annihilator with a single ring element.

    The regular elements of a finite ring are units, so hT(R) is R with the
    same grading (README, t5 hypothesis) and the hypothesis is R's own
    EM-graded verdict, which is the caller's to decide.  Ann(S) = Ann((S)),
    so the check runs once per ideal generated by a subset of one
    component's nonzero zero divisors, and is exhaustive; a false witness is
    that ideal's first generating subset.  A false verdict is classified as
    an internal-bug indicator, not a property of the mathematics.
    """
    t0 = time.perf_counter()
    ann_sizes = _annihilator_sizes(ring)

    def check(ideal):
        target = annihilator_mask(ring, ideal.generators)
        count = np.count_nonzero(target)
        if count == 1:
            return None  # regular coefficient set
        for c in np.nonzero(ann_sizes == count)[0]:
            if np.array_equal(ring.mul_table[:, c] == ring.zero, target):
                return None
        return {
            "coefficients": [int(s) for s in ideal.generators],
            "classified": "internal-bug-indicator",
        }

    return _report("t5", ring, t0, _lattice_hit(ring, component_zero_divisors(grading), check))


def ideal_grid(ring: FiniteRing, generators: Sequence[int]) -> BivariatePolynomial:
    """The generators laid out two per row, one row per power of y."""
    return bivariate(ring, [generators[i : i + 2] for i in range(0, len(generators), 2)])


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
    if np.count_nonzero(cof_ann) != 1:
        return {"f": str(f), "stage": "bivariate cofactor is not regular"}
    return None


def verify_t7_bounded(ring: FiniteRing, grading: Grading) -> PropertyReport:
    """Contents survive one polynomial extension of an EM-graded ring, at
    every degree; that R is EM-graded is the caller's to decide.

    Whether a homogeneous bivariate F is a zero divisor, which content c the
    flattened F finds, and whether its cofactor W is regular depend only on
    the ideal I its coefficients generate (README, t7 reduction).  So
    :func:`check_bivariate_content` runs once per ideal generated by a
    subset of one component's nonzero zero divisors, on its generators laid
    out by :func:`ideal_grid`, and the verdict is exhaustive.  Failures
    indicate an artifact bug; a false witness names its component.  The
    name predates the reduction and is kept because the benchmark's tracer
    looks the function up by it.
    """
    t0 = time.perf_counter()

    def check(ideal):
        failure = check_bivariate_content(ideal_grid(ring, ideal.generators))
        return None if failure is None else {**failure, "classified": "internal-bug-indicator"}

    return _report("t7", ring, t0, _lattice_hit(ring, component_zero_divisors(grading), check))
