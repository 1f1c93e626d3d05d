"""Mechanical verification of the theorem catalog over a ring corpus.

Each row evaluates one implication of the catalog (README section "theorem
catalog") on one (ring, grading) pair: the hypothesis and the conclusion are
decided with the library's own deciders, and any hypothesis-true /
conclusion-false instance is a suite failure.  Given the catalog's proofs,
a failure indicates an artifact bug, which makes this the repository's
strongest self-test.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .analysis import (
    PropertyReport,
    SearchCaps,
    _lattice_hit,
    _ring_bounds,
    check_regular_embedding,
    is_armendariz_g_graded,
    is_bezout_g_graded,
    is_em_g_graded,
    is_em_ring,
    verify_t5,
    verify_t7_bounded,
)
from .construct import digit_ids, poly_quotient_xn
from .grading import (
    Grading,
    check_t2_hypotheses,
    check_t8_condition,
    check_t10_condition,
    component_zero_divisors,
    graded_factors,
    is_crossed_product,
    is_graded_ideal,
    square_zero_extension_grading,
)
from .rings import FiniteRing, annihilator, annihilator_mask, subring

SUITE_TAGS = [
    "t1", "t2", "c2", "t3", "t4", "c3", "t6", "t8", "t9", "t10", "t11", "c7",
    "l1", "l2", "t5", "t7",
]

# Generator cap of the c3 row's Bezout-graded decider.
BEZOUT_GENERATORS = 2
# Largest order |R|^2 of the square-zero extension R[X]/(X^2) that the t8
# and t9 rows build.
EXTENSION_CAP = 4200


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    ring: FiniteRing
    grading: Grading


def _implication(
    tag, entry, hypothesis, conclusion, detail=None, skip="extension order cap"
) -> PropertyReport:
    """Row of ``hypothesis -> conclusion``, both callables returning a bool,
    timed together; the conclusion is decided only when the hypothesis
    holds.  A None hypothesis skips the row with the marker ``skip``."""
    name = f"{tag}@{entry.name}"
    t0 = time.perf_counter()
    hyp = hypothesis()
    if hyp is None:
        return PropertyReport(name, "true", None, {"skipped": skip}, 0.0)
    bounds = {**(detail or {}), "hypothesis": bool(hyp)}
    if hyp:
        bounds["conclusion"] = bool(conclusion())
    millis = (time.perf_counter() - t0) * 1000
    if bounds.get("conclusion", True):
        return PropertyReport(name, "true", None, bounds, millis)
    witness = {"hypothesis_held": True, "conclusion_failed": True, **(detail or {})}
    return PropertyReport(name, "false", witness, bounds, millis)


def _biconditional(tag, entry, left, right) -> PropertyReport:
    """Row of ``left <-> right``, both callables returning a bool, timed together."""
    t0 = time.perf_counter()
    sides = [left(), right()]
    millis = (time.perf_counter() - t0) * 1000
    name = f"{tag}@{entry.name}"
    if sides[0] == sides[1]:
        return PropertyReport(name, "true", None, {"sides": sides}, millis)
    return PropertyReport(name, "false", {"left": sides[0], "right": sides[1]}, {}, millis)


def theorem_suite(
    entries: list[CorpusEntry],
    caps: SearchCaps = SearchCaps(),
    *,
    armendariz_degree: Optional[int] = None,
) -> list[PropertyReport]:
    """Run every catalog implication on every corpus entry.

    ``armendariz_degree`` is t3's degree bound; by default 3, or 2 above
    order 300.  ``caps`` is accepted for compatibility and has no effect.
    Square-zero extensions above ``EXTENSION_CAP`` are skipped with an
    explicit marker, never silently.
    """
    reports: list[PropertyReport] = []
    for entry in entries:
        reports.extend(_entry_rows(entry, armendariz_degree))
    return reports


def _entry_rows(entry: CorpusEntry, armendariz_degree: Optional[int]) -> list[PropertyReport]:
    ring, grading = entry.ring, entry.grading
    d_arm = (3 if ring.order <= 300 else 2) if armendariz_degree is None else armendariz_degree

    # verdicts several rows share, each decided at most once per entry and
    # charged to the first row that asks
    @functools.cache
    def em_graded() -> bool:
        return is_em_g_graded(ring, grading).holds

    @functools.cache
    def t2_holds() -> bool:
        return check_t2_hypotheses(grading)[0]

    @functools.cache
    def re_em() -> bool:
        return is_em_ring(subring(ring, grading.identity_component())[0]).holds

    # is the corner of every atom (primitive homogeneous idempotent)
    # EM-graded?  When 1 is the only atom its corner is R itself
    @functools.cache
    def factors_em_graded() -> bool:
        factors = graded_factors(ring, grading)
        return all(is_em_g_graded(g.ring, g).holds for g in factors) if factors else em_graded()

    # t1: EM-graded iff every component is an EM-subset.  is_em_g_graded
    # decides EM-graded by that very scan, so the row checks that its pools
    # cover hZ(R), recomputed as the nonzero homogeneous x (degree_of) with a
    # nonzero annihilator (annihilator_mask)
    def pools_cover_hz() -> bool:
        union = {ring.zero}.union(*(ids.tolist() for _, ids in component_zero_divisors(grading)))
        hom = [x for x in range(ring.order) if grading.degree_of(x) is not None]
        hz = {x for x in hom if np.count_nonzero(annihilator_mask(ring, [x])) > 1}
        return union == hz | {ring.zero}

    rows = [
        _biconditional("t1", entry, pools_cover_hz, lambda: True),
        # t2: component-cyclicity hypotheses + R_e an EM-ring -> EM-graded
        _implication("t2", entry, lambda: t2_holds() and re_em(), em_graded),
        # c2: crossed product + R_e an EM-ring -> EM-graded
        _implication("c2", entry, lambda: is_crossed_product(grading)[0] and re_em(), em_graded),
        # t3: EM-graded -> Armendariz-graded (bounded degree)
        _implication(
            "t3", entry, em_graded,
            lambda: is_armendariz_g_graded(ring, grading, d_arm).holds,
            detail={"max_degree": d_arm},
        ),
    ]

    # t4: EM-graded -> localizations at homogeneous multiplicative sets stay
    # EM-graded.  Up to graded isomorphism these are the corners eR, one per
    # nonzero homogeneous idempotent e, and eR is EM-graded iff the corner of
    # every atom below e is (README, "Localization grading")
    rows.append(_implication("t4", entry, em_graded, factors_em_graded))

    # c3: Bezout-graded -> EM-graded
    rows.append(_implication(
        "c3", entry, lambda: is_bezout_g_graded(ring, grading, BEZOUT_GENERATORS).holds,
        em_graded, detail={"generator_cap": BEZOUT_GENERATORS},
    ))

    # t6: a product is EM-graded iff every factor is, each graded by the
    # projections of the components; they are iff the atoms' corners are.
    # Skipped unless every factor identity e_i is homogeneous, that is unless
    # the grading is the product of its projections (README, "Factor corners")
    if (ring.provenance or {}).get("kind") == "product":
        factors = ring.aux["factors"]
        identities = [
            digit_ids(ring, [[f.one if j == i else f.zero] for j, f in enumerate(factors)])[0]
            for i in range(len(factors))
        ]
        if any(grading.degree_of(int(e)) is None for e in identities):
            marker = "grading is not a product of its projections"
            rows.append(_implication("t6", entry, lambda: None, None, skip=marker))
        else:
            rows.append(_biconditional("t6", entry, em_graded, factors_em_graded))

    # t8: no nonzero homogeneous zero divisors -> R[X]/(X^2) is EM-graded;
    # t9: R[X]/(X^2) EM-graded -> R EM-graded.  built is None when the
    # extension is over its cap, which skips the row
    built = ring.order * ring.order <= EXTENSION_CAP or None
    if built:
        ext = poly_quotient_xn(ring, 2, var="X", max_order=EXTENSION_CAP)
        lifted = square_zero_extension_grading(ext, grading)

    @functools.cache
    def ext_em_graded() -> bool:
        return is_em_g_graded(ext, lifted).holds

    rows.append(_implication(
        "t8", entry, lambda: check_t8_condition(grading) and built, ext_em_graded
    ))
    rows.append(_implication("t9", entry, lambda: built and ext_em_graded(), em_graded))

    # t10: idempotent annihilators of homogeneous elements -> EM-graded
    rows.append(_implication("t10", entry, lambda: check_t10_condition(grading)[0], em_graded))

    # t11 / c7: idealization entries R(+)R graded by R(+)0 and 0(+)R, the
    # grading the catalog states both rows for; any other grading skips them
    if (ring.provenance or {}).get("kind") == "idealization":
        base: FiniteRing = ring.aux["base"]
        halves = [
            digit_ids(ring, [base.elements(), [base.zero]]).tolist(),
            digit_ids(ring, [[base.zero], base.elements()]).tolist(),
        ]

        def faithful() -> bool:
            return len(annihilator(base, range(base.order))) == 1

        def base_em() -> bool:
            return is_em_ring(base).holds

        if sorted(ids.tolist() for ids in grading.support.values()) == sorted(halves):
            rows.append(_implication("t11", entry, lambda: faithful() and em_graded(), base_em))
            rows.append(_biconditional("c7", entry, base_em, em_graded))
        else:
            marker = "grading is not R(+)0, 0(+)R"
            rows.extend(_implication(tag, entry, lambda: None, None, skip=marker)
                        for tag in ("t11", "c7"))

    # l1: under the component hypotheses, regular tuples of R_e stay regular in R
    rows.append(_implication(
        "l1", entry, t2_holds, lambda: check_regular_embedding(grading).holds
    ))

    # l2: the content ideal of a homogeneous polynomial is a graded ideal.  A
    # nonzero element outside Z(R) is a unit, so a coefficient set holding one
    # generates R, which is graded: the ideals over each component's nonzero
    # zero divisors decide
    def graded_contents() -> bool:
        pools = component_zero_divisors(grading)
        return _lattice_hit(
            ring, pools, lambda ideal: None if is_graded_ideal(grading, ideal) else ideal
        ) is None

    rows.append(_implication("l2", entry, lambda: True, graded_contents))

    # t5: hT(R) EM-graded -> coefficient-set annihilators are principal-like;
    # hT(R) is R itself, so the hypothesis is the entry's EM-graded verdict
    rows.append(_implication(
        "t5", entry, em_graded,
        lambda: verify_t5(ring, grading).holds,
        detail=_ring_bounds(ring),
    ))

    # t7: EM-graded survives one polynomial extension (one check per ideal)
    rows.append(_implication(
        "t7", entry, em_graded,
        lambda: verify_t7_bounded(ring, grading).holds,
    ))
    return rows


def suite_failures(reports: list[PropertyReport]) -> list[PropertyReport]:
    return [r for r in reports if not r.holds]
