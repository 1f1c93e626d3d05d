"""Mechanical verification of the theorem catalog over a ring corpus.

Each row evaluates one implication of the catalog (README section "theorem
catalog") on one (ring, grading) pair: the hypothesis and the conclusion are
decided with the library's own deciders, and any hypothesis-true /
conclusion-false instance is a suite failure.  Given the catalog's proofs,
a failure indicates an artifact bug, which makes this the repository's
strongest self-test.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from .analysis import (
    PropertyReport,
    SearchCaps,
    _component_pools,
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
from .construct import localization, poly_quotient_xn
from .grading import (
    Grading,
    canonical_grading,
    check_t2_hypotheses,
    check_t8_condition,
    check_t10_condition,
    homogeneous_elements,
    homogeneous_zero_divisors,
    is_crossed_product,
    is_graded_ideal,
    localization_grading,
    square_zero_extension_grading,
)
from .rings import FiniteRing, annihilator, idempotents, subring

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


@dataclass
class _EntryState:
    """Artifacts shared between rows of one corpus entry, computed lazily."""

    entry: CorpusEntry
    _cache: dict = field(default_factory=dict)

    def em_graded(self) -> PropertyReport:
        if "em_graded" not in self._cache:
            self._cache["em_graded"] = is_em_g_graded(self.entry.ring, self.entry.grading)
        return self._cache["em_graded"]

    def identity_subring_em(self) -> PropertyReport:
        if "re_em" not in self._cache:
            re_elems = self.entry.grading.identity_component().elements
            re_ring, _ = subring(self.entry.ring, re_elems)
            self._cache["re_em"] = is_em_ring(re_ring)
        return self._cache["re_em"]

    def t2(self):
        if "t2" not in self._cache:
            self._cache["t2"] = check_t2_hypotheses(self.entry.grading)
        return self._cache["t2"]

    def square_zero_extension(self):
        if "ext" not in self._cache:
            ring = self.entry.ring
            if ring.order * ring.order > EXTENSION_CAP:
                self._cache["ext"] = None
            else:
                ext = poly_quotient_xn(ring, 2, var="X", max_order=EXTENSION_CAP)
                lifted = square_zero_extension_grading(ext, self.entry.grading)
                self._cache["ext"] = (ext, lifted)
        return self._cache["ext"]


def _row(
    tag: str,
    entry: CorpusEntry,
    hypothesis: Optional[bool],
    conclusion: Optional[bool],
    *,
    detail: Optional[dict] = None,
    skipped: Optional[str] = None,
    millis: float = 0.0,
) -> PropertyReport:
    """One implication row.  hypothesis None means "row skipped"."""
    name = f"{tag}@{entry.name}"
    bounds = dict(detail or {})
    if skipped is not None:
        bounds["skipped"] = skipped
        return PropertyReport(name, "true", None, bounds, millis)
    bounds["hypothesis"] = bool(hypothesis)
    if not hypothesis:
        return PropertyReport(name, "true", None, bounds, millis)
    bounds["conclusion"] = bool(conclusion)
    if conclusion:
        return PropertyReport(name, "true", None, bounds, millis)
    witness = {"hypothesis_held": True, "conclusion_failed": True, **(detail or {})}
    return PropertyReport(name, "false", witness, bounds, millis)


def _biconditional_row(
    tag: str, entry: CorpusEntry, left: bool, right: bool, detail: dict, millis: float
) -> PropertyReport:
    name = f"{tag}@{entry.name}"
    if left == right:
        return PropertyReport(name, "true", None, {**detail, "sides": [left, right]}, millis)
    return PropertyReport(
        name, "false", {"left": left, "right": right, **detail}, detail, millis
    )


def _implication(tag, entry, hypothesis, conclusion, detail=None) -> PropertyReport:
    """Row of ``hypothesis -> conclusion``, both callables returning a bool,
    timed together; the conclusion is decided only when the hypothesis
    holds.  A None hypothesis means the extension cap skipped the row."""
    t0 = time.perf_counter()
    hyp = hypothesis()
    if hyp is None:
        return _row(tag, entry, None, None, skipped="extension order cap")
    concl = conclusion() if hyp else None
    return _row(tag, entry, hyp, concl, detail=detail, millis=(time.perf_counter() - t0) * 1000)


def _biconditional(tag, entry, left, right) -> PropertyReport:
    """Row of ``left <-> right``, both callables returning a bool, timed together."""
    t0 = time.perf_counter()
    sides = left(), right()
    return _biconditional_row(tag, entry, *sides, {}, (time.perf_counter() - t0) * 1000)


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
        reports.extend(_entry_rows(_EntryState(entry), armendariz_degree))
    return reports


def _entry_rows(state: _EntryState, armendariz_degree: Optional[int]) -> list[PropertyReport]:
    entry = state.entry
    ring, grading = entry.ring, entry.grading
    d_arm = (3 if ring.order <= 300 else 2) if armendariz_degree is None else armendariz_degree

    def em_graded() -> bool:
        return state.em_graded().holds

    def re_em() -> bool:
        return state.identity_subring_em().holds

    # t1: EM-graded iff every component is an EM-subset.  is_em_g_graded
    # decides EM-graded by that very scan, so the row checks that its pools
    # cover hZ(R), which holds by construction
    def support_identity() -> bool:
        union = {ring.zero}.union(*(pool for _, pool in _component_pools(ring, grading)))
        return union == set(homogeneous_zero_divisors(grading).elements) | {ring.zero}

    rows = [
        _biconditional("t1", entry, support_identity, lambda: True),
        # t2: component-cyclicity hypotheses + R_e an EM-ring -> EM-graded
        _implication("t2", entry, lambda: state.t2()[0] and re_em(), em_graded),
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
    # EM-graded.  Up to graded isomorphism these are the corners eR = {1, e}^-1 R,
    # one per nonzero homogeneous idempotent e (README, "Localization grading");
    # e = 1 gives R itself, whose verdict is the hypothesis, and 0 in S the zero ring
    def corners_em_graded() -> bool:
        hom = homogeneous_elements(grading).element_set
        for e in idempotents(ring).elements:
            if e in (ring.zero, ring.one) or e not in hom:
                continue
            loc = localization(ring, grading, [ring.one, e])
            if not is_em_g_graded(loc, localization_grading(loc)).holds:
                return False
        return True

    rows.append(_implication("t4", entry, em_graded, corners_em_graded))

    # c3: Bezout-graded -> EM-graded
    rows.append(_implication(
        "c3", entry, lambda: is_bezout_g_graded(ring, grading, BEZOUT_GENERATORS).holds,
        em_graded, detail={"generator_cap": BEZOUT_GENERATORS},
    ))

    # t6: a product is EM-graded iff every factor is (product entries only)
    if (ring.provenance or {}).get("kind") == "product":
        rows.append(_biconditional("t6", entry, em_graded, lambda: all(
            is_em_g_graded(factor, canonical_grading(factor)).holds
            for factor in ring.aux["factors"]
        )))

    # t8: no nonzero homogeneous zero divisors -> R[X]/(X^2) is EM-graded;
    # t9: R[X]/(X^2) EM-graded -> R EM-graded.  built is None when the
    # extension is over its cap, which skips the row
    ext = state.square_zero_extension()
    built = None if ext is None else True

    def ext_em_graded() -> bool:
        return is_em_g_graded(*ext).holds

    rows.append(_implication(
        "t8", entry, lambda: check_t8_condition(grading) and built, ext_em_graded
    ))
    rows.append(_implication("t9", entry, lambda: built and ext_em_graded(), em_graded))

    # t10: idempotent annihilators of homogeneous elements -> EM-graded
    rows.append(_implication("t10", entry, lambda: check_t10_condition(grading)[0], em_graded))

    # t11 / c7: idealization entries R(+)R with the canonical Z2-grading
    if (ring.provenance or {}).get("kind") == "idealization":
        base: FiniteRing = ring.aux["base"]

        def faithful() -> bool:
            return annihilator(base, range(base.order)).elements == (base.zero,)

        def base_em() -> bool:
            return is_em_ring(base).holds

        rows.append(_implication("t11", entry, lambda: faithful() and em_graded(), base_em))
        rows.append(_biconditional("c7", entry, base_em, em_graded))

    # l1: under the component hypotheses, regular tuples of R_e stay regular in R
    rows.append(_implication(
        "l1", entry, lambda: state.t2()[0], lambda: check_regular_embedding(grading).holds
    ))

    # l2: the content ideal of a homogeneous polynomial is a graded ideal.  A
    # nonzero element outside Z(R) is a unit, so a coefficient set holding one
    # generates R, which is graded: the ideals over each component's nonzero
    # zero divisors decide
    def graded_contents() -> bool:
        pools = _component_pools(ring, grading)
        return _lattice_hit(
            ring, pools, lambda ideal: None if is_graded_ideal(grading, ideal) else ideal
        ) is None

    rows.append(_implication("l2", entry, lambda: True, graded_contents))

    # t5: hT(R) EM-graded -> coefficient-set annihilators are principal-like;
    # hT(R) is R itself, so the hypothesis is the entry's EM-graded verdict
    rows.append(_implication(
        "t5", entry, em_graded,
        lambda: verify_t5(ring, grading, em_report=state.em_graded()).holds,
        detail=_ring_bounds(ring),
    ))

    # t7: EM-graded survives one polynomial extension (one check per ideal)
    rows.append(_implication(
        "t7", entry, em_graded,
        lambda: verify_t7_bounded(ring, grading, em_report=state.em_graded()).holds,
    ))
    return rows


def suite_failures(reports: list[PropertyReport]) -> list[PropertyReport]:
    return [r for r in reports if not r.holds]
