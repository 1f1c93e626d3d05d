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
    _component_ideal_hit,
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
from .rings import FiniteRing, annihilator, idempotents, subring, zero_divisors

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


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, (time.perf_counter() - t0) * 1000


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
    rows: list[PropertyReport] = []
    d_arm = armendariz_degree if armendariz_degree is not None else (
        3 if ring.order <= 300 else 2
    )

    # t1: EM-graded iff every component is an EM-subset.  is_em_g_graded
    # decides EM-graded by that very per-component scan, so what is left to
    # check is the support identity hZ(R) = union of the components' zero
    # divisors, which makes the components' scans cover hZ(R)
    def t1():
        zd = zero_divisors(ring).element_set
        union = {ring.zero}
        for k in grading.support_keys:
            union |= set(grading.support[k].elements) & zd
        return union == (set(homogeneous_zero_divisors(grading).elements) | {ring.zero})

    out, ms = _timed(t1)
    rows.append(_biconditional_row("t1", entry, out, True, {}, ms))

    # t2: component-cyclicity hypotheses + R_e an EM-ring -> EM-graded
    def t2():
        hyp = state.t2()[0] and state.identity_subring_em().holds
        concl = state.em_graded().holds if hyp else None
        return hyp, concl

    (hyp, concl), ms = _timed(t2)
    rows.append(_row("t2", entry, hyp, concl, millis=ms))

    # c2: crossed product + R_e an EM-ring -> EM-graded
    def c2():
        hyp = is_crossed_product(grading)[0] and state.identity_subring_em().holds
        concl = state.em_graded().holds if hyp else None
        return hyp, concl

    (hyp, concl), ms = _timed(c2)
    rows.append(_row("c2", entry, hyp, concl, millis=ms))

    # t3: EM-graded -> Armendariz-graded (bounded degree)
    def t3():
        hyp = state.em_graded().holds
        concl = (
            is_armendariz_g_graded(ring, grading, d_arm).holds if hyp else None
        )
        return hyp, concl

    (hyp, concl), ms = _timed(t3)
    rows.append(_row("t3", entry, hyp, concl, detail={"max_degree": d_arm}, millis=ms))

    # t4: EM-graded -> localizations at homogeneous multiplicative sets stay
    # EM-graded.  S^-1 R is the corner eR of the idempotent power e of the
    # product of S, which is homogeneous, so the sets {1, e}, one per nonzero
    # homogeneous idempotent, give every such localization up to graded
    # isomorphism (README, "Localization grading"); 0 in S gives the zero ring
    def t4():
        hyp = state.em_graded().holds
        if not hyp:
            return hyp, None
        hom = homogeneous_elements(grading).element_set
        for e in idempotents(ring).elements:
            if e == ring.zero or e not in hom:
                continue
            loc = localization(ring, grading, [ring.one, e])
            if not is_em_g_graded(loc, localization_grading(loc)).holds:
                return hyp, False
        return hyp, True

    (hyp, concl), ms = _timed(t4)
    rows.append(_row("t4", entry, hyp, concl, millis=ms))

    # c3: Bezout-graded -> EM-graded
    def c3():
        hyp = is_bezout_g_graded(ring, grading, BEZOUT_GENERATORS).holds
        concl = state.em_graded().holds if hyp else None
        return hyp, concl

    (hyp, concl), ms = _timed(c3)
    rows.append(
        _row("c3", entry, hyp, concl, detail={"generator_cap": BEZOUT_GENERATORS}, millis=ms)
    )

    # t6: a product is EM-graded iff every factor is (product entries only)
    if (ring.provenance or {}).get("kind") == "product":
        def t6():
            left = state.em_graded().holds
            right = True
            for factor in ring.aux["factors"]:
                fg = canonical_grading(factor)
                if not is_em_g_graded(factor, fg).holds:
                    right = False
                    break
            return left, right

        (left, right), ms = _timed(t6)
        rows.append(_biconditional_row("t6", entry, left, right, {}, ms))

    # t8: no nonzero homogeneous zero divisors -> R[X]/(X^2) is EM-graded
    ext = state.square_zero_extension()
    def t8():
        hyp = check_t8_condition(grading)
        if not hyp:
            return hyp, None
        if ext is None:
            return None, None
        ext_ring, lifted = ext
        return hyp, is_em_g_graded(ext_ring, lifted).holds

    (hyp, concl), ms = _timed(t8)
    if hyp is None:
        rows.append(_row("t8", entry, None, None, skipped="extension order cap"))
    else:
        rows.append(_row("t8", entry, hyp, concl, millis=ms))

    # t9: R[X]/(X^2) EM-graded -> R EM-graded
    if ext is None:
        rows.append(_row("t9", entry, None, None, skipped="extension order cap"))
    else:
        def t9():
            ext_ring, lifted = ext
            hyp = is_em_g_graded(ext_ring, lifted).holds
            concl = state.em_graded().holds if hyp else None
            return hyp, concl

        (hyp, concl), ms = _timed(t9)
        rows.append(_row("t9", entry, hyp, concl, millis=ms))

    # t10: idempotent annihilators of homogeneous elements -> EM-graded
    def t10():
        hyp = check_t10_condition(grading)[0]
        concl = state.em_graded().holds if hyp else None
        return hyp, concl

    (hyp, concl), ms = _timed(t10)
    rows.append(_row("t10", entry, hyp, concl, millis=ms))

    # t11 / c7: idealization entries R(+)R with the canonical Z2-grading
    if (ring.provenance or {}).get("kind") == "idealization":
        base: FiniteRing = ring.aux["base"]

        def t11():
            faithful = annihilator(base, range(base.order)).elements == (base.zero,)
            hyp = faithful and state.em_graded().holds
            concl = is_em_ring(base).holds if hyp else None
            return hyp, concl

        (hyp, concl), ms = _timed(t11)
        rows.append(_row("t11", entry, hyp, concl, millis=ms))

        def c7():
            return is_em_ring(base).holds, state.em_graded().holds

        (left, right), ms = _timed(c7)
        rows.append(_biconditional_row("c7", entry, left, right, {}, ms))

    # l1: under the component hypotheses, regular tuples of R_e stay regular in R
    def l1():
        hyp = state.t2()[0]
        concl = check_regular_embedding(grading).holds if hyp else None
        return hyp, concl

    (hyp, concl), ms = _timed(l1)
    rows.append(_row("l1", entry, hyp, concl, millis=ms))

    # l2: the content ideal of a homogeneous polynomial is a graded ideal; the
    # content ideals of one component's polynomials are the ideals its
    # nonzero elements generate.  A nonzero element outside Z(R) is a unit, so
    # a subset holding one generates R, which is graded: the ideals over the
    # component's nonzero zero divisors decide
    def l2():
        bad = _component_ideal_hit(
            ring, grading, lambda ideal: ideal if not is_graded_ideal(grading, ideal) else None
        )
        return True, bad is None

    (hyp, concl), ms = _timed(l2)
    rows.append(_row("l2", entry, hyp, concl, millis=ms))

    # t5: hT(R) EM-graded -> coefficient-set annihilators are principal-like;
    # hT(R) is R itself, so the hypothesis is the entry's EM-graded verdict
    report, ms = _timed(lambda: verify_t5(ring, grading, em_report=state.em_graded()))
    rows.append(_row("t5", entry, True, report.holds, detail=dict(report.bounds), millis=ms))

    # t7: EM-graded survives one polynomial extension (one check per ideal)
    def t7():
        hyp = state.em_graded().holds
        if not hyp:
            return hyp, None
        return hyp, verify_t7_bounded(ring, grading, em_report=state.em_graded()).holds

    (hyp, concl), ms = _timed(t7)
    rows.append(_row("t7", entry, hyp, concl, millis=ms))

    return rows


def suite_failures(reports: list[PropertyReport]) -> list[PropertyReport]:
    return [r for r in reports if not r.holds]
