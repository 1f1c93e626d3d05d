import importlib.util
import itertools
import json
import sys
from pathlib import Path
from unittest import mock

import pytest

import emrings.theorems as theorems
from emrings.analysis import PropertyReport, SearchCaps, is_em_g_graded
from emrings.construct import (
    build_spec,
    cyclic,
    digit_ids,
    direct_product,
    group_ring,
    idealization,
    localization,
    poly_quotient_xn,
)
from emrings.grading import (
    Grading,
    GradingGroup,
    canonical_grading,
    homogeneous_elements,
    trivial_grading,
    validate_grading,
)
from emrings.presets import PRESETS, build_preset, preset_corpus
from emrings.rings import idempotents, ideal_lattice, zero_divisors

import oracles
from emrings.theorems import (
    CorpusEntry,
    _biconditional,
    _implication,
    suite_failures,
    theorem_suite,
)

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
NEGATIVE_GOLDEN = Path(__file__).parent / "golden" / "suite-negative.json"


def _by_name(reports):
    return {r.property: r for r in reports}


@pytest.fixture(scope="module")
def small_suite():
    entries = preset_corpus(["z2", "z4", "z6", "e1", "e1-idealization"])
    return theorem_suite(entries, SearchCaps())


def test_suite_zero_failures_on_small_corpus(small_suite):
    assert suite_failures(small_suite) == []


def test_suite_row_shape(small_suite):
    rows = _by_name(small_suite)
    # c7 on the idealization: Z4 is EM and Z4(+)Z4 is EM-graded
    c7 = rows["c7@e1-idealization"]
    assert c7.verdict == "true" and c7.bounds["sides"] == [True, True]
    # t3 on e1: EM-graded, so Armendariz-graded at the bounded degree
    t3 = rows["t3@e1"]
    assert t3.bounds["hypothesis"] is True and t3.bounds["conclusion"] is True
    # c2 on e1: not a crossed product, so vacuous
    assert rows["c2@e1"].bounds["hypothesis"] is False
    # t8 on z2: a field satisfies the no-homogeneous-zero-divisor condition
    t8 = rows["t8@z2"]
    assert t8.bounds["hypothesis"] is True and t8.bounds["conclusion"] is True


def test_row_semantics(z4, e1, e1_grading):
    entry = CorpusEntry("x", e1, e1_grading)
    vacuous = _implication("tag", entry, lambda: False, None)
    assert vacuous.verdict == "true" and vacuous.bounds == {"hypothesis": False}
    violated = _implication("tag", entry, lambda: True, lambda: False, detail={"why": "test"})
    assert violated.verdict == "false"
    assert violated.witness == {"hypothesis_held": True, "conclusion_failed": True, "why": "test"}
    skipped = _implication("tag", entry, lambda: None, None, skip="order cap")
    assert skipped.verdict == "true" and skipped.bounds == {"skipped": "order cap"}
    assert _biconditional("tag", entry, lambda: False, lambda: False).bounds == {
        "sides": [False, False]
    }
    split = _biconditional("tag", entry, lambda: True, lambda: False)
    assert split.verdict == "false" and split.witness == {"left": True, "right": False}


def test_t1_fails_when_a_pool_drops_an_element(monkeypatch):
    """t1 recomputes hZ(R) from degree_of and annihilator_mask, so pools that
    miss a homogeneous zero divisor fail the row."""
    import emrings.theorems as theorems

    pools = theorems.component_zero_divisors

    def dropping(grading):
        out = pools(grading)
        key = next(k for k, ids in out if len(ids))
        return [(k, ids[:-1] if k == key else ids) for k, ids in out]

    monkeypatch.setattr(theorems, "component_zero_divisors", dropping)
    rows = _by_name(theorem_suite(preset_corpus(["e1"])))
    assert rows["t1@e1"].witness == {"left": False, "right": True}


def test_t6_runs_on_product_preset():
    entries = preset_corpus(["prod-e1sm"])
    rows = _by_name(theorem_suite(entries, SearchCaps()))
    assert rows["t6@prod-e1sm"].bounds["sides"] == [True, True]
    assert not suite_failures(list(rows.values()))


def test_t6_decides_factors_under_the_projected_grading():
    """t6 grades each factor by the projections of the entry's components.
    e1 x Z2 under the trivial grading projects to the trivial gradings, under
    which e1 is not EM-graded, so both sides are false (not the canonical
    Z2-grading of e1, which is).  Z3 x Z3 graded by the diagonal and the
    antidiagonal is not a product grading: both project onto all of Z3."""
    z3 = direct_product([cyclic(3), cyclic(3)])
    diagonal = validate_grading(
        Grading(z3, GradingGroup((2,)), {(0,): [0, 4, 8], (1,): [0, 5, 7]})
    )
    prod = direct_product([poly_quotient_xn(cyclic(4), 2, var="Y"), cyclic(2)])
    entries = [
        CorpusEntry("e1xZ2", prod, trivial_grading(prod)),
        CorpusEntry("Z3xZ3", z3, diagonal),
    ]
    rows = _by_name(theorem_suite(entries))
    assert suite_failures(list(rows.values())) == []
    assert rows["t6@e1xZ2"].bounds == {"sides": [False, False]}
    assert rows["t6@Z3xZ3"].bounds == {"skipped": "grading is not a product of its projections"}


def _t6_products():
    """(name, ring, grading): prod-e1sm, Z3 x Z3 graded by the diagonal and
    the antidiagonal, and R x S for every R, S below with |R x S| <= 300,
    under the trivial grading and, where the factors share a group, the
    canonical one."""
    factors = {
        "Z2": cyclic(2), "Z4": cyclic(4), "Z6": cyclic(6),
        "e1": poly_quotient_xn(cyclic(4), 2, var="Y"), "Z2(+)Z2": idealization(cyclic(2)),
        "Z2[x]/(x^3)": poly_quotient_xn(cyclic(2), 3), "Z2[Z2]": group_ring(cyclic(2), [2]),
    }
    z3 = direct_product([cyclic(3), cyclic(3)])
    diagonal = Grading(z3, GradingGroup((2,)), {(0,): [0, 4, 8], (1,): [0, 5, 7]})
    cases = [("prod-e1sm", *build_preset("prod-e1sm")), ("Z3xZ3/diagonal", z3, diagonal)]
    for (a, r), (b, s) in itertools.product(factors.items(), repeat=2):
        ring = direct_product([r, s])
        if ring.order > 300:
            continue
        cases.append((f"{a}x{b}/trivial", ring, trivial_grading(ring)))
        try:
            cases.append((f"{a}x{b}", ring, canonical_grading(ring)))
        except ValueError:
            pass  # factors graded over different groups
    return cases


def test_t6_factor_corners_match_the_projected_gradings():
    """Every factor identity e_i is homogeneous exactly where the grading is
    the product of its projections, and then x -> class of e_i*x is a graded
    isomorphism from factor i, under the projected grading, onto the corner
    e_iR under its localization grading; so t6's right side, the factors'
    EM-graded verdicts, is the former one."""
    cases = _t6_products()
    skipped = 0
    for name, ring, grading in cases:
        projected = oracles.former_projected_gradings(ring, grading)
        corners = theorems._factor_corners(ring, grading)
        assert (corners is None) == (projected is None), name
        skipped += corners is None
        factors = ring.aux["factors"]
        for i, (g, corner) in enumerate(zip(projected or [], corners or [])):
            f, loc = factors[i], corner.ring
            at_i = digit_ids(ring, [range(h.order) if j == i else [h.zero]
                                    for j, h in enumerate(factors)])
            phi = loc.aux["canonical_map"][at_i]
            assert sorted(phi.tolist()) == list(range(loc.order)), (name, i)
            for mine, theirs in ((f.add_table, loc.add_table), (f.mul_table, loc.mul_table)):
                assert (phi[mine] == theirs[phi[:, None], phi[None, :]]).all(), (name, i)
            assert {k: sorted(phi[ids].tolist()) for k, ids in g.support.items()} == {
                k: ids.tolist() for k, ids in corner.support.items()
            }, (name, i)
            assert is_em_g_graded(f, g).holds == is_em_g_graded(loc, corner).holds, (name, i)
    assert (len(cases), skipped) == (94, 1)


def test_square_zero_extension_is_decided_once_per_entry(monkeypatch):
    """t8's conclusion and t9's hypothesis share one EM-graded verdict of
    Z2[X]/(X^2)."""
    decide, decided = theorems.is_em_g_graded, []

    def counting(ring, grading):
        decided.append(ring)
        return decide(ring, grading)

    monkeypatch.setattr(theorems, "is_em_g_graded", counting)
    rows = _by_name(theorem_suite(preset_corpus(["z2"])))
    assert rows["t8@z2"].bounds == {"hypothesis": True, "conclusion": True}
    assert rows["t9@z2"].bounds == {"hypothesis": True, "conclusion": True}
    assert [r.order for r in decided if r.provenance["kind"] == "polyQuotientXn"] == [4]


def test_t11_only_on_idealizations(small_suite):
    rows = _by_name(small_suite)
    assert "t11@e1-idealization" in rows
    assert "t11@z6" not in rows


def test_t11_and_c7_skip_idealizations_under_another_grading():
    """The catalog states both rows for the grading R(+)0, 0(+)R only.
    Under the trivial grading Z4(+)Z4 is not EM-graded while Z4 is EM, so
    run there c7 would report false with sides [true, false]."""
    ring = idealization(cyclic(4))
    entries = [
        CorpusEntry("Z4(+)Z4/trivial", ring, trivial_grading(ring)),
        CorpusEntry("Z4(+)Z4", ring, canonical_grading(ring)),
    ]
    rows = _by_name(theorem_suite(entries))
    assert suite_failures(list(rows.values())) == []
    marker = {"skipped": "grading is not R(+)0, 0(+)R"}
    assert rows["t11@Z4(+)Z4/trivial"].bounds == marker
    assert rows["c7@Z4(+)Z4/trivial"].bounds == marker
    assert rows["c7@Z4(+)Z4"].bounds == {"sides": [True, True]}
    assert rows["t11@Z4(+)Z4"].bounds == {"hypothesis": True, "conclusion": True}


def test_suite_deterministic_across_jobs():
    entries = preset_corpus(["z6", "e1"])
    a = theorem_suite(entries, SearchCaps(jobs=1))
    b = theorem_suite(entries, SearchCaps(jobs=4))
    assert [r.to_dict(timing=False) for r in a] == [r.to_dict(timing=False) for r in b]


def test_l2_lattice_over_zero_divisors_misses_only_r():
    """l2 scans each component's ideals over its nonzero zero divisors only:
    a nonzero element outside Z(R) is a unit, so a subset holding one
    generates R, and the lattice over all nonzero elements adds at most R."""
    for entry in preset_corpus():
        ring, grading = entry.ring, entry.grading
        if ring.order > 64:
            continue
        zd = set(zero_divisors(ring).tolist())
        for key in grading.support_keys:
            pool = [e for e in grading.support[key].tolist() if e != ring.zero]
            full = {tuple(ideal.elements.tolist()) for ideal in ideal_lattice(ring, pool)}
            reduced = {tuple(ideal.elements.tolist())
                       for ideal in ideal_lattice(ring, [e for e in pool if e in zd])}
            if any(e not in zd for e in pool):
                reduced.add(tuple(range(ring.order)))
            assert full == reduced, (entry.name, key)


@pytest.mark.parametrize(
    "name, orders",
    [("z6", [2, 3]), ("prod-e1sm", [4, 4]), ("e2-trunc-d1", [8, 27])],
)
def test_t4_localizes_at_each_homogeneous_idempotent_but_one(monkeypatch, name, orders):
    """t4 localizes at {1, e} for each nonzero homogeneous idempotent e != 1
    in ascending id order, and at nothing else: the proper corners eR.  e = 1
    would give R itself, whose verdict is the row's hypothesis (prod-e1sm's 1
    has id 5).  The localizations of t6's factor corners are not recorded."""
    seen = []

    def recording(ring, grading, s):
        loc = localization(ring, grading, s)
        seen.append((set(s), loc.order))
        return loc

    factor_corners = theorems._factor_corners

    def unrecorded(ring, grading):
        with monkeypatch.context() as m:
            m.setattr(theorems, "localization", localization)
            return factor_corners(ring, grading)

    monkeypatch.setattr(theorems, "localization", recording)
    monkeypatch.setattr(theorems, "_factor_corners", unrecorded)
    entry = preset_corpus([name])[0]
    rows = _by_name(theorem_suite([entry]))
    assert rows[f"t4@{name}"].bounds == {"hypothesis": True, "conclusion": True}
    ring, hom = entry.ring, set(homogeneous_elements(entry.grading).tolist())
    expected = [
        e for e in idempotents(ring).tolist() if e not in (ring.zero, ring.one) and e in hom
    ]
    assert [s for s, _ in seen] == [{ring.one, e} for e in expected]
    assert [order for _, order in seen] == orders


def test_t5_hypothesis_is_the_em_graded_verdict():
    """Under the trivial grading e1 and z4-xn-3 are not EM-graded, so the t5
    row is vacuous, like t7's, instead of a skipped row with both sides."""
    entries = [
        CorpusEntry(f"{e.name}-trivial", e.ring, trivial_grading(e.ring))
        for e in preset_corpus(["e1", "z4-xn-3"])
    ]
    rows = _by_name(theorem_suite(entries))
    assert suite_failures(list(rows.values())) == []
    for entry in entries:
        for tag in ("t5", "t7"):
            assert rows[f"{tag}@{entry.name}"].bounds == {"hypothesis": False}, (tag, entry.name)


def test_benchmark_tracer_finds_every_traced_function():
    """The benchmark's tracer wraps library functions by name; renaming or
    removing one must fail here, not only in a traced benchmark run."""
    import emrings.theorems  # noqa: F401  (loads every traced module)

    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        tracer.enable()
    finally:
        tracer.disable()
    for name, fn in tracer.originals.items():
        module, attr = name.split(".")
        assert getattr(sys.modules[f"emrings.{module}"], attr) is fn, name


# -- a corpus that is not EM-graded ------------------------------------------------
# Every preset is EM-graded, so no row that concludes "EM-graded" meets a
# ring where that conclusion is false.  These entries are not EM-graded.


def _total_degree_grading(ring) -> Grading:
    """The grading of a monomial quotient by total degree, over Z."""
    base, basis = ring.aux["base"], ring.aux["basis_monomials"]
    comps = {
        (k,): digit_ids(ring, [base.elements() if sum(m) == k else [base.zero] for m in basis])
        for k in sorted({sum(m) for m in basis})
    }
    return Grading(ring, GradingGroup((0,)), comps)


def negative_corpus() -> list[CorpusEntry]:
    e1, z4_xn_3, e2 = (build_preset(name)[0] for name in ("e1", "z4-xn-3", "e2-trunc-d1"))
    square = build_spec({"kind": "monomialQuotient", "m": 2, "v": 2, "d": 1})
    e1_e1 = idealization(e1)
    e1_z2 = direct_product([e1, cyclic(2)])
    return [
        CorpusEntry("e1/trivial", e1, trivial_grading(e1)),
        CorpusEntry("z4-xn-3/trivial", z4_xn_3, trivial_grading(z4_xn_3)),
        # the component <x, y> makes (x, y) a content ideal that is not principal
        CorpusEntry("e2-trunc-d1/total", e2, _total_degree_grading(e2)),
        CorpusEntry("Z2[x,y]/(x,y)^2/total", square, _total_degree_grading(square)),
        CorpusEntry("e1(+)e1", e1_e1, canonical_grading(e1_e1)),
        CorpusEntry("e1xZ2/trivial", e1_z2, trivial_grading(e1_z2)),
    ]


def _suite_json(reports) -> str:
    return json.dumps([r.to_dict(timing=False) for r in reports], indent=2, sort_keys=True) + "\n"


def _em_graded_mutant(verdict: str):
    """theorems.is_em_g_graded replaced by a decider that always answers ``verdict``."""
    return mock.patch.object(
        theorems, "is_em_g_graded", lambda ring, grading: PropertyReport("em-graded", verdict)
    )


def test_negative_corpus_is_not_em_graded_and_matches_golden():
    """The rows are pinned byte for byte in their own golden file, so the
    preset suite's golden file stays as it is."""
    entries = negative_corpus()
    assert not any(theorems.is_em_g_graded(e.ring, e.grading).holds for e in entries)
    reports = theorem_suite(entries)
    assert suite_failures(reports) == []
    rows = _by_name(reports)
    assert rows["c7@e1(+)e1"].bounds == {"sides": [False, False]}
    assert rows["t6@e1xZ2/trivial"].bounds == {"sides": [False, False]}
    assert _suite_json(reports) == NEGATIVE_GOLDEN.read_text()


def test_always_true_em_graded_fails_the_negative_corpus():
    """An EM-graded decider that always answers true passes the preset suite
    but not this corpus.  t3 runs at degree 2: at degree 3 the mutant's t3
    asks for 36^4 tuples on e2-trunc-d1/total, above the tuple cap."""
    with _em_graded_mutant("true"):
        reports = theorem_suite(negative_corpus(), armendariz_degree=2)
    assert len(suite_failures(reports)) == 16


def test_always_false_em_graded_fails_the_presets():
    names = [name for name in PRESETS if name != "e2-trunc-d2"]
    with _em_graded_mutant("false"):
        reports = theorem_suite(preset_corpus(names))
    assert len(suite_failures(reports)) == 32
