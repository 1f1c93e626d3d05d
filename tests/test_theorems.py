import importlib.util
import sys
from pathlib import Path

import pytest

from emrings.analysis import SearchCaps
from emrings.construct import localization
from emrings.grading import homogeneous_elements
from emrings.presets import preset_corpus
from emrings.rings import idempotents, ideal_lattice, zero_divisors
from emrings.theorems import CorpusEntry, _row, suite_failures, theorem_suite

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
    vacuous = _row("tag", entry, False, None)
    assert vacuous.verdict == "true" and vacuous.bounds["hypothesis"] is False
    violated = _row("tag", entry, True, False, detail={"why": "test"})
    assert violated.verdict == "false"
    assert violated.witness["conclusion_failed"] is True
    skipped = _row("tag", entry, None, None, skipped="order cap")
    assert skipped.verdict == "true" and skipped.bounds["skipped"] == "order cap"


def test_t6_runs_on_product_preset():
    entries = preset_corpus(["prod-e1sm"])
    rows = _by_name(theorem_suite(entries, SearchCaps()))
    assert rows["t6@prod-e1sm"].bounds["sides"] == [True, True]
    assert not suite_failures(list(rows.values()))


def test_t11_only_on_idealizations(small_suite):
    rows = _by_name(small_suite)
    assert "t11@e1-idealization" in rows
    assert "t11@z6" not in rows


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
        zd = zero_divisors(ring).element_set
        for key in grading.support_keys:
            pool = [e for e in grading.support[key].elements if e != ring.zero]
            full = {ideal.elements for ideal in ideal_lattice(ring, pool)}
            reduced = {ideal.elements for ideal in ideal_lattice(ring, [e for e in pool if e in zd])}
            if any(e not in zd for e in pool):
                reduced.add(tuple(range(ring.order)))
            assert full == reduced, (entry.name, key)


@pytest.mark.parametrize(
    "name, orders",
    [("z6", [6, 2, 3]), ("prod-e1sm", [4, 4, 16]), ("e2-trunc-d1", [216, 8, 27])],
)
def test_t4_localizes_at_one_and_each_homogeneous_idempotent(monkeypatch, name, orders):
    """t4 localizes at {1, e} for each nonzero homogeneous idempotent e in
    ascending id order, and at nothing else; e = 1 gives R, the others the
    proper corners eR (prod-e1sm's 1 has id 5)."""
    import emrings.theorems as theorems

    seen = []

    def recording(ring, grading, s):
        loc = localization(ring, grading, s)
        seen.append((set(s), loc.order))
        return loc

    monkeypatch.setattr(theorems, "localization", recording)
    entry = preset_corpus([name])[0]
    rows = _by_name(theorem_suite([entry]))
    assert rows[f"t4@{name}"].bounds == {"hypothesis": True, "conclusion": True}
    ring, hom = entry.ring, homogeneous_elements(entry.grading).element_set
    expected = [e for e in idempotents(ring).elements if e != ring.zero and e in hom]
    assert [s for s, _ in seen] == [{ring.one, e} for e in expected]
    assert [order for _, order in seen] == orders


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
