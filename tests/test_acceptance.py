"""Acceptance gate: one test per criterion, each printing a pass/fail line.

All criteria are computed once per worker-count level through
``_criteria_documents``; the determinism criterion re-runs everything on
fresh ring builds at a higher worker count and compares serialized bytes.
"""

import json
import time
from pathlib import Path

import numpy as np

import conftest
from emrings.analysis import (
    SearchCaps,
    find_annihilating_content,
    is_armendariz,
    is_armendariz_g_graded,
    is_em_g_graded,
    is_em_ring,
)
from emrings.construct import build_spec, cyclic, direct_product, idealization
from emrings.grading import canonical_grading, check_t2_hypotheses, grading_for_spec
from emrings.poly import is_zero_divisor_poly, polynomial
from emrings.presets import PRESETS
from emrings.rings import annihilator, validate_ring, zero_divisors
from emrings.theorems import CorpusEntry, suite_failures, theorem_suite

from oracles import content_bruteforce, poly_annihilator_bruteforce

MCCOY_SAMPLES_PER_RING = 250
CONTENT_SAMPLES_PER_RING = 1700

_RUNS: dict[int, tuple[dict, dict]] = {}


def _fresh_corpus() -> list[CorpusEntry]:
    """Build every preset from scratch so runs at different worker counts
    share no caches."""
    entries = []
    for name, preset in PRESETS.items():
        ring = build_spec(preset.spec, max_order=preset.max_order)
        validate_ring(ring)
        grading = grading_for_spec(ring, preset.grading)
        entries.append(CorpusEntry(name=name, ring=ring, grading=grading))
    return entries


def _small_rings(entries):
    return [e for e in entries if e.ring.order <= 16]


def _criterion_1(entries, caps):
    e1 = next(e for e in entries if e.name == "e1")
    em = is_em_ring(e1.ring)
    content = find_annihilating_content(polynomial(e1.ring, [2, 4]))
    graded = is_em_g_graded(e1.ring, e1.grading)
    return {
        "em": em.to_dict(timing=False),
        "content_of_2_plus_Yx": None if content is None else content.to_dict(),
        "em_graded": graded.to_dict(timing=False),
    }


def _criterion_2(caps):
    docs = []
    bases = [cyclic(2), cyclic(3), cyclic(4), cyclic(6), direct_product([cyclic(2), cyclic(2)])]
    for base in bases:
        ring = idealization(base)
        grading = canonical_grading(ring)
        em = is_em_ring(base)
        graded = is_em_g_graded(ring, grading)
        docs.append(
            {
                "base_order": base.order,
                "em": em.to_dict(timing=False),
                "em_graded": graded.to_dict(timing=False),
            }
        )
    return docs


def _criterion_3(entries, caps):
    from emrings.construct import poly_quotient_xn

    z4 = cyclic(4)
    out = {"em_z4": is_em_ring(validate_ring(z4)).to_dict(timing=False)}
    for n in (2, 3):
        ring = poly_quotient_xn(z4, n)
        grading = canonical_grading(ring)
        out[f"n{n}"] = is_em_g_graded(ring, grading).to_dict(timing=False)
    return out


def _criterion_4(entries, caps):
    e2 = next(e for e in entries if e.name == "e2-trunc-d2")
    ok, witnesses = check_t2_hypotheses(e2.grading)
    graded = is_em_g_graded(e2.ring, e2.grading)
    return {
        "t2_hypotheses": ok,
        "t2_witnesses": {str(list(k)): v for k, v in witnesses.items()},
        "em_graded": graded.to_dict(timing=False),
    }


def _criterion_5(entries, caps):
    disagreements = []
    total = 0
    for entry in _small_rings(entries):
        ring = entry.ring
        rng = np.random.default_rng(ring.order * 1009 + 5)
        zd_pool = zero_divisors(ring).tolist()
        full = list(range(ring.order))
        done = 0
        while done < MCCOY_SAMPLES_PER_RING:
            width = int(rng.integers(1, 5))
            pool = zd_pool if (zd_pool and rng.random() < 0.5) else full
            coeffs = [int(rng.choice(pool)) for _ in range(width)]
            f = polynomial(ring, coeffs)
            if f.is_zero:
                continue
            done += 1
            total += 1
            verdict, witness = is_zero_divisor_poly(f)
            brute = poly_annihilator_bruteforce(ring, f.coeffs, 3)
            if verdict != (brute is not None):
                disagreements.append(
                    {"ring": entry.name, "poly": list(f.coeffs), "mccoy": verdict}
                )
            elif verdict and any(ring.mul(witness, c) != 0 for c in f.coeffs):
                disagreements.append(
                    {"ring": entry.name, "poly": list(f.coeffs), "bad_witness": witness}
                )
    return {"samples": total, "disagreements": disagreements}


def _criterion_6(entries, caps):
    disagreements = []
    total = 0
    for entry in _small_rings(entries):
        ring = entry.ring
        zd_pool = zero_divisors(ring).tolist()
        if len(zd_pool) <= 1:
            continue  # fields: no zero-divisor polynomials exist
        rng = np.random.default_rng(ring.order * 2003 + 6)
        done = 0
        attempts = 0
        while done < CONTENT_SAMPLES_PER_RING and attempts < CONTENT_SAMPLES_PER_RING * 60:
            attempts += 1
            width = int(rng.integers(1, 6))
            coeffs = [int(rng.choice(zd_pool)) for _ in range(width)]
            f = polynomial(ring, coeffs)
            if f.is_zero:
                continue
            if annihilator(ring, set(f.coeffs)).elements.tolist() == [ring.zero]:
                continue  # regular: not a zero-divisor polynomial
            done += 1
            total += 1
            witness = find_annihilating_content(f)
            oracle_c = content_bruteforce(ring, f.coeffs)
            if (witness is None) != (oracle_c is None):
                disagreements.append({"ring": entry.name, "poly": list(f.coeffs)})
                continue
            if witness is not None:
                witness.revalidate(f)
                if witness.c != oracle_c:
                    disagreements.append(
                        {"ring": entry.name, "poly": list(f.coeffs),
                         "reduced_c": witness.c, "oracle_c": oracle_c}
                    )
        assert done == CONTENT_SAMPLES_PER_RING, f"sampling starved on {entry.name}"
    return {"samples": total, "disagreements": disagreements}


def _criterion_7(entries, caps):
    e1 = next(e for e in entries if e.name == "e1")
    ungraded = is_armendariz(e1.ring, 1)
    graded = is_armendariz_g_graded(e1.ring, e1.grading, 3)
    recheck = None
    if ungraded.verdict == "false":
        from emrings.poly import poly_mul

        f = polynomial(e1.ring, ungraded.witness["f"])
        g = polynomial(e1.ring, ungraded.witness["g"])
        i, j = ungraded.witness["nonzero_product_at"]
        recheck = {
            "product_is_zero": poly_mul(f, g).is_zero,
            "coefficient_product_nonzero": e1.ring.mul(f.coefficient(i), g.coefficient(j)) != 0,
        }
    return {
        "armendariz": ungraded.to_dict(timing=False),
        "armendariz_graded": graded.to_dict(timing=False),
        "witness_recheck": recheck,
    }


def _criterion_8(entries, caps):
    reports = theorem_suite(entries, caps)
    return {
        "rows": [r.to_dict(timing=False) for r in reports],
        "failures": [r.to_dict(timing=False) for r in suite_failures(reports)],
    }


def _criteria_documents(jobs: int) -> tuple[dict, dict]:
    if jobs in _RUNS:
        return _RUNS[jobs]
    caps = SearchCaps(jobs=jobs)
    entries = _fresh_corpus()
    docs: dict = {}
    elapsed: dict = {}

    t0 = time.perf_counter()
    docs["c1"] = _criterion_1(entries, caps)
    elapsed["c1"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    docs["c2"] = _criterion_2(caps)
    elapsed["c2"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    docs["c3"] = _criterion_3(entries, caps)
    elapsed["c3"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    docs["c4"] = _criterion_4(entries, caps)
    elapsed["c4"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    docs["c5"] = _criterion_5(entries, caps)
    elapsed["c5"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    docs["c6"] = _criterion_6(entries, caps)
    elapsed["c6"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    docs["c7"] = _criterion_7(entries, caps)
    elapsed["c7"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    docs["c8"] = _criterion_8(entries, caps)
    elapsed["c8"] = time.perf_counter() - t0

    _RUNS[jobs] = (docs, elapsed)
    return _RUNS[jobs]


def _log(line: str) -> None:
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)


def test_criterion_1_flagship_example():
    docs, elapsed = _criteria_documents(1)
    c1 = docs["c1"]
    ok = (
        c1["em"]["verdict"] == "false"
        and c1["content_of_2_plus_Yx"] is None
        and c1["em_graded"]["verdict"] == "true"
        and "max_subset" not in c1["em_graded"]["bounds"]
    )
    _log(f"criterion 1 {'PASS' if ok else 'FAIL'}: Z4[Y]/(Y^2) not EM, 2+Yx has no "
         f"content, EM-graded exhaustively ({elapsed['c1']:.1f}s)")
    assert ok
    assert elapsed["c1"] < 10


def test_criterion_2_idealization_biconditional():
    docs, elapsed = _criteria_documents(1)
    ok = all(row["em"]["verdict"] == row["em_graded"]["verdict"] for row in docs["c2"])
    _log(f"criterion 2 {'PASS' if ok else 'FAIL'}: EM(R) == EM-graded(R(+)R) on all "
         f"{len(docs['c2'])} base rings ({elapsed['c2']:.1f}s)")
    assert ok
    assert len(docs["c2"]) == 5
    assert elapsed["c2"] < 120


def test_criterion_3_power_quotients():
    docs, elapsed = _criteria_documents(1)
    c3 = docs["c3"]
    ok = (
        c3["em_z4"]["verdict"] == "true"
        and c3["n2"]["verdict"] == "true"
        and c3["n3"]["verdict"] == "true"
    )
    _log(f"criterion 3 {'PASS' if ok else 'FAIL'}: Z4[x]/(x^n) EM-graded for n=2,3 "
         f"({elapsed['c3']:.1f}s)")
    assert ok
    assert elapsed["c3"] < 120


def test_criterion_4_truncated_bivariate_ring():
    docs, elapsed = _criteria_documents(1)
    c4 = docs["c4"]
    ok = (
        c4["t2_hypotheses"] is True
        and c4["em_graded"]["verdict"] in ("true", "true_up_to_bounds")
        and c4["em_graded"]["bounds"].get("truncated_at_degree") == 2
    )
    _log(f"criterion 4 {'PASS' if ok else 'FAIL'}: order-7776 truncation EM-graded "
         f"with truncation label ({elapsed['c4']:.1f}s)")
    assert ok
    assert elapsed["c4"] < 300


def test_criterion_5_mccoy_oracle():
    docs, elapsed = _criteria_documents(1)
    c5 = docs["c5"]
    ok = c5["samples"] >= 1000 and not c5["disagreements"]
    _log(f"criterion 5 {'PASS' if ok else 'FAIL'}: constant-annihilator detection vs "
         f"brute force, {c5['samples']} samples, "
         f"{len(c5['disagreements'])} disagreements ({elapsed['c5']:.1f}s)")
    assert ok


def test_criterion_6_content_oracle():
    docs, elapsed = _criteria_documents(1)
    c6 = docs["c6"]
    ok = c6["samples"] >= 1000 and not c6["disagreements"]
    _log(f"criterion 6 {'PASS' if ok else 'FAIL'}: reduced content search vs "
         f"unrestricted brute force, {c6['samples']} samples, "
         f"{len(c6['disagreements'])} disagreements ({elapsed['c6']:.1f}s)")
    assert ok


def test_criterion_7_armendariz():
    docs, elapsed = _criteria_documents(1)
    c7 = docs["c7"]
    ok = (
        c7["armendariz"]["verdict"] == "false"
        and c7["witness_recheck"] == {
            "product_is_zero": True,
            "coefficient_product_nonzero": True,
        }
        and c7["armendariz_graded"]["verdict"] in ("true", "true_up_to_bounds")
    )
    _log(f"criterion 7 {'PASS' if ok else 'FAIL'}: Armendariz counterexample at d=1, "
         f"graded variant holds at d=3 ({elapsed['c7']:.1f}s)")
    assert ok


def test_criterion_8_theorem_suite():
    docs, elapsed = _criteria_documents(1)
    c8 = docs["c8"]
    ok = len(c8["rows"]) > 0 and not c8["failures"]
    _log(f"criterion 8 {'PASS' if ok else 'FAIL'}: theorem suite, "
         f"{len(c8['rows'])} rows, {len(c8['failures'])} failures "
         f"({elapsed['c8']:.1f}s)")
    assert ok
    assert elapsed["c8"] < 900


def test_criterion_8_rows_match_golden():
    """The suite's rows are pinned byte for byte: a change of any verdict,
    bound or row set shows here."""
    docs, _ = _criteria_documents(1)
    text = json.dumps(docs["c8"]["rows"], indent=2, sort_keys=True) + "\n"
    assert text == (Path(__file__).parent / "golden" / "suite.json").read_text()


def test_criterion_9_determinism_across_jobs():
    docs1, _ = _criteria_documents(1)
    docs8, _ = _criteria_documents(8)
    mismatches = []
    for key in sorted(docs1):
        a = json.dumps(docs1[key], sort_keys=True).encode()
        b = json.dumps(docs8[key], sort_keys=True).encode()
        if a != b:
            mismatches.append(key)
    ok = not mismatches
    _log(f"criterion 9 {'PASS' if ok else 'FAIL'}: byte-identical reports at "
         f"SearchCaps(jobs=1) and SearchCaps(jobs=8) (mismatches: {mismatches or 'none'})")
    assert ok
