import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emrings.analysis import (
    ContentWitness,
    PropertyReport,
    SearchCaps,
    _rep_map,
    _try_candidate,
    check_regular_embedding,
    find_annihilating_content,
    first_hit,
    is_armendariz,
    is_armendariz_g_graded,
    is_bezout_g_graded,
    is_em_g_graded,
    is_em_ring,
    is_em_subset,
    verify_t5,
    verify_t7_bounded,
)
from emrings.construct import cyclic, idealization, poly_quotient_xn
from emrings.grading import (
    idealization_grading,
    trivial_grading,
    xn_grading,
)
from emrings.poly import poly_mul, polynomial
from emrings.rings import annihilator, validate_ring, zero_divisors

from oracles import content_bruteforce


def test_content_search_examples(z4, e1, e1_grading):
    # the flagship counterexample: 2 + Yx has no annihilating content
    assert find_annihilating_content(polynomial(e1, [2, 4])) is None

    w = find_annihilating_content(polynomial(z4, [2, 2]))
    assert w is not None and w.c == 2
    w.revalidate(polynomial(z4, [2, 2]))

    w = find_annihilating_content(polynomial(e1, [4, 12]), e1_grading)  # Y + 3Yx
    assert w is not None and w.c == 4 and w.homogeneous_c == 4
    assert {1, 3} <= set(w.g.coeffs)
    w.revalidate(polynomial(e1, [4, 12]))


def test_content_search_preconditions(z4):
    with pytest.raises(ValueError):
        find_annihilating_content(polynomial(z4, []))
    with pytest.raises(ValueError):
        find_annihilating_content(polynomial(z4, [1, 2]))  # regular


def test_witness_invariants_reject_tampering(z4, z6):
    f = polynomial(z4, [2, 2])
    w = find_annihilating_content(f)
    # wrong cofactor: 2 * (1 + 2x) = 2, not 2 + 2x
    bad = ContentWitness(c=w.c, g=polynomial(z4, [1, 2]), homogeneous_c=None)
    with pytest.raises(AssertionError):
        bad.revalidate(f)
    # c must be a zero divisor
    with pytest.raises(AssertionError):
        ContentWitness(c=1, g=f).revalidate(f)
    # 3 * (3 + 3x) reproduces 3 + 3x, but the cofactor is not regular
    f6 = polynomial(z6, [3, 3])
    with pytest.raises(AssertionError):
        ContentWitness(c=3, g=polynomial(z6, [3, 3])).revalidate(f6)


def test_is_em_subset_examples(z4, e1):
    assert is_em_subset(z4, [0, 2], SearchCaps()).verdict == "true"
    rep = is_em_subset(e1, range(16), SearchCaps())
    assert rep.verdict == "false"
    assert rep.witness["coefficients"] == [2, 4]
    # the component Z4*Y is an EM-subset
    assert is_em_subset(e1, [0, 4, 8, 12], SearchCaps()).verdict == "true"


def test_is_em_ring_examples(z4, z6, e1):
    assert is_em_ring(e1).verdict == "false"
    assert is_em_ring(validate_ring(cyclic(5))).verdict == "true"
    assert is_em_ring(z6).verdict == "true"
    assert is_em_ring(z4).verdict == "true"
    assert is_em_ring(validate_ring(cyclic(1))).verdict == "true"


def test_is_em_g_graded_examples(e1, e1_grading, z4):
    assert is_em_g_graded(e1, e1_grading).verdict == "true"
    ideal_ring = idealization(z4)
    g = idealization_grading(ideal_ring)
    assert is_em_g_graded(ideal_ring, g).verdict == "true"


def test_em_counterexample_witness_rechecks(e1):
    rep = is_em_ring(e1)
    f = polynomial(e1, rep.witness["poly"])
    # the witness really is a zero-divisor polynomial without a content
    assert annihilator(e1, set(f.coeffs)).elements != (0,)
    assert find_annihilating_content(f) is None


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_content_search_matches_bruteforce(z4, z6, e1, data):
    ring = data.draw(st.sampled_from([z4, z6, e1]))
    pool = [c for c in zero_divisors(ring).elements]
    coeffs = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    f = polynomial(ring, coeffs)
    if f.is_zero:
        return
    mask = annihilator(ring, set(f.coeffs)).elements
    if mask == (ring.zero,):
        return  # regular polynomial: out of scope for the content search
    w = find_annihilating_content(f)
    oracle_c = content_bruteforce(ring, f.coeffs)
    if w is None:
        assert oracle_c is None
    else:
        assert oracle_c == w.c
        w.revalidate(f)


def test_representative_independence(z4, e1):
    """Acceptance of a candidate c does not depend on which divisor-equation
    solutions are picked: any combination plus the Ann(c) tail gives the same
    verdict as the smallest-representative path."""
    for ring in (z4, e1):
        zd = [c for c in zero_divisors(ring).elements if c != ring.zero]
        for coeffs in itertools.product(zd, repeat=2):
            f = polynomial(ring, coeffs)
            if annihilator(ring, set(f.coeffs)).elements == (ring.zero,):
                continue
            for c in zd:
                vals, first, ann_c = _rep_map(ring, c)
                sols = []
                divisible = True
                for a in f.coeffs:
                    here = np.nonzero(ring.mul_table[c] == a)[0]
                    if len(here) == 0:
                        divisible = False
                        break
                    sols.append([int(x) for x in here])
                reduced = _try_candidate(ring, f.coeffs, c)
                if not divisible:
                    assert reduced is None
                    continue
                tail = set(int(w) for w in ann_c if w != ring.zero)
                for combo in itertools.product(*sols):
                    gens = set(combo) | tail
                    accepted = annihilator(ring, gens).elements == (ring.zero,)
                    assert accepted == (reduced is not None), (ring.order, coeffs, c, combo)


def test_content_monotone_in_coefficient_set(e1):
    """If a set admits content c, any superset inside c*R admits c too."""
    rng = np.random.default_rng(7)
    zd = [c for c in zero_divisors(e1).elements if c != 0]
    for _ in range(50):
        base = rng.choice(zd, size=2).tolist()
        f = polynomial(e1, sorted(set(base)))
        if f.is_zero or annihilator(e1, set(f.coeffs)).elements == (0,):
            continue
        w = find_annihilating_content(f)
        if w is None:
            continue
        c = w.c
        c_multiples = set(int(x) for x in np.unique(e1.mul_table[c])) - {0}
        extras = sorted(c_multiples - set(f.coeffs))
        if not extras:
            continue
        bigger = sorted(set(f.coeffs) | {extras[0]})
        assert _try_candidate(e1, tuple(bigger), c) is not None


def test_armendariz_examples(z4, e1, e1_grading):
    rep = is_armendariz(e1, 1)
    assert rep.verdict == "false"
    f = polynomial(e1, rep.witness["f"])
    g = polynomial(e1, rep.witness["g"])
    assert poly_mul(f, g).is_zero
    i, j = rep.witness["nonzero_product_at"]
    assert e1.mul(f.coefficient(i), g.coefficient(j)) != 0

    assert is_armendariz_g_graded(e1, e1_grading, 3).holds
    assert is_armendariz(validate_ring(cyclic(5)), 2).holds
    assert is_armendariz(z4, 1).holds


def test_bezout_examples(z6, e1, e1_grading):
    assert is_bezout_g_graded(z6, trivial_grading(z6), 2).verdict == "true"
    z5 = validate_ring(cyclic(5))
    assert is_bezout_g_graded(z5, trivial_grading(z5), 2).verdict == "true"
    rep = is_bezout_g_graded(e1, e1_grading, 2)
    # cross-check with the catalog: Bezout-graded would force EM-graded
    if rep.holds:
        assert is_em_g_graded(e1, e1_grading).holds
    with pytest.raises(ValueError):
        is_bezout_g_graded(z6, trivial_grading(z6), 1)


def test_regular_embedding(z4, e1_grading):
    assert check_regular_embedding(e1_grading).holds
    ring = poly_quotient_xn(cyclic(2), 3)
    assert check_regular_embedding(xn_grading(ring)).holds
    z6 = cyclic(6)
    assert check_regular_embedding(trivial_grading(z6)).holds


def test_verify_t5(e1, e1_grading):
    rep = verify_t5(e1, e1_grading)
    assert rep.holds and "skipped" not in rep.bounds
    # the specific pair from the component Z4Y: Ann({Y, 2Y}) = Ann(Y)
    assert annihilator(e1, [4, 8]).elements == annihilator(e1, [4]).elements


def test_verify_t7(e1, e1_grading):
    rep = verify_t7_bounded(e1, e1_grading)
    assert rep.holds
    with pytest.raises(ValueError):
        verify_t7_bounded(e1, e1_grading, em_report=PropertyReport("em-graded", "false"))


def test_property_report_round_trip():
    rep = PropertyReport("em", "false", {"coefficients": [2, 4]}, {"max_subset": 4}, 12.5)
    doc = rep.to_dict()
    back = PropertyReport.from_dict(json.loads(json.dumps(doc)))
    assert back == rep
    stable = rep.to_dict(timing=False)
    assert stable["millis"] is None


def test_caps_resolution(z4, e1):
    big = idealization(cyclic(6))  # |Z| = 24 > 12
    assert SearchCaps().subset_cap(z4) is None  # |Z(Z4)| = 2 <= 12
    assert SearchCaps().subset_cap(e1) is None  # |Z(e1)| = 8 <= 12
    assert SearchCaps().subset_cap(big) == 4
    assert SearchCaps(max_subset=None).subset_cap(big) is None
    assert SearchCaps(max_subset=0).subset_cap(big) is None
    assert SearchCaps(max_subset=2).subset_cap(z4) == 2


def test_first_hit_stops_at_first_hit_in_order():
    items = list(range(999, -1, -1))  # descending: the first hit is not the smallest
    seen = []

    def check(x):
        seen.append(x)
        return ("hit", x) if x % 379 == 17 else None

    assert first_hit(items, check) == (775, ("hit", 775))
    assert seen == items[: items.index(775) + 1]  # nothing checked past the hit
    assert first_hit(items, lambda x: None) is None


def test_jobs_do_not_change_reports(e1, e1_grading):
    seq = is_em_g_graded(e1, e1_grading, SearchCaps(jobs=1))
    par = is_em_g_graded(e1, e1_grading, SearchCaps(jobs=4))
    assert seq.to_dict(timing=False) == par.to_dict(timing=False)
    seq = is_em_ring(e1, SearchCaps(jobs=1))
    par = is_em_ring(e1, SearchCaps(jobs=4))
    assert seq.to_dict(timing=False) == par.to_dict(timing=False)
