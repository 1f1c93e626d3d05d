import functools
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emrings.analysis import (
    ContentWitness,
    PropertyReport,
    _candidate_data,
    _try_candidate,
    check_bivariate_content,
    check_regular_embedding,
    find_annihilating_content,
    first_hit,
    ideal_grid,
    is_armendariz,
    is_armendariz_g_graded,
    is_bezout_g_graded,
    is_em_g_graded,
    is_em_ring,
    is_em_subset,
    verify_t5,
    verify_t7_bounded,
)
from emrings.construct import (
    cyclic,
    direct_product,
    idealization,
    localization,
    poly_quotient_xn,
)
from emrings.grading import (
    Grading,
    check_t2_hypotheses,
    idealization_grading,
    is_graded_ideal,
    localization_grading,
    trivial_grading,
    validate_grading,
    xn_grading,
)
from emrings.poly import bivariate, content_ideal, kronecker_flatten, poly_mul, polynomial
from emrings.presets import PRESETS, build_preset, preset_names
from emrings.rings import (
    FiniteRing,
    annihilator,
    ideal_generated,
    ideal_lattice,
    units,
    validate_ring,
    zero_divisors,
)

from oracles import (
    armendariz_scan_loop,
    content_bruteforce,
    first_subset,
    homogeneous_units,
    t7_grid_failure,
    table_annihilator,
)


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
    assert is_em_subset(z4, [0, 2]).verdict == "true"
    rep = is_em_subset(e1, range(16))
    assert rep.verdict == "false"
    assert rep.witness["coefficients"] == [2, 4]
    # the component Z4*Y is an EM-subset
    assert is_em_subset(e1, [0, 4, 8, 12]).verdict == "true"
    # the report name is keyword-only, so a stray third argument fails loudly
    with pytest.raises(TypeError):
        is_em_subset(z4, [0, 2], "em")
    assert is_em_subset(z4, [0, 2], name="em").property == "em"


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
                ann_c = np.flatnonzero(ring.mul_table[c] == ring.zero)
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


def test_principal_classes_are_associates():
    """The content search's candidate classes are the distinct principal
    ideals cR over Z(R)\\{0}; each holds exactly the associates u*c of its
    smallest generator c, and _try_candidate accepts all generators of a
    class or none, on every set of one or two nonzero zero divisors."""
    for name, ring, _ in _oracle_cases():
        div, classes = _candidate_data(ring)
        zd = _nonzero_zero_divisors(ring, range(ring.order))
        assert sorted(g for members in classes for g in members) == zd, name
        smallest = [members[0] for members in classes]
        assert smallest == sorted(smallest), name
        unit_ids = list(units(ring).elements)
        ideals = set()
        for row, members in zip(div, classes):
            c = members[0]
            principal = ideal_generated(ring, [c]).elements
            assert tuple(np.flatnonzero(row)) == principal, (name, c)
            assert members == sorted(set(int(x) for x in ring.mul_table[c, unit_ids])), (name, c)
            ideals.add(principal)
        assert len(ideals) == len(classes), name
        for coeffs in itertools.chain(itertools.combinations(zd, 1), itertools.combinations(zd, 2)):
            for members in classes:
                verdicts = {_try_candidate(ring, coeffs, g) is None for g in members}
                assert len(verdicts) == 1, (name, coeffs, members)


def test_candidate_table_has_one_row_per_principal_ideal():
    """e2-trunc-d2's 5183 nonzero zero divisors generate 138 ideals cR."""
    ring, _ = build_preset("e2-trunc-d2")
    div, classes = _candidate_data(ring)
    assert div.shape == (138, ring.order)
    assert sum(len(members) for members in classes) == 5183


def _relabelled(ring, grading, seed):
    """A copy of (ring, grading) under a seeded permutation of the nonzero
    ids, so homogeneous elements no longer sit at the smallest ids."""
    rng = np.random.default_rng(seed)
    perm = np.concatenate([[ring.zero], 1 + rng.permutation(ring.order - 1)])
    inv = np.argsort(perm)
    copy = validate_ring(
        FiniteRing(
            perm[ring.add_table[np.ix_(inv, inv)]],
            perm[ring.mul_table[np.ix_(inv, inv)]],
            ring.zero,
            int(perm[ring.one]),
        )
    )
    comps = {k: [int(perm[e]) for e in es.elements] for k, es in grading.support.items()}
    return copy, validate_grading(Grading(copy, grading.group, comps))


@pytest.mark.parametrize("name", ["e1", "z4-xn-3", "z4-groupring-z2", "prod-e1sm"])
def test_homogeneous_content_matches_oracle(name):
    """homogeneous_c is the smallest homogeneous zero divisor the brute-force
    oracle accepts, for every set of one or two nonzero zero divisors.  On
    the relabelled copies of e1, z4-xn-3 and prod-e1sm some sets have a
    homogeneous_c above c, which the presets' own ids never show."""
    preset = build_preset(name)
    for ring, grading in (preset, _relabelled(*preset, seed=6)):
        homogeneous = set().union(*(es.elements for es in grading.support.values()))
        zd = _nonzero_zero_divisors(ring, range(ring.order))
        for coeffs in itertools.chain(itertools.combinations(zd, 1), itertools.combinations(zd, 2)):
            if table_annihilator(ring, coeffs).sum() == 1:
                continue  # regular
            w = find_annihilating_content(polynomial(ring, coeffs), grading)
            expected = content_bruteforce(ring, coeffs, keep=homogeneous.__contains__)
            assert (None if w is None else w.homogeneous_c) == expected, (name, coeffs)


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


def _loop_oracle_report(monkeypatch, decide) -> dict:
    """``decide()``'s report with the per-product loop in place of the
    Ann(C(f)) mask scan."""
    import emrings.analysis as analysis

    with monkeypatch.context() as m:
        m.setattr(analysis, "_armendariz_scan", armendariz_scan_loop)
        return decide().to_dict(timing=False)


@pytest.mark.parametrize("name", preset_names())
def test_armendariz_graded_matches_loop_oracle(name, monkeypatch):
    # t3's degree, except e2-trunc-d1 at 2: the loop needs about 60 s at 3
    ring, grading = build_preset(name)
    degree = 3 if ring.order <= 300 and name != "e2-trunc-d1" else 2
    decide = functools.partial(is_armendariz_g_graded, ring, grading, degree)
    assert decide().to_dict(timing=False) == _loop_oracle_report(monkeypatch, decide)


def test_armendariz_ungraded_matches_loop_oracle(monkeypatch, e1):
    cases = [functools.partial(is_armendariz_g_graded, e1, trivial_grading(e1), 1)]
    for name in preset_names():
        ring, _ = build_preset(name)
        if ring.order <= 64:
            cases.append(functools.partial(is_armendariz, ring, 2))
    verdicts = set()
    for decide in cases:
        report = decide().to_dict(timing=False)
        assert report == _loop_oracle_report(monkeypatch, decide)
        verdicts.add(report["verdict"])
    # the trivial grading puts all of e1 in one component: a false witness
    # on the graded path
    assert cases[0]().verdict == "false"
    assert verdicts == {"false", "true_up_to_bounds"}


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
    assert rep.verdict == "true" and rep.bounds == {}
    with pytest.raises(ValueError):
        verify_t7_bounded(e1, e1_grading, em_report=PropertyReport("em-graded", "false"))


def test_t7_false_witness_names_its_component(monkeypatch, e1, e1_grading):
    """A failing bivariate check becomes a false t7 whose witness carries the
    stage, the bug classification and the component, like em-graded's."""
    import emrings.analysis as analysis

    monkeypatch.setattr(analysis, "check_bivariate_content", lambda f: {"stage": "forced"})
    rep = verify_t7_bounded(e1, e1_grading)
    key = e1_grading.support_keys[0]
    assert rep.verdict == "false"
    assert rep.witness == {
        "stage": "forced", "classified": "internal-bug-indicator", "component": list(key),
    }


def test_t7_matches_grid_oracle():
    """The per-ideal t7 verdict agrees with the old scan of every grid at x
    and y degree <= 1, on every preset of order <= 64."""
    for name in PRESETS:
        ring, grading = build_preset(name)
        if ring.order > 64:
            continue
        failure = t7_grid_failure(ring, grading, check_bivariate_content, (1, 1))
        report = verify_t7_bounded(ring, grading)
        assert report.verdict == ("true" if failure is None else "false"), name


def test_ideal_grid_packs_several_rows(e1):
    f = ideal_grid(e1, (2, 4, 8))
    assert [row.coeffs for row in f.rows] == [(2, 4), (8,)]
    flat, offsets, widths = kronecker_flatten(f)
    assert flat.coeffs == (2, 4, 8) and offsets == (0, 2) and widths == (2, 1)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_t7_check_depends_only_on_the_coefficient_ideal(data):
    """On any homogeneous grid up to 3x3 the t7 check passes, and the grid's
    content is the content of its coefficient ideal's laid-out generators."""
    ring, grading = build_preset(data.draw(st.sampled_from(["e1", "prod-e1sm", "z4-xn-3"])))
    key = data.draw(st.sampled_from(grading.support_keys))
    elems = grading.support[key].elements
    ny, nx = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    row = st.lists(st.sampled_from(elems), min_size=nx, max_size=nx)
    rows = [data.draw(row) for _ in range(ny)]
    f = bivariate(ring, rows)
    assert check_bivariate_content(f) is None, str(f)
    if f.is_zero or table_annihilator(ring, f.coefficient_ids()).sum() == 1:
        return  # zero or regular: no content to compare
    flat = kronecker_flatten(f)[0]
    pool = set(elems) & zero_divisors(ring).element_set - {ring.zero}
    ideal = content_ideal(flat).elements
    gens = next(j.generators for j in ideal_lattice(ring, pool) if j.elements == ideal)
    laid_out = kronecker_flatten(ideal_grid(ring, gens))[0]
    assert find_annihilating_content(flat).c == find_annihilating_content(laid_out).c, str(f)


def test_t5_hypothesis_matches_localization():
    """hT(R) is R: verify_t5's hypothesis equals EM-gradedness of the
    localization at the homogeneous units, on every preset of order <= 216
    under its canonical and its trivial grading."""
    for name in PRESETS:
        ring, canonical = build_preset(name)
        if ring.order > 216:
            continue
        for grading in (canonical, trivial_grading(ring)):
            loc = localization(ring, grading, homogeneous_units(grading))
            expected = is_em_g_graded(loc, localization_grading(loc)).holds
            assert ("skipped" not in verify_t5(ring, grading).bounds) == expected, name


def test_property_report_round_trip():
    rep = PropertyReport("em", "false", {"coefficients": [2, 4]}, {"max_subset": 4}, 12.5)
    doc = rep.to_dict()
    back = PropertyReport.from_dict(json.loads(json.dumps(doc)))
    assert back == rep
    stable = rep.to_dict(timing=False)
    assert stable["millis"] is None


def _oracle_cases():
    """Every preset of order <= 64, and the idealizations R(+)R of Z2, Z3,
    Z4, Z6 and Z2 x Z2 with their Z2-gradings."""
    names = [n for n in PRESETS if not n.startswith("e2-trunc")]  # orders 216, 7776
    cases = [(name, *build_preset(name)) for name in names]
    assert all(ring.order <= 64 for _, ring, _ in cases)
    bases = {"Z2": cyclic(2), "Z3": cyclic(3), "Z4": cyclic(4), "Z6": cyclic(6),
             "Z2xZ2": direct_product([cyclic(2), cyclic(2)])}
    for label, base in bases.items():
        ring = validate_ring(idealization(base))
        cases.append((f"{label}(+){label}", ring, idealization_grading(ring)))
    return cases


def _nonzero_zero_divisors(ring, elems):
    zd = set(zero_divisors(ring).elements) - {ring.zero}
    return sorted(set(int(e) for e in elems) & zd)


def _em_oracle(ring, elems):
    """First coefficient set, in size-then-lexicographic order, of a
    zero-divisor polynomial with no annihilating content."""
    return first_subset(
        _nonzero_zero_divisors(ring, elems),
        lambda s: table_annihilator(ring, s).sum() > 1 and content_bruteforce(ring, s) is None,
    )


def _expect(report, subset, key):
    if subset is None:
        assert report.verdict == "true", report
    else:
        assert report.verdict == "false" and report.witness[key] == list(subset), report


def test_em_deciders_match_subset_oracle():
    for name, ring, grading in _oracle_cases():
        # Z6(+)Z6 is EM and has 23 nonzero zero divisors: the subset oracle
        # would visit 8.4 million sets.  c7 ties its EM property to Z6's,
        # which is checked here as z6.
        if name != "Z6(+)Z6":
            _expect(is_em_ring(ring), _em_oracle(ring, range(ring.order)), "coefficients")
        failed = None
        for key in grading.support_keys:
            elems = grading.support[key].elements
            oracle = _em_oracle(ring, elems)
            _expect(is_em_subset(ring, elems), oracle, "coefficients")
            if oracle is not None and failed is None:
                failed = (key, oracle)
        graded = is_em_g_graded(ring, grading)
        if failed is None:
            assert graded.verdict == "true", name
        else:
            assert graded.witness["component"] == list(failed[0]), name
            assert graded.witness["coefficients"] == list(failed[1]), name


def test_ideal_checks_match_subset_oracle():
    for name, ring, grading in _oracle_cases():
        if check_t2_hypotheses(grading)[0]:
            re = grading.identity_component().elements
            re_mask = np.zeros(ring.order, dtype=bool)
            re_mask[list(re)] = True

            def leaks(s):
                ann = table_annihilator(ring, s)
                return (ann & re_mask).sum() == 1 and ann.sum() > 1

            oracle = first_subset([e for e in re if e != ring.zero], leaks)
            _expect(check_regular_embedding(grading), oracle, "tuple")

        report = verify_t5(ring, grading)
        if "skipped" in report.bounds:
            continue
        kills = ring.mul_table == ring.zero  # column c is Ann(c)
        oracle = None
        for key in grading.support_keys:
            pool = _nonzero_zero_divisors(ring, grading.support[key].elements)
            oracle = first_subset(pool, lambda s: (
                table_annihilator(ring, s).sum() > 1
                and not (kills == table_annihilator(ring, s)[:, None]).all(axis=0).any()
            ))
            if oracle is not None:
                break
        _expect(report, oracle, "coefficients")


def test_bezout_matches_pair_oracle():
    for name, ring, grading in _oracle_cases():
        principal = {tuple(int(x) for x in np.unique(row)) for row in ring.mul_table}
        witness = None
        for pair in itertools.combinations(range(ring.order), 2):
            ideal = ideal_generated(ring, pair)
            if ideal.elements not in principal and is_graded_ideal(grading, ideal):
                witness = {"generators": list(pair), "ideal_size": len(ideal)}
                break
        report = is_bezout_g_graded(ring, grading, 2)
        assert report.verdict == ("true" if witness is None else "false"), name
        assert report.witness == witness, name


def test_first_hit_stops_at_first_hit_in_order():
    items = list(range(999, -1, -1))  # descending: the first hit is not the smallest
    seen = []

    def check(x):
        seen.append(x)
        return ("hit", x) if x % 379 == 17 else None

    assert first_hit(items, check) == (775, ("hit", 775))
    assert seen == items[: items.index(775) + 1]  # nothing checked past the hit
    assert first_hit(items, lambda x: None) is None
