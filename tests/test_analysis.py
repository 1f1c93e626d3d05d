import functools
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import emrings.analysis as analysis
from emrings.analysis import (
    ContentWitness,
    PropertyReport,
    _candidate_data,
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
    build_spec,
    cyclic,
    direct_product,
    idealization,
    localization,
    poly_quotient_xn,
)
from emrings.grading import (
    Grading,
    canonical_grading,
    check_t2_hypotheses,
    check_t10_condition,
    graded_factors,
    is_graded_ideal,
    localization_grading,
    trivial_grading,
    validate_grading,
)
from emrings.poly import bivariate, content_ideal, kronecker_flatten, poly_mul, polynomial
from emrings.presets import PRESETS, build_preset, preset_names
from emrings.rings import (
    FiniteRing,
    InternalInvariantError,
    _generator_min,
    annihilator,
    ideal_generated,
    ideal_lattice,
    is_principal,
    units,
    validate_ring,
    zero_divisors,
)

from emrings.theorems import EXTENSION_CAP

import oracles
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
    # an id outside the ring is an input error, not silently dropped
    with pytest.raises(ValueError, match="element id out of range for order 4"):
        is_em_subset(z4, [2, 4])


def test_is_em_ring_examples(z4, z6, e1):
    assert is_em_ring(e1).verdict == "false"
    assert is_em_ring(validate_ring(cyclic(5))).verdict == "true"
    assert is_em_ring(z6).verdict == "true"
    assert is_em_ring(z4).verdict == "true"
    assert is_em_ring(validate_ring(cyclic(1))).verdict == "true"


def test_is_em_g_graded_examples(e1, e1_grading, z4):
    assert is_em_g_graded(e1, e1_grading).verdict == "true"
    ideal_ring = idealization(z4)
    g = canonical_grading(ideal_ring)
    assert is_em_g_graded(ideal_ring, g).verdict == "true"


def test_em_counterexample_witness_rechecks(e1):
    rep = is_em_ring(e1)
    f = polynomial(e1, rep.witness["poly"])
    # the witness really is a zero-divisor polynomial without a content
    assert annihilator(e1, set(f.coeffs)).elements.tolist() != [0]
    assert find_annihilating_content(f) is None


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_content_search_matches_bruteforce(z4, z6, e1, data):
    ring = data.draw(st.sampled_from([z4, z6, e1]))
    pool = zero_divisors(ring).tolist()
    coeffs = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    f = polynomial(ring, coeffs)
    if f.is_zero:
        return
    if len(annihilator(ring, set(f.coeffs))) == 1:
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
        zd = [c for c in zero_divisors(ring).tolist() if c != ring.zero]
        for coeffs in itertools.product(zd, repeat=2):
            f = polynomial(ring, coeffs)
            if annihilator(ring, set(f.coeffs)).elements.tolist() == [ring.zero]:
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
                reduced = oracles.try_candidate(ring, f.coeffs, c)
                if not divisible:
                    assert reduced is None
                    continue
                tail = set(int(w) for w in ann_c if w != ring.zero)
                for combo in itertools.product(*sols):
                    gens = set(combo) | tail
                    accepted = annihilator(ring, gens).elements.tolist() == [ring.zero]
                    assert accepted == (reduced is not None), (ring.order, coeffs, c, combo)


def test_principal_classes_are_associates():
    """The content search's candidate classes are the distinct principal
    ideals cR over Z(R)\\{0}; each holds exactly the associates u*c of its
    smallest generator c, and oracles.try_candidate accepts all generators of a
    class or none, on every set of one or two nonzero zero divisors."""
    for name, ring, _ in _oracle_cases():
        div, classes, ann_sizes = _candidate_data(ring)
        zd = _nonzero_zero_divisors(ring, range(ring.order))
        assert sorted(g for members in classes for g in members) == zd, name
        smallest = [members[0] for members in classes]
        assert smallest == sorted(smallest), name
        unit_ids = units(ring)
        ideals = set()
        for row, members, ann_size in zip(div, classes, ann_sizes):
            c = members[0]
            principal = tuple(ideal_generated(ring, [c]).elements.tolist())
            assert tuple(np.flatnonzero(row).tolist()) == principal, (name, c)
            assert ann_size == len(annihilator(ring, [c])), (name, c)
            assert members == sorted(set(int(x) for x in ring.mul_table[c, unit_ids])), (name, c)
            ideals.add(principal)
        assert len(ideals) == len(classes), name
        for coeffs in itertools.chain(itertools.combinations(zd, 1), itertools.combinations(zd, 2)):
            for members in classes:
                verdicts = {oracles.try_candidate(ring, coeffs, g) is None for g in members}
                assert len(verdicts) == 1, (name, coeffs, members)


def test_candidate_table_has_one_row_per_principal_ideal():
    """e2-trunc-d2's 5183 nonzero zero divisors generate 138 ideals cR."""
    ring, _ = build_preset("e2-trunc-d2")
    div, classes, _ = _candidate_data(ring)
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
    comps = {k: perm[ids] for k, ids in grading.support.items()}
    return copy, validate_grading(Grading(copy, grading.group, comps))


@pytest.mark.parametrize("name", ["e1", "z4-xn-3", "z4-groupring-z2", "prod-e1sm"])
def test_homogeneous_content_matches_oracle(name):
    """homogeneous_c is the smallest homogeneous zero divisor the brute-force
    oracle accepts, for every set of one or two nonzero zero divisors.  On
    the relabelled copies of e1, z4-xn-3 and prod-e1sm some sets have a
    homogeneous_c above c, which the presets' own ids never show."""
    preset = build_preset(name)
    for ring, grading in (preset, _relabelled(*preset, seed=6)):
        homogeneous = set().union(*(ids.tolist() for ids in grading.support.values()))
        zd = _nonzero_zero_divisors(ring, range(ring.order))
        for coeffs in itertools.chain(itertools.combinations(zd, 1), itertools.combinations(zd, 2)):
            if table_annihilator(ring, coeffs).sum() == 1:
                continue  # regular
            w = find_annihilating_content(polynomial(ring, coeffs), grading)
            expected = content_bruteforce(ring, coeffs, keep=homogeneous.__contains__)
            assert (None if w is None else w.homogeneous_c) == expected, (name, coeffs)


def _assert_principal_questions_match_keyed_table(ring, grading):
    """_generator_min, the content-search classes, the ideal lattice (over
    all of R and over each component's nonzero zero divisors, whose pools
    may miss the least generator of a class), is_principal on every ideal
    the lattice yields, and the t10 witnesses all agree with the former
    table keyed by membership bits.  Rings above order 1024 stop the
    lattice at two generators, and above 4096 at one."""
    assert np.array_equal(_generator_min(ring), oracles.keyed_generator_min(ring))
    div, classes, _ = _candidate_data(ring)
    keyed_div, keyed_classes = oracles.keyed_candidate_data(ring)
    assert classes == keyed_classes
    assert np.array_equal(div, keyed_div)
    max_gens = None if ring.order <= 1024 else 2 if ring.order <= 4096 else 1
    zd = set(zero_divisors(ring).tolist()) - {ring.zero}
    pools = [range(ring.order)] + [zd & set(ids.tolist()) for ids in grading.support.values()]
    for pool in pools:
        ideals = list(ideal_lattice(ring, pool, max_gens))
        got = [(ideal.generators, tuple(ideal.elements.tolist())) for ideal in ideals]
        assert got == list(oracles.keyed_ideal_lattice(ring, pool, max_gens))
        for ideal in ideals:
            assert is_principal(ring, ideal) == oracles.keyed_is_principal(ring, ideal)
    assert check_t10_condition(grading)[1] == oracles.keyed_t10_witnesses(grading)


def _graded(ring):
    """(ring, canonical grading)."""
    return ring, canonical_grading(ring)


_PRINCIPAL_CASES = {
    **{f"preset {name}": (lambda name=name: build_preset(name)) for name in PRESETS},
    **{
        f"{name}[X]/(X^2)": (
            lambda name=name: _graded(
                poly_quotient_xn(build_preset(name)[0], 2, var="X", max_order=EXTENSION_CAP)
            )
        )
        for name in PRESETS
        if not name.startswith("e2-trunc")  # orders 216 and 7776: 216^2 > EXTENSION_CAP
    },
    "suite-mid z4-xy-trunc-d2": lambda: _graded(build_spec(
        {"kind": "monomialQuotient", "m": 4, "v": 2, "relations": [[1, 1]], "d": 2})),
    **{
        f"relabelled {name}": (lambda name=name: _relabelled(*build_preset(name), seed=6))
        for name in PRESETS
        if name != "e2-trunc-d2"
    },
}


@pytest.mark.parametrize("name", list(_PRINCIPAL_CASES))
def test_principal_questions_match_keyed_table(name):
    """Every preset, each square-zero extension of order <= EXTENSION_CAP,
    suite-mid's order-1024 ring and seeded relabellings of the presets."""
    ring, grading = _PRINCIPAL_CASES[name]()
    _assert_principal_questions_match_keyed_table(ring, grading)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_principal_questions_match_keyed_table_on_generated_rings(data):
    """Generated construction documents of order at most 64."""
    doc, _ = oracles.construction_document(data.draw, 64)
    _assert_principal_questions_match_keyed_table(*_graded(build_spec(doc)))


def test_content_search_leaves_numpy_ma_unimported():
    """numpy.ma costs resident memory on first import (np.unique pulls it
    in); building e1 and running the content search must not load it."""
    script = (
        "import sys\n"
        "from emrings.analysis import find_annihilating_content\n"
        "from emrings.construct import cyclic, poly_quotient_xn\n"
        "from emrings.grading import canonical_grading\n"
        "from emrings.poly import polynomial\n"
        "from emrings.rings import validate_ring\n"
        "e1 = validate_ring(poly_quotient_xn(cyclic(4), 2, var='Y'))\n"
        "w = find_annihilating_content(polynomial(e1, [4, 12]), canonical_grading(e1))\n"
        "assert w is not None and w.c == 4\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
    )
    src = str(Path(sys.modules["emrings"].__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_content_monotone_in_coefficient_set(e1):
    """If a set admits content c, any superset inside c*R admits c too."""
    rng = np.random.default_rng(7)
    zd = [c for c in zero_divisors(e1).tolist() if c != 0]
    for _ in range(50):
        base = rng.choice(zd, size=2).tolist()
        f = polynomial(e1, sorted(set(base)))
        if f.is_zero or annihilator(e1, set(f.coeffs)).elements.tolist() == [0]:
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
        assert oracles.try_candidate(e1, tuple(bigger), c) is not None


def _annihilated_sets(ring, rng, count):
    """``count`` coefficient tuples, each 1 to 4 draws from Ann(t)\\{0} for a
    random nonzero zero divisor t, in a random order: every polynomial made
    from one is a zero divisor."""
    zd = _nonzero_zero_divisors(ring, range(ring.order))
    sets = []
    for _ in range(count):
        ann = np.flatnonzero(table_annihilator(ring, [zd[rng.integers(len(zd))]]))
        drawn = {int(a) for a in rng.choice(ann[ann != ring.zero], size=int(rng.integers(1, 5)))}
        sets.append(tuple(int(a) for a in rng.permutation(sorted(drawn))))
    return sets


def _content_answer(ring, coeffs, grading):
    """find_annihilating_content's (c, homogeneous_c, cofactor), or None."""
    w = find_annihilating_content(polynomial(ring, coeffs), grading)
    return None if w is None else (w.c, w.homogeneous_c, w.g.coeffs)


def _unpruned_answer(ring, coeffs, grading):
    hit = oracles.unpruned_content(polynomial(ring, coeffs), grading)
    return None if hit is None else (hit[0], hit[1], polynomial(ring, hit[2]).coeffs)


def _assert_prune_matches_unpruned(name, ring, grading, sets):
    """The pruned search gives the unpruned scan's c, homogeneous_c and g,
    graded and ungraded, and oracles.try_candidate accepts every class the
    prune keeps and rejects every class it drops (README, "Annihilator
    prune" and "Acceptance after the prune"): of the classes whose ideal
    holds the coefficients, it keeps those with |Ann(c)| = |Ann(S)|."""
    div, classes, ann_sizes = _candidate_data(ring)
    for coeffs in sets:
        for g in (grading, None):
            assert _content_answer(ring, coeffs, g) == _unpruned_answer(ring, coeffs, g), (
                name, coeffs, g is None)
        holds = div[:, list(coeffs)].all(axis=1)
        kept = ann_sizes == table_annihilator(ring, coeffs).sum()
        for k in np.flatnonzero(holds):
            accepted = oracles.try_candidate(ring, coeffs, classes[k][0]) is not None
            assert accepted == kept[k], (name, coeffs, k)


@pytest.mark.parametrize("name", [n for n in PRESETS if n not in ("z2", "z3", "z5")])
def test_annihilator_prune_matches_unpruned_scan_on_presets(name):
    """Every preset with a nonzero zero divisor (z2, z3 and z5 are fields)."""
    ring, grading = build_preset(name)
    sets = _annihilated_sets(ring, np.random.default_rng(ring.order), 40)
    _assert_prune_matches_unpruned(name, ring, grading, sets)


@pytest.mark.parametrize("n, p", [(4, 2), (9, 3)])
def test_annihilator_prune_matches_unpruned_scan_on_square_zero_tables(n, p):
    """Z4[x]/(x^2,2x) and Z9[x]/(3x,x^2), whose maximal ideals are not
    principal, as table documents under the trivial grading."""
    ring = FiniteRing.from_dict(_square_zero_table(n, p))
    sets = _annihilated_sets(ring, np.random.default_rng(n), 40)
    _assert_prune_matches_unpruned(f"Z{n}[x]/(x^2,{p}x)", ring, trivial_grading(ring), sets)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_annihilator_prune_matches_unpruned_scan_on_generated_rings(data):
    """Generated construction documents of order at most 64."""
    doc, _ = oracles.construction_document(data.draw, 64)
    ring, grading = _graded(build_spec(doc))
    if not _nonzero_zero_divisors(ring, range(ring.order)):
        return  # a field or the zero ring: no zero-divisor polynomial
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    _assert_prune_matches_unpruned(str(doc), ring, grading, _annihilated_sets(ring, rng, 10))


def test_content_is_the_first_class_the_prune_keeps():
    """On e2-trunc-d2 under its grading, over 200 seeded coefficient sets,
    c is the smallest generator of the first class whose ideal holds the
    coefficients and whose |Ann(c)| equals |Ann(S)|, and every answer equals
    the unpruned scan's.  Some sets have no content and some have one."""
    ring, grading = build_preset("e2-trunc-d2")
    div, classes, ann_sizes = _candidate_data(ring)
    sets = _annihilated_sets(ring, np.random.default_rng(26), 200)
    got = [_content_answer(ring, coeffs, grading) for coeffs in sets]
    for coeffs, answer in zip(sets, got):
        kept = div[:, list(coeffs)].all(axis=1) & (
            ann_sizes == table_annihilator(ring, coeffs).sum())
        first = next((classes[k][0] for k in np.flatnonzero(kept)), None)
        assert (None if answer is None else answer[0]) == first, coeffs
    assert got == [_unpruned_answer(ring, coeffs, grading) for coeffs in sets]
    assert any(answer is None for answer in got) and any(answer is not None for answer in got)


def _square_zero_table(n, p):
    """Z_n[x]/(px, x^2), p a prime dividing n, as a ring table document:
    a + bx with a in Z_n and b in Z_p has id a + n*b."""
    elems = [(a, b) for b in range(p) for a in range(n)]
    index = {e: i for i, e in enumerate(elems)}
    add = [[index[(a + c) % n, (b + d) % p] for c, d in elems] for a, b in elems]
    mul = [[index[a * c % n, (a * d + b * c) % p] for c, d in elems] for a, b in elems]
    return {"add": add, "mul": mul, "zero": 0, "one": 1}


_SQUARE_ZERO_RINGS = {
    # name: (ring, is the maximal ideal principal)
    "Z9": (lambda: build_spec({"kind": "cyclic", "n": 9}), True),
    "Z3[x]/(x^2)": (lambda: build_spec(
        {"kind": "polyQuotientXn", "base": {"kind": "cyclic", "n": 3}, "n": 2}), True),
    "Z2[x,y]/(x,y)^2": (lambda: build_spec(
        {"kind": "monomialQuotient", "m": 2, "v": 2, "relations": [], "d": 1}), False),
    "Z3[x,y]/(x,y)^2": (lambda: build_spec(
        {"kind": "monomialQuotient", "m": 3, "v": 2, "relations": [], "d": 1}), False),
    "Z2[x,y,z]/(x,y,z)^2": (lambda: build_spec(
        {"kind": "monomialQuotient", "m": 2, "v": 3, "relations": [], "d": 1}), False),
    "Z4[x]/(x^2,2x)": (lambda: FiniteRing.from_dict(_square_zero_table(4, 2)), False),
    "Z9[x]/(3x,x^2)": (lambda: FiniteRing.from_dict(_square_zero_table(9, 3)), False),
}


@pytest.mark.parametrize("name", list(_SQUARE_ZERO_RINGS))
def test_local_square_zero_ring_is_em_iff_its_maximal_ideal_is_principal(name):
    """A finite local ring (R, m) with m^2 = 0 is EM iff m is principal.

    If m = cR, a zero-divisor polynomial has its coefficients in m, so it is
    c*g with every nonzero coefficient of g a unit, and g is regular.  If
    a, b in m are not unit multiples of each other, a + bx is killed by m
    and has no content: a = c*g_0 and b = c*g_1 force g_0, g_1 to be units,
    since m^2 = 0.  The expected verdict comes from m alone."""
    build, principal = _SQUARE_ZERO_RINGS[name]
    ring = build()
    m = np.flatnonzero(~(ring.mul_table == ring.one).any(axis=1))  # the nonunits
    assert np.isin(ring.add_table[np.ix_(m, m)], m).all(), "R is not local"
    assert (ring.mul_table[np.ix_(m, m)] == ring.zero).all(), "m^2 != 0"
    assert any(len(set(ring.mul_table[a].tolist())) == len(m) for a in m) == principal
    report = is_em_ring(ring)
    assert report.verdict == ("true" if principal else "false"), report.witness
    if not principal:
        f = polynomial(ring, report.witness["poly"])
        assert table_annihilator(ring, f.coeffs).sum() > 1
        assert find_annihilating_content(f) is None


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


def _outcome(decide):
    """``decide()``'s report, or the message of the ValueError it raised."""
    try:
        return decide().to_dict(timing=False)
    except ValueError as err:
        return f"refused: {err}"


def _batched(batch):
    """_armendariz_scan under the batch bound ``batch(ring, blocks, degree)``."""
    scan = analysis._armendariz_scan

    def wrapped(ring, blocks, degree):
        with mock.patch.object(analysis, "_ARMENDARIZ_BATCH", batch(ring, blocks, degree)):
            return scan(ring, blocks, degree)

    return wrapped


def _three_f_bound(ring, blocks, degree) -> int:
    longest = max((len(Q) for _, Q in blocks), default=0)
    return 3 * (degree + 1) * (ring.order + longest)


_SCANS = {
    # a bound below one f's temporaries: every f is its own batch
    "one f a batch": _batched(lambda ring, blocks, degree: 1),
    # the longest block's batches stop at three f, where the doubling would
    # take four: the block splits mid-way, at edges the g >= f triangle crosses
    "three f a batch": _batched(_three_f_bound),
    "loop oracle": armendariz_scan_loop,
}


def _assert_batchings_agree(*decides, oracle=True) -> list:
    """Each decider's report (or refusal) is the same under the default
    batch bound, under both bounds of ``_SCANS`` and, with ``oracle``, with
    the per-product loop; returns the reports."""
    reports = [_outcome(decide) for decide in decides]
    for name, scan in _SCANS.items():
        if oracle or scan is not armendariz_scan_loop:
            with mock.patch.object(analysis, "_armendariz_scan", scan):
                assert [_outcome(decide) for decide in decides] == reports, name
    return reports


@pytest.mark.parametrize("name", preset_names())
def test_armendariz_graded_matches_loop_oracle(name):
    """At t3's degree, graded and trivially graded, across batch edges.
    Trivially graded, z4-xn-3 scans 2^20 tuples, on which the loop takes
    about 23 s: there only the batch bounds are compared, and the loop
    checks the same scan at degree 2 in the ungraded test below."""
    ring, grading = build_preset(name)
    degree = 3 if ring.order <= 300 else 2
    graded = functools.partial(is_armendariz_g_graded, ring, grading, degree)
    trivial = functools.partial(is_armendariz_g_graded, ring, trivial_grading(ring), degree)
    if name == "z4-xn-3":
        _assert_batchings_agree(graded)
        _assert_batchings_agree(trivial, oracle=False)
    else:
        _assert_batchings_agree(graded, trivial)


def test_armendariz_ungraded_matches_loop_oracle(e1):
    cases = [functools.partial(is_armendariz_g_graded, e1, trivial_grading(e1), 1)]
    for name in preset_names():
        ring, _ = build_preset(name)
        if ring.order <= 64:
            cases.append(functools.partial(is_armendariz, ring, 2))
    reports = _assert_batchings_agree(*cases)
    # the trivial grading puts all of e1 in one component: a false witness
    # on the graded path
    assert reports[0]["verdict"] == "false"
    assert {report["verdict"] for report in reports} == {"false", "true_up_to_bounds"}


def test_three_f_batches_split_a_block_mid_way(monkeypatch):
    """The bound of "three f a batch" cuts z4-xn-3's whole-ring block into
    batches of 1, 2 and then 3 f, not the doubling's 1, 2, 4."""
    ring, _ = build_preset("z4-xn-3")
    sizes = []
    pair = analysis._first_failing_pair
    monkeypatch.setattr(analysis, "_first_failing_pair",
                        lambda ring, F, *rest: sizes.append(len(F)) or pair(ring, F, *rest))
    monkeypatch.setattr(analysis, "_armendariz_scan", _SCANS["three f a batch"])
    assert is_armendariz(ring, 1).verdict == "false"
    assert sizes[:4] == [1, 2, 3, 3]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_armendariz_batch_edges_on_generated_rings(data):
    """Generated construction documents of order at most 64, ungraded and
    under their canonical grading (where it exists) and the trivial one, at
    degree 1 or 2 up to order 16 and 1 above."""
    doc, order = oracles.construction_document(data.draw, 64)
    ring = build_spec(doc)
    degree = data.draw(st.integers(1, 2 if order <= 16 else 1))
    _assert_batchings_agree(
        functools.partial(is_armendariz, ring, degree),
        *(functools.partial(is_armendariz_g_graded, ring, grading, degree)
          for grading in [canonical_grading(ring), trivial_grading(ring)]),
    )


# -- Armendariz on the graded factors eR


def _assert_matches_whole_ring(*decides) -> list:
    """Each decider's report equals its report with the split turned off,
    that is from the whole-ring scan; returns the reports."""
    reports = [_outcome(decide) for decide in decides]
    with mock.patch.object(analysis, "graded_factors", lambda ring, grading: []):
        assert reports == [_outcome(decide) for decide in decides]
    return reports


@pytest.mark.parametrize("name", preset_names())
def test_armendariz_factors_match_whole_ring_on_presets(name):
    """At t3's degree.  Ungraded, z4-xn-3 (local, so one path either way:
    1.4 s a scan) and prod-e1sm (8 s for the whole-ring scan) run at
    degree 2."""
    ring, grading = build_preset(name)
    degree = 3 if ring.order <= 300 else 2
    ungraded = 2 if name in ("z4-xn-3", "prod-e1sm") else degree
    if name == "z4-xn-3":
        assert graded_factors(ring, None) == []
    _assert_matches_whole_ring(
        functools.partial(is_armendariz_g_graded, ring, grading, degree),
        functools.partial(is_armendariz, ring, ungraded),
    )


def test_armendariz_factors_match_whole_ring_on_split_rings():
    """The graded decider under the canonical and trivial gradings at
    degrees 1 and 2: 28 reports, 4 of them false (the trivial gradings of
    Z2 x e1 and e1 x Z3, whose factor e1 is not Armendariz).  The ungraded
    decider at degree 1: at degree 2 it repeats the trivial grading's scan,
    15 s on Z6[Y]/(Y^2)."""
    graded = []
    for name, build in oracles.SPLIT_RINGS.items():
        ring = build()
        _assert_matches_whole_ring(functools.partial(is_armendariz, ring, 1))
        for grading in (canonical_grading(ring), trivial_grading(ring)):
            assert len(graded_factors(ring, grading)) >= 2, name
            for degree in (1, 2):
                [report] = _assert_matches_whole_ring(
                    functools.partial(is_armendariz_g_graded, ring, grading, degree)
                )
                graded.append((name, report["verdict"]))
    assert len(graded) == 28
    assert sorted(name for name, verdict in graded if verdict == "false") == [
        "Z2 x e1", "Z2 x e1", "e1 x Z3", "e1 x Z3"
    ]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_armendariz_factors_match_whole_ring_on_generated_rings(data):
    """Products of two generated construction documents, of order at most
    64, under their canonical grading (where it exists) and the trivial
    one, at degree 2 up to order 16 and 1 above."""
    first, a = oracles.construction_document(data.draw, 16)
    second, b = oracles.construction_document(data.draw, 64 // a)
    order = a * b
    ring = build_spec({"kind": "product", "factors": [first, second]})
    degree = 2 if order <= 16 else 1
    _assert_matches_whole_ring(
        functools.partial(is_armendariz, ring, degree),
        *(functools.partial(is_armendariz_g_graded, ring, grading, degree)
          for grading in [canonical_grading(ring), trivial_grading(ring)]),
    )


def test_armendariz_true_on_prod_e1sm_scans_only_the_factors(monkeypatch):
    """Neither decider builds a tuple block over R's own pools, or scans R,
    to reach true on prod-e1sm at degree 3."""
    ring, grading = build_preset("prod-e1sm")
    scanned, built = [], []
    scan, block = analysis._armendariz_scan, analysis._tuple_block
    monkeypatch.setattr(analysis, "_armendariz_scan",
                        lambda r, blocks, d: scanned.append(r) or scan(r, blocks, d))
    monkeypatch.setattr(analysis, "_tuple_block",
                        lambda pool, length: built.append(len(pool)) or block(pool, length))
    assert is_armendariz_g_graded(ring, grading, 3).verdict == "true_up_to_bounds"
    assert is_armendariz(ring, 3).verdict == "true_up_to_bounds"
    assert len(scanned) == 4 and all(r is not ring and r.order == 4 for r in scanned)
    own = [len(pool) for _, pool in analysis._armendariz_pools(grading)]
    assert max(built) < min([*own, len(zero_divisors(ring))])


def test_a_factor_failure_the_whole_ring_misses_is_an_internal_error(monkeypatch):
    """A factor that fails while R's own scan passes contradicts the split."""
    ring, grading = build_preset("z6")
    scan = analysis._armendariz_scan
    monkeypatch.setattr(analysis, "_armendariz_scan",
                        lambda r, blocks, d: {"f": []} if r is not ring else scan(r, blocks, d))
    with pytest.raises(InternalInvariantError):
        is_armendariz_g_graded(ring, grading, 1)


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
    assert check_regular_embedding(canonical_grading(ring)).holds
    z6 = cyclic(6)
    assert check_regular_embedding(trivial_grading(z6)).holds


def test_verify_t5(e1, e1_grading):
    assert verify_t5(e1, e1_grading).holds
    # the specific pair from the component Z4Y: Ann({Y, 2Y}) = Ann(Y)
    assert np.array_equal(annihilator(e1, [4, 8]).elements, annihilator(e1, [4]).elements)


def test_verify_t7(e1, e1_grading):
    rep = verify_t7_bounded(e1, e1_grading)
    assert rep.verdict == "true" and rep.bounds == {}


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
    elems = grading.support[key].tolist()
    ny, nx = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    row = st.lists(st.sampled_from(elems), min_size=nx, max_size=nx)
    rows = [data.draw(row) for _ in range(ny)]
    f = bivariate(ring, rows)
    assert check_bivariate_content(f) is None, str(f)
    if f.is_zero or table_annihilator(ring, f.coefficient_ids()).sum() == 1:
        return  # zero or regular: no content to compare
    flat = kronecker_flatten(f)[0]
    pool = set(elems) & set(zero_divisors(ring).tolist()) - {ring.zero}
    ideal = content_ideal(flat).elements
    gens = next(j.generators for j in ideal_lattice(ring, pool)
                if np.array_equal(j.elements, ideal))
    laid_out = kronecker_flatten(ideal_grid(ring, gens))[0]
    assert find_annihilating_content(flat).c == find_annihilating_content(laid_out).c, str(f)


def test_t5_hypothesis_matches_localization():
    """hT(R) is R: R's EM-graded verdict, the t5 row's hypothesis, equals
    EM-gradedness of the localization at the homogeneous units, on every
    preset of order <= 216 under its canonical and its trivial grading."""
    for name in PRESETS:
        ring, canonical = build_preset(name)
        if ring.order > 216:
            continue
        for grading in (canonical, trivial_grading(ring)):
            loc = localization(ring, grading, homogeneous_units(grading))
            expected = is_em_g_graded(loc, localization_grading(loc)).holds
            assert is_em_g_graded(ring, grading).holds == expected, name


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
        cases.append((f"{label}(+){label}", ring, canonical_grading(ring)))
    return cases


def _nonzero_zero_divisors(ring, elems):
    zd = set(zero_divisors(ring).tolist()) - {ring.zero}
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
            elems = grading.support[key]
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
            re = grading.identity_component()
            re_mask = np.zeros(ring.order, dtype=bool)
            re_mask[re] = True

            def leaks(s):
                ann = table_annihilator(ring, s)
                return (ann & re_mask).sum() == 1 and ann.sum() > 1

            oracle = first_subset([e for e in re.tolist() if e != ring.zero], leaks)
            _expect(check_regular_embedding(grading), oracle, "tuple")

        report = verify_t5(ring, grading)
        kills = ring.mul_table == ring.zero  # column c is Ann(c)
        oracle = None
        for key in grading.support_keys:
            pool = _nonzero_zero_divisors(ring, grading.support[key])
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
            if tuple(ideal.elements.tolist()) not in principal and is_graded_ideal(grading, ideal):
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
