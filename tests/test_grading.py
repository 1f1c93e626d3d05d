from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import emrings.analysis as analysis
import emrings.grading as grading_module
from emrings.analysis import is_armendariz_g_graded

from emrings.construct import (
    build_spec,
    cyclic,
    direct_product,
    group_ring,
    idealization,
    localization,
    monomial_quotient,
    poly_quotient_xn,
)
from emrings.grading import (
    Grading,
    GradingError,
    GradingGroup,
    canonical_grading,
    check_t2_hypotheses,
    check_t8_condition,
    check_t10_condition,
    component_zero_divisors,
    decompose,
    grading_from_dict,
    homogeneous_elements,
    is_crossed_product,
    is_graded_ideal,
    localization_grading,
    product_grading,
    square_zero_extension_grading,
    trivial_grading,
    validate_grading,
)
from emrings.presets import PRESETS, build_preset
from emrings.rings import FiniteRing, idempotents, ideal_generated, subring, validate_ring
from emrings.theorems import EXTENSION_CAP

import oracles


def test_e1_grading_valid(e1, e1_grading):
    assert e1_grading.support_keys == [(0,), (1,)]
    assert e1_grading.support[(0,)].tolist() == [0, 1, 2, 3]
    assert e1_grading.support[(1,)].tolist() == [0, 4, 8, 12]


def test_trivial_grading_any_ring(z6, e1):
    for ring in (z6, e1):
        g = trivial_grading(ring)
        assert g.support_keys == [(0,)]


def test_invalid_not_a_subgroup(z4):
    with pytest.raises(GradingError) as err:
        Grading(z4, GradingGroup((2,)), {(0,): [0, 1], (1,): [0, 2]})
    assert err.value.clause == "not-a-subgroup"


def test_invalid_not_direct_sum(z4):
    with pytest.raises(GradingError) as err:
        Grading(z4, GradingGroup((2,)), {(0,): [0, 2], (1,): [0, 2]})
    assert err.value.clause == "not-direct-sum"


def test_invalid_multiplicativity(z6):
    # {0,2,4} + {0,3} decomposes Z6 additively, but 3*3 = 3 lands back in R_1
    with pytest.raises(GradingError) as err:
        Grading(z6, GradingGroup((2,)), {(0,): [0, 2, 4], (1,): [0, 3]})
    assert err.value.clause == "multiplicativity"


def test_decompose_examples(e1, e1_grading):
    assert decompose(e1_grading, 2 + 3 * 4) == {(0,): 2, (1,): 12}
    assert decompose(e1_grading, 0) == {}
    gr_ring = group_ring(cyclic(4), [2])
    g = canonical_grading(gr_ring)
    assert decompose(g, 1 + 3 * 4) == {(0,): 1, (1,): 12}


def test_homogeneous_sets(e1, e1_grading):
    assert homogeneous_elements(e1_grading).tolist() == [0, 1, 2, 3, 4, 8, 12]
    pools = component_zero_divisors(e1_grading)
    assert [(k, ids.tolist()) for k, ids in pools] == [((0,), [2]), ((1,), [4, 8, 12])]
    z5 = validate_ring(cyclic(5))
    assert [ids.tolist() for _, ids in component_zero_divisors(trivial_grading(z5))] == [[]]


def test_crossed_product(e1_grading):
    ok, wit = is_crossed_product(e1_grading)
    assert not ok and wit[(1,)] is None
    gr = group_ring(cyclic(4), [2])
    ok, wit = is_crossed_product(canonical_grading(gr))
    assert ok and wit[(0,)] == 1 and wit[(1,)] == 4
    z6 = cyclic(6)
    ok, _ = is_crossed_product(trivial_grading(z6))
    assert ok


def test_graded_ideal_examples(e1, e1_grading):
    assert is_graded_ideal(e1_grading, ideal_generated(e1, [4]))  # <Y>
    assert is_graded_ideal(e1_grading, ideal_generated(e1, range(16)))
    # <2+Y> = {0, 2Y, 2+Y, 2+3Y}: the component 2 of 2+Y is not a member,
    # so exhaustive membership decides "not graded"
    ideal = ideal_generated(e1, [6])
    assert ideal.elements.tolist() == [0, 6, 8, 14]
    parts = decompose(e1_grading, 6)
    assert parts == {(0,): 2, (1,): 4}
    assert 2 not in ideal.elements.tolist()
    assert not is_graded_ideal(e1_grading, ideal)


def test_canonical_gradings_validate():
    small = [
        cyclic(6),
        poly_quotient_xn(cyclic(4), 3),
        monomial_quotient(6, 2, [[1, 1]], 1),
        idealization(cyclic(4)),
        group_ring(cyclic(4), [2]),
        direct_product([idealization(cyclic(2)), idealization(cyclic(2))]),
    ]
    for ring in small:
        g = canonical_grading(ring)
        assert validate_grading(g) is g
        sizes = [len(g.support[k]) for k in g.support_keys]
        assert int(np.prod(sizes)) == ring.order


def test_xn_grading_equals_e1_grading(e1_grading):
    assert e1_grading.support[(0,)].tolist() == [0, 1, 2, 3]
    assert e1_grading.support[(1,)].tolist() == [0, 4, 8, 12]


def test_idealization_grading(z4):
    ring = idealization(z4)
    g = canonical_grading(ring)
    assert g.support[(0,)].tolist() == [0, 1, 2, 3]
    assert g.support[(1,)].tolist() == [0, 4, 8, 12]


def test_truncated_monomial_grading_support():
    ring = monomial_quotient(6, 2, [[1, 1]], 1)
    g = canonical_grading(ring)
    assert g.support_keys == [(0, 0), (0, 1), (1, 0)]
    ring2, _ = build_preset("e2-trunc-d2")  # monomial_quotient(6, 2, [[1, 1]], 2)
    g2 = canonical_grading(ring2)
    assert g2.support_keys == [(0, 0), (0, 1), (0, 2), (1, 0), (2, 0)]


def test_product_grading_componentwise():
    factor = idealization(cyclic(2))
    prod = direct_product([factor, factor])
    fg = canonical_grading(factor)
    g = product_grading(prod, [fg, fg])
    assert g.support_keys == [(0,), (1,)]
    assert len(g.support[(0,)]) == 4 and len(g.support[(1,)]) == 4


@pytest.mark.parametrize("trivial_first", [True, False])
def test_product_grading_regrades_trivially_graded_factor(trivial_first):
    """Z2 is graded over the trivial group Z_1 and Z4[Y]/(Y^2) over Z_2: the
    product takes Z_2, with Z2 inside the degree-0 component.  The zero
    ring, whose grading has no support, joins the same way."""
    y2 = poly_quotient_xn(cyclic(4), 2, var="Y")
    for other in (cyclic(2), cyclic(1)):
        factors = [other, y2] if trivial_first else [y2, other]
        ring = direct_product(factors)
        g = canonical_grading(ring)
        assert g.group.moduli == (2,) and g.support_keys == [(0,), (1,)]
        pos = factors.index(y2)
        y2_grading = canonical_grading(y2)
        for key, ids in g.support.items():
            assert len(ids) == other.order ** (key == (0,)) * 4
            y2_part = set(y2_grading.support[key].tolist())
            assert set(oracles.product_project(ring, pos, ids).tolist()) == y2_part
            assert set(oracles.product_project(ring, 1 - pos, ids).tolist()) == (
                set(range(other.order)) if key == (0,) else {0}
            )


_MIXED_PRODUCTS = {
    "Z2[x]/(x^2)xZ2[Z3]": lambda: build_spec({"kind": "product", "factors": [
        {"kind": "polyQuotientXn", "base": {"kind": "cyclic", "n": 2}, "n": 2},
        {"kind": "groupRing", "base": {"kind": "cyclic", "n": 2}, "group": [3]},
    ]}),
    "Z2[x]/(x^2)xZ2[x,y]/(x,y)^2": lambda: direct_product(
        [poly_quotient_xn(cyclic(2), 2), monomial_quotient(2, 2, [], 1)]),
    "Z2[Y]/(Y^2)xZ2[x]/(x^3)xZ2": lambda: direct_product(
        [poly_quotient_xn(cyclic(2), 2, var="Y"), poly_quotient_xn(cyclic(2), 3), cyclic(2)]),
}


@pytest.mark.parametrize("name", list(_MIXED_PRODUCTS))
def test_product_grading_over_different_groups_takes_the_product_group(name):
    """Factors graded over different groups grade their product by the
    product group, their moduli concatenated: the component at sigma in
    factor i's coordinates and e elsewhere projects onto (R_i)_sigma at
    factor i and onto 0 at every other factor, the degree-e component is
    the product of the factors' degree-e components (a trivially graded
    factor lies there whole), and every factor identity has degree e."""
    ring = _MIXED_PRODUCTS[name]()
    factors = ring.aux["factors"]
    gradings = [canonical_grading(f) for f in factors]
    g = canonical_grading(ring)
    graded = [i for i, h in enumerate(gradings) if h.support_keys != [h.group.identity()]]
    assert g.group.moduli == sum((gradings[i].group.moduli for i in graded), ())
    identity = g.group.identity()
    expected, before = {identity: [h.identity_component().tolist() for h in gradings]}, 0
    for i in graded:
        h = gradings[i]
        for key, ids in h.support.items():
            if key != h.group.identity():
                degree = identity[:before] + key + identity[before + len(key):]
                expected[degree] = [ids.tolist() if j == i else [0] for j in range(len(factors))]
        before += len(h.group.moduli)
    assert sorted(expected) == g.support_keys
    for key, parts in expected.items():
        ids = g.support[key]
        assert len(ids) == np.prod([len(part) for part in parts]), (name, key)
        for i, part in enumerate(parts):
            assert sorted(set(oracles.product_project(ring, i, ids).tolist())) == part, (name, key)
    weights = np.cumprod([1] + [f.order for f in factors[:-1]])
    for w, f in zip(weights, factors):
        assert g.degree_of(int(w) * f.one) == identity, name


def test_localization_grading(e1, e1_grading):
    loc = localization(e1, e1_grading, [1, 3])
    g = localization_grading(loc)
    assert g.support_keys == [(0,), (1,)]
    assert len(g.support[(0,)]) == 4 and len(g.support[(1,)]) == 4


def test_check_t2_hypotheses(e1, e1_grading):
    ok, wit = check_t2_hypotheses(e1_grading)
    assert ok and wit[(0,)] == 1 and wit[(1,)] == 4
    ring = monomial_quotient(6, 2, [[1, 1]], 1)
    ok, wit = check_t2_hypotheses(canonical_grading(ring))
    assert ok
    assert wit[(1, 0)] == 6 and wit[(0, 1)] == 36


def test_check_t2_fails_on_non_faithful_component(e1):
    # subring {a + b*2Y} graded by R_0 = Z4, R_1 = {0, 2Y}: R_0*(2Y) fills the
    # component but 2 in R_0 annihilates 2Y
    sub, embed = subring(e1, [0, 1, 2, 3, 8, 9, 10, 11])
    pos = {old: new for new, old in enumerate(embed)}
    g = validate_grading(
        Grading(sub, GradingGroup((2,)), {(0,): [0, 1, 2, 3], (1,): [0, pos[8]]})
    )
    ok, wit = check_t2_hypotheses(g)
    assert not ok and wit[(1,)] is None


def test_check_t8_condition(e1_grading, z6):
    assert not check_t8_condition(e1_grading)
    assert not check_t8_condition(trivial_grading(z6))
    for n in (2, 3, 5):
        assert check_t8_condition(trivial_grading(cyclic(n)))


def test_check_t10_condition(e1_grading, z6):
    ok, wit = check_t10_condition(trivial_grading(z6))
    assert ok
    # Ann(2) = {0,3} = 3*Z6 with 3 idempotent; Ann(3) = {0,2,4} = 4*Z6
    assert wit[2] == 3 and wit[3] == 4
    ok, wit = check_t10_condition(e1_grading)
    assert not ok and wit[4] is None  # Ann(Y) = Z4*Y is not b*R for b in {0,1}
    ok, _ = check_t10_condition(trivial_grading(cyclic(5)))
    assert ok


def test_grading_interchange_round_trip(e1, e1_grading):
    doc = e1_grading.to_dict()
    assert doc["moduli"] == [2]
    back = grading_from_dict(e1, doc)
    assert {k: ids.tolist() for k, ids in back.support.items()} == {
        k: ids.tolist() for k, ids in e1_grading.support.items()
    }


@pytest.mark.parametrize("doc", [
    {"moduli": [2], "components": {"0": [0, 1]}},
    {"moduli": [2], "components": [[0, 1]]},
    {"moduli": [2], "components": [{"degree": 0, "elements": [0, 1]}]},
    {"moduli": [2], "components": [{"degree": [0]}]},
    {"moduli": 2, "components": []},
])
def test_malformed_grading_document(z4, doc):
    with pytest.raises(GradingError, match="malformed-document"):
        grading_from_dict(z4, doc)


def test_decompose_resums(e1, e1_grading):
    for a in range(16):
        total = 0
        for part in decompose(e1_grading, a).values():
            total = e1.add(total, part)
        assert total == a


def test_homogeneous_products_respect_degrees(e1, e1_grading):
    group = e1_grading.group
    for ka in e1_grading.support_keys:
        for kb in e1_grading.support_keys:
            target = group.op(ka, kb)
            for a in e1_grading.support[ka].tolist():
                for b in e1_grading.support[kb].tolist():
                    prod = e1.mul(a, b)
                    if prod != 0:
                        assert e1_grading.degree_of(prod) == target


def test_zero_ring_grading():
    ring = cyclic(1)
    g = trivial_grading(ring)
    assert g.support_keys == []
    assert homogeneous_elements(g).tolist() == [0]


def _components(build):
    """Moduli and components of the grading ``build()`` returns."""
    grading = build()
    return grading.group.moduli, {k: ids.tolist() for k, ids in grading.support.items()}


def _assert_matches_former_builders(ring):
    """canonical_grading, product_grading (of the factors' trivial gradings)
    and square_zero_extension_grading equal the former builders' gradings,
    the last on R[X]/(X^2) when its order is at most EXTENSION_CAP, lifting
    the canonical grading."""
    assert _components(lambda: canonical_grading(ring)) == _components(
        lambda: oracles.former_canonical_grading(ring)
    )
    if ring.provenance["kind"] == "product":
        trivial = [trivial_grading(f) for f in ring.aux["factors"]]
        assert _components(lambda: product_grading(ring, trivial)) == _components(
            lambda: oracles.product_grading(ring, trivial)
        )
    if ring.order**2 <= EXTENSION_CAP:
        graded = canonical_grading(ring)
        ext = poly_quotient_xn(ring, 2, var="X", max_order=EXTENSION_CAP)
        assert _components(lambda: square_zero_extension_grading(ext, graded)) == _components(
            lambda: oracles.square_zero_extension_grading(ext, graded)
        )
        assert _components(lambda: canonical_grading(ext)) == _components(
            lambda: oracles.xn_grading(ext)
        )


_Y2 = lambda n: poly_quotient_xn(cyclic(n), 2, var="Y")

_GRADED_RINGS = {
    **{f"preset {name}": (lambda name=name: build_preset(name)[0]) for name in PRESETS},
    "Z6[x]/(x^4)": lambda: poly_quotient_xn(cyclic(6), 4),
    "(Z2(+)Z2)[x]/(x^3)": lambda: poly_quotient_xn(idealization(cyclic(2)), 3),
    "Z3[Z2^2]": lambda: group_ring(cyclic(3), [2, 2]),
    "Z2[Z3]": lambda: group_ring(cyclic(2), [3]),
    "Z2[x,y,z]/(xy),d2": lambda: monomial_quotient(2, 3, [[1, 1, 0]], 2),
    "(Z2(+)Z2)(+)(Z2(+)Z2)": lambda: idealization(idealization(cyclic(2))),
    "Z4xZ6": lambda: direct_product([cyclic(4), cyclic(6)]),
    "Z2[Y]/(Y^2)xZ2[Z2]": lambda: direct_product([_Y2(2), group_ring(cyclic(2), [2])]),
    "(Z3(+)Z3)xZ2[Y]/(Y^2)xZ2": lambda: direct_product(
        [idealization(cyclic(3)), _Y2(2), cyclic(2)]
    ),
    **_MIXED_PRODUCTS,
}


@pytest.mark.parametrize("name", list(_GRADED_RINGS))
def test_digit_gradings_match_former_builders(name):
    _assert_matches_former_builders(_GRADED_RINGS[name]())


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_digit_gradings_match_former_builders_on_generated_rings(data):
    """Products, idealizations, group rings, R[x]/(x^n) and monomial
    quotients of order at most 64, nested."""
    doc, order = oracles.construction_document(data.draw, 64)
    ring = build_spec(doc)
    assert ring.order == order
    _assert_matches_former_builders(ring)


# -- every Grading is validated when built


def _y_as_one():
    """e1's tables with Y declared the identity.  On a true ring the other
    axioms put 1 in R_e, so only such tables reach the identity clause."""
    e1 = poly_quotient_xn(cyclic(4), 2, var="Y")
    return FiniteRing(e1.add_table, e1.mul_table, e1.zero, one=4)


_CLAUSES = {
    "not-a-subgroup": (lambda: cyclic(4), {(0,): [0, 1], (1,): [0, 2]}),
    "not-direct-sum": (lambda: cyclic(4), {(0,): [0, 2], (1,): [0, 2]}),
    "multiplicativity": (lambda: cyclic(6), {(0,): [0, 2, 4], (1,): [0, 3]}),
    "identity-component": (_y_as_one, {(0,): [0, 1, 2, 3], (1,): [0, 4, 8, 12]}),
    "duplicate-degree": (lambda: cyclic(4), {(0,): [0, 1, 2, 3], (2,): [0, 2]}),
}


@pytest.mark.parametrize("clause", list(_CLAUSES))
def test_grading_and_document_raise_for_each_clause(clause):
    build, comps = _CLAUSES[clause]
    ring = build()
    with pytest.raises(GradingError) as err:
        Grading(ring, GradingGroup((2,)), comps)
    assert err.value.clause == clause
    doc = {
        "moduli": [2],
        "components": [{"degree": list(k), "elements": v} for k, v in comps.items()],
    }
    with pytest.raises(GradingError) as err:
        grading_from_dict(ring, doc)
    assert err.value.clause == clause


@pytest.mark.parametrize("name", list(PRESETS))
def test_canonical_grading_validates_each_grading_once(monkeypatch, name):
    """The constructor validates; nothing validates a built grading again.
    A product's canonical grading also builds one grading per factor."""
    ring = build_preset(name)[0]
    calls = []
    validate = grading_module.validate_grading

    def counting(grading):
        calls.append(grading)
        return validate(grading)

    monkeypatch.setattr(grading_module, "validate_grading", counting)
    g = canonical_grading(ring)
    assert [c for c in calls if c is g] == [g]
    assert len({id(c) for c in calls}) == len(calls) == 1 + len(ring.aux.get("factors", []))


def test_regraded_factor_builds_no_grading_of_its_own(monkeypatch, e1):
    """Z2, graded over the trivial group, joins e1's Z_2-grading as digit
    sets: the two factor gradings and the product are the only gradings."""
    ring = direct_product([cyclic(2), e1])
    calls = []
    validate = grading_module.validate_grading
    monkeypatch.setattr(grading_module, "validate_grading",
                        lambda grading: calls.append(grading) or validate(grading))
    g = canonical_grading(ring)
    assert len(calls) == 3 and calls[-1] is g
    assert g.group.moduli == (2,) and g.support_keys == [(0,), (1,)]


# -- every homogeneous zero-divisor pool comes from component_zero_divisors


def _assert_pools_match_former_builders(grading):
    ring = grading.ring
    pools = component_zero_divisors(grading)
    assert [ids.tolist() for _, ids in pools] == [sorted(set(ids.tolist())) for _, ids in pools]
    assert [(k, set(ids.tolist())) for k, ids in pools] == oracles.former_component_pools(
        ring, grading
    )
    scanned = []
    record = lambda name, ring, pools, degree, grading: scanned.append(pools)
    with mock.patch.object(analysis, "_armendariz_report", record):
        is_armendariz_g_graded(ring, grading)
    assert [(k, [int(e) for e in pool]) for k, pool in scanned[0]] == (
        oracles.former_armendariz_pools(ring, grading)
    )
    hz = {e for _, ids in pools for e in ids.tolist()} | ({ring.zero} if ring.order > 1 else set())
    assert sorted(hz) == oracles.former_homogeneous_zero_divisors(grading)
    assert check_t8_condition(grading) == oracles.former_check_t8_condition(grading)


def _corner_gradings(ring, grading):
    """The gradings of the corners t4 localizes at, {1, e}^-1 R for each
    nonzero homogeneous idempotent e != 1."""
    return [
        localization_grading(localization(ring, grading, [ring.one, e]))
        for e in idempotents(ring).tolist()
        if e not in (ring.zero, ring.one) and grading.degree_of(e) is not None
    ]


def _extension_grading(ring, grading):
    """R[X]/(X^2) with the lifted grading."""
    ext = poly_quotient_xn(ring, 2, var="X", max_order=EXTENSION_CAP)
    return [square_zero_extension_grading(ext, grading)]


_POOL_CASES = {
    "trivial Z1": lambda: [trivial_grading(cyclic(1))],
    **{f"preset {name}": (lambda name=name: [build_preset(name)[1]]) for name in PRESETS},
    **{
        f"trivial {name}": (lambda name=name: [trivial_grading(build_preset(name)[0])])
        for name in PRESETS
    },
    **{
        f"{name}[X]/(X^2)": (lambda name=name: _extension_grading(*build_preset(name)))
        for name in PRESETS
        if not name.startswith("e2-trunc")  # orders 216 and 7776: 216^2 > EXTENSION_CAP
    },
    **{
        f"t4 corners of {name}": (lambda name=name: _corner_gradings(*build_preset(name)))
        for name in PRESETS
    },
}


@pytest.mark.parametrize("name", list(_POOL_CASES))
def test_component_pools_match_former_builders(name):
    for grading in _POOL_CASES[name]():
        _assert_pools_match_former_builders(grading)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_component_pools_match_former_builders_on_generated_rings(data):
    """Generated construction documents of order at most 64, under their
    canonical grading and the trivial one."""
    doc, _ = oracles.construction_document(data.draw, 64)
    ring = build_spec(doc)
    _assert_pools_match_former_builders(trivial_grading(ring))
    _assert_pools_match_former_builders(canonical_grading(ring))
