import numpy as np
import pytest

from emrings.construct import (
    cyclic,
    direct_product,
    group_ring,
    idealization,
    localization,
    monomial_quotient,
    poly_quotient_xn,
)
from emrings.grading import (
    Automorphism,
    Grading,
    GradingError,
    GradingGroup,
    canonical_grading,
    check_t2_hypotheses,
    check_t8_condition,
    check_t10_condition,
    decompose,
    grading_from_dict,
    groupring_grading,
    homogeneous_elements,
    homogeneous_zero_divisors,
    idealization_grading,
    is_crossed_product,
    is_graded_ideal,
    localization_grading,
    product_grading,
    transport_grading,
    trivial_grading,
    truncated_monomial_grading,
    validate_automorphism,
    validate_grading,
    xn_grading,
)
from emrings.presets import build_preset
from emrings.rings import ideal_generated, subring, validate_ring


def test_e1_grading_valid(e1, e1_grading):
    assert e1_grading.support_keys == [(0,), (1,)]
    assert e1_grading.support[(0,)].elements == (0, 1, 2, 3)
    assert e1_grading.support[(1,)].elements == (0, 4, 8, 12)


def test_trivial_grading_any_ring(z6, e1):
    for ring in (z6, e1):
        g = trivial_grading(ring)
        assert g.support_keys == [(0,)]


def test_invalid_not_a_subgroup(z4):
    g = Grading(z4, GradingGroup((2,)), {(0,): [0, 1], (1,): [0, 2]})
    with pytest.raises(GradingError) as err:
        validate_grading(g)
    assert err.value.clause == "not-a-subgroup"


def test_invalid_not_direct_sum(z4):
    g = Grading(z4, GradingGroup((2,)), {(0,): [0, 2], (1,): [0, 2]})
    with pytest.raises(GradingError) as err:
        validate_grading(g)
    assert err.value.clause == "not-direct-sum"


def test_invalid_multiplicativity(z6):
    # {0,2,4} + {0,3} decomposes Z6 additively, but 3*3 = 3 lands back in R_1
    g = Grading(z6, GradingGroup((2,)), {(0,): [0, 2, 4], (1,): [0, 3]})
    with pytest.raises(GradingError) as err:
        validate_grading(g)
    assert err.value.clause == "multiplicativity"


def test_decompose_examples(e1, e1_grading):
    assert decompose(e1_grading, 2 + 3 * 4) == {(0,): 2, (1,): 12}
    assert decompose(e1_grading, 0) == {}
    gr_ring = group_ring(cyclic(4), [2])
    g = groupring_grading(gr_ring)
    assert decompose(g, 1 + 3 * 4) == {(0,): 1, (1,): 12}


def test_homogeneous_sets(e1, e1_grading):
    assert homogeneous_elements(e1_grading).elements == (0, 1, 2, 3, 4, 8, 12)
    assert homogeneous_zero_divisors(e1_grading).elements == (0, 2, 4, 8, 12)
    z5 = validate_ring(cyclic(5))
    assert homogeneous_zero_divisors(trivial_grading(z5)).elements == (0,)


def test_crossed_product(e1_grading):
    ok, wit = is_crossed_product(e1_grading)
    assert not ok and wit[(1,)] is None
    gr = group_ring(cyclic(4), [2])
    ok, wit = is_crossed_product(groupring_grading(gr))
    assert ok and wit[(0,)] == 1 and wit[(1,)] == 4
    z6 = cyclic(6)
    ok, _ = is_crossed_product(trivial_grading(z6))
    assert ok


def test_automorphism_validation(e1):
    ident = Automorphism(e1, tuple(range(16)))
    validate_automorphism(ident)
    with pytest.raises(ValueError):
        validate_automorphism(Automorphism(e1, tuple([1, 0] + list(range(2, 16)))))


def _y_to_3y_automorphism(e1):
    # a + bY -> a + 3bY is a ring automorphism of Z4[Y]/(Y^2)
    perm = [(a + 4 * ((3 * b) % 4)) for b in range(4) for a in range(4)]
    order = [a + 4 * b for b in range(4) for a in range(4)]
    out = [0] * 16
    for src, dst in zip(order, perm):
        out[src] = dst
    return Automorphism(e1, tuple(out))


def test_transport_grading(e1, e1_grading):
    phi = _y_to_3y_automorphism(e1)
    validate_automorphism(phi)
    moved = transport_grading(e1_grading, phi)
    # Z4*Y is stable under Y -> 3Y, so the support is unchanged
    assert {k: es.elements for k, es in moved.support.items()} == {
        k: es.elements for k, es in e1_grading.support.items()
    }
    ident = Automorphism(e1, tuple(range(16)))
    same = transport_grading(e1_grading, ident)
    assert same.support[(1,)].elements == e1_grading.support[(1,)].elements


def test_transport_round_trip(e1, e1_grading):
    phi = _y_to_3y_automorphism(e1)
    inv = np.empty(16, dtype=np.int64)
    inv[list(phi.perm)] = np.arange(16)
    back = transport_grading(
        transport_grading(e1_grading, phi), Automorphism(e1, tuple(int(x) for x in inv))
    )
    assert {k: es.elements for k, es in back.support.items()} == {
        k: es.elements for k, es in e1_grading.support.items()
    }


def test_graded_ideal_examples(e1, e1_grading):
    assert is_graded_ideal(e1_grading, ideal_generated(e1, [4]))  # <Y>
    assert is_graded_ideal(e1_grading, ideal_generated(e1, range(16)))
    # <2+Y> = {0, 2Y, 2+Y, 2+3Y}: the component 2 of 2+Y is not a member,
    # so exhaustive membership decides "not graded"
    ideal = ideal_generated(e1, [6])
    assert ideal.elements == (0, 6, 8, 14)
    parts = decompose(e1_grading, 6)
    assert parts == {(0,): 2, (1,): 4}
    assert 2 not in ideal.elements
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
    assert e1_grading.support[(0,)].elements == (0, 1, 2, 3)
    assert e1_grading.support[(1,)].elements == (0, 4, 8, 12)


def test_idealization_grading(z4):
    ring = idealization(z4)
    g = idealization_grading(ring)
    assert g.support[(0,)].elements == (0, 1, 2, 3)
    assert g.support[(1,)].elements == (0, 4, 8, 12)


def test_truncated_monomial_grading_support():
    ring = monomial_quotient(6, 2, [[1, 1]], 1)
    g = truncated_monomial_grading(ring)
    assert g.support_keys == [(0, 0), (0, 1), (1, 0)]
    ring2, _ = build_preset("e2-trunc-d2")  # monomial_quotient(6, 2, [[1, 1]], 2)
    g2 = truncated_monomial_grading(ring2)
    assert g2.support_keys == [(0, 0), (0, 1), (0, 2), (1, 0), (2, 0)]


def test_product_grading_componentwise():
    factor = idealization(cyclic(2))
    prod = direct_product([factor, factor])
    fg = idealization_grading(factor)
    g = product_grading(prod, [fg, fg])
    assert g.support_keys == [(0,), (1,)]
    assert len(g.support[(0,)]) == 4 and len(g.support[(1,)]) == 4


def test_localization_grading(e1, e1_grading):
    loc = localization(e1, e1_grading, [1, 3])
    g = localization_grading(loc)
    assert g.support_keys == [(0,), (1,)]
    assert len(g.support[(0,)]) == 4 and len(g.support[(1,)]) == 4


def test_check_t2_hypotheses(e1, e1_grading):
    ok, wit = check_t2_hypotheses(e1_grading)
    assert ok and wit[(0,)] == 1 and wit[(1,)] == 4
    ring = monomial_quotient(6, 2, [[1, 1]], 1)
    ok, wit = check_t2_hypotheses(truncated_monomial_grading(ring))
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
    assert {k: es.elements for k, es in back.support.items()} == {
        k: es.elements for k, es in e1_grading.support.items()
    }


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
            for a in e1_grading.support[ka].elements:
                for b in e1_grading.support[kb].elements:
                    prod = e1.mul(a, b)
                    if prod != 0:
                        assert e1_grading.degree_of(prod) == target


def test_zero_ring_grading():
    ring = cyclic(1)
    g = trivial_grading(ring)
    assert g.support_keys == []
    assert homogeneous_elements(g).elements == (0,)
