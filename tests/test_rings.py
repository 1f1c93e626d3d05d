import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emrings.construct import build_spec, cyclic, direct_product
from emrings.rings import (
    ElementSet,
    FiniteRing,
    RingAxiomError,
    annihilator,
    divisor_solutions,
    find_isomorphism,
    ideal_generated,
    ideal_lattice,
    idempotents,
    is_principal,
    regular_elements,
    subring,
    units,
    validate_ring,
    zero_divisors,
)

from emrings.grading import homogeneous_elements
from emrings.presets import build_preset

from oracles import additive_span_closure, all_permutation_isomorphism, subset_stream


def test_validate_z4_ok(z4):
    assert z4.order == 4
    assert validate_ring(z4) is z4


def test_validate_reports_broken_multiplication(z4):
    mul = z4.mul_table.copy()
    mul[2, 2] = 1
    bad = FiniteRing(z4.add_table, mul, 0, 1)
    with pytest.raises(RingAxiomError) as err:
        validate_ring(bad)
    assert err.value.axiom in ("mul-associativity", "distributivity")
    assert len(err.value.witness) == 3


def test_validate_rejects_broken_identity(z4):
    mul = z4.mul_table.copy()
    mul[1, 2] = 3
    mul[2, 1] = 3
    with pytest.raises(RingAxiomError) as err:
        validate_ring(FiniteRing(z4.add_table, mul, 0, 1))
    assert err.value.axiom == "mul-identity"


def test_order_one_zero_ring_is_valid():
    ring = validate_ring(cyclic(1))
    assert ring.order == 1
    assert ring.zero == ring.one == 0
    assert zero_divisors(ring).elements == ()
    assert units(ring).elements == (0,)


def test_zero_divisors_examples(z4, z6):
    assert zero_divisors(z4).elements == (0, 2)
    assert zero_divisors(validate_ring(cyclic(5))).elements == (0,)
    assert zero_divisors(z6).elements == (0, 2, 3, 4)


def test_units_idempotents_regulars(z4, z6):
    assert units(z4).elements == (1, 3)
    # E(Z6): squares are 0,1,4,3,4,1 -> fixed points 0,1,3,4
    assert idempotents(z6).elements == (0, 1, 3, 4)
    z5 = validate_ring(cyclic(5))
    assert regular_elements(z5).elements == (1, 2, 3, 4)


def test_annihilator_examples(z4, z6):
    assert annihilator(z4, [2]).elements == (0, 2)
    assert annihilator(z4, [1]).elements == (0,)
    # Ann(2) = {0,3}, Ann(3) = {0,2,4}; the intersection is trivial
    assert annihilator(z6, [2, 3]).elements == (0,)
    assert annihilator(z6, []).elements == tuple(range(6))


def test_divisor_solutions_examples(z4, z6):
    assert divisor_solutions(z4, 2, 2).elements == (1, 3)
    assert divisor_solutions(z4, 2, 1).elements == ()
    assert divisor_solutions(z6, 3, 0).elements == (0, 2, 4)
    assert divisor_solutions(z6, 3, 0).elements == annihilator(z6, [3]).elements


def test_ideal_generated_examples(z4, z6):
    assert ideal_generated(z4, [2]).elements == (0, 2)
    assert ideal_generated(z4, []).elements == (0,)
    # 3 - 2 = 1, so <2,3> is everything
    assert ideal_generated(z6, [2, 3]).elements == tuple(range(6))


def test_is_principal_examples(z4, z6, e1):
    assert is_principal(z4, ideal_generated(z4, [2])) == 2
    assert is_principal(z6, ideal_generated(z6, [2, 3])) == 1
    # {0, 2Y} inside Z4[Y]/(Y^2): 2Y has id 8
    ideal = ideal_generated(e1, [8])
    assert ideal.elements == (0, 8)
    assert is_principal(e1, ideal) == 8


def test_is_principal_matches_generated_ideals(z6, e1):
    # every ideal on <= 2 generators against a direct search for the
    # smallest p with <p> equal to it (exercises the principal-ideal table)
    for ring in (z6, e1):
        for gens in itertools.combinations_with_replacement(range(ring.order), 2):
            ideal = ideal_generated(ring, gens)
            expected = next(
                (p for p in ideal.elements
                 if ideal_generated(ring, [p]).elements == ideal.elements),
                None,
            )
            assert is_principal(ring, ideal) == expected, gens


def test_ideal_generated_matches_span_closure(z6, e1):
    # the fold of g*R sums against the closure of all multiples under pairwise
    # sums, for every generator pair
    xn, _ = build_preset("z4-xn-3")
    for ring in (z6, e1, xn):
        for gens in itertools.combinations_with_replacement(range(ring.order), 2):
            expected = additive_span_closure(ring, ring.mul_table[list(gens)].ravel())
            assert ideal_generated(ring, gens).elements == tuple(int(x) for x in expected), gens


def _lattice_pools(z6, e1):
    xn, xn_grading = build_preset("z4-xn-3")
    prod, _ = build_preset("prod-e1sm")
    # Z2[x,y,z]/(x,y,z)^2: its ideals inside (x,y,z) are the 16 subspaces,
    # so the lattice reaches three generators
    flat = build_spec({"kind": "monomialQuotient", "m": 2, "v": 3, "relations": [], "d": 1})
    return [
        (z6, range(6)),
        (z6, zero_divisors(z6).elements),
        (e1, zero_divisors(e1).elements),
        (xn, homogeneous_elements(xn_grading).elements),
        (prod, [z for z in zero_divisors(prod).elements if z != prod.zero]),
        (flat, zero_divisors(flat).elements),
    ]


def test_ideal_lattice_matches_subset_closures(z6, e1):
    """The enumerator yields each ideal (S), S a nonempty subset of the pool,
    exactly once, in order of its lexicographically first smallest
    generating subset, and reports that subset as its generators."""
    for ring, pool in _lattice_pools(z6, e1):
        first: dict[tuple, tuple] = {}
        for subset in subset_stream(pool):
            first.setdefault(ideal_generated(ring, subset).elements, subset)
        lattice = list(ideal_lattice(ring, pool))
        assert [i.elements for i in lattice] == list(first), ring
        assert [i.generators for i in lattice] == list(first.values()), ring
        for ideal in lattice:
            ideal.validate()  # an ideal, and the closure of its generators
        two = [i.generators for i in ideal_lattice(ring, pool, max_gens=2)]
        assert two == [s for s in first.values() if len(s) <= 2], ring


def test_partition_law_units_vs_zero_divisors(z4, z6, e1):
    for ring in (z4, z6, e1):
        u = set(units(ring).elements)
        z = set(zero_divisors(ring).elements)
        assert u | z == set(range(ring.order))
        assert not (u & z)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_annihilator_antitone(z6, e1, data):
    ring = data.draw(st.sampled_from([z6, e1]))
    small = data.draw(st.sets(st.integers(0, ring.order - 1), max_size=3))
    extra = data.draw(st.sets(st.integers(0, ring.order - 1), max_size=3))
    big = small | extra
    ann_small = set(annihilator(ring, small).elements)
    ann_big = set(annihilator(ring, big).elements)
    assert ann_big <= ann_small


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_divisor_solutions_coset_size(z6, e1, data):
    ring = data.draw(st.sampled_from([z6, e1]))
    c = data.draw(st.integers(0, ring.order - 1))
    a = data.draw(st.integers(0, ring.order - 1))
    sols = divisor_solutions(ring, c, a)
    if sols.elements:
        assert len(sols) == len(annihilator(ring, [c]))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ideal_operations_return_valid_ideals(z6, e1, data):
    ring = data.draw(st.sampled_from([z6, e1]))
    gens = data.draw(st.sets(st.integers(0, ring.order - 1), max_size=3))
    ideal = ideal_generated(ring, gens)
    ideal.validate()
    # idempotence: regenerating from the element list changes nothing
    again = ideal_generated(ring, ideal.elements)
    assert again.elements == ideal.elements
    ann = annihilator(ring, gens)
    ann.validate()


def test_element_set_canonical_form(z4):
    es = ElementSet(z4, (3, 1, 3, 0))
    assert es.elements == (0, 1, 3)
    assert 3 in es and 2 not in es


def test_interchange_round_trip(z6):
    doc = z6.to_dict()
    assert set(doc) == {"order", "add", "mul", "zero", "one", "labels"}
    back = FiniteRing.from_dict(doc)
    assert np.array_equal(back.add_table, z6.add_table)
    assert np.array_equal(back.mul_table, z6.mul_table)
    assert back.labels == z6.labels


def test_subring_extraction(e1):
    # {a + b*2Y} is an 8-element subring of Z4[Y]/(Y^2)
    elems = [0, 1, 2, 3, 8, 9, 10, 11]
    sub, embed = subring(e1, elems)
    assert sub.order == 8
    assert validate_ring(sub) is sub
    assert embed == elems
    with pytest.raises(ValueError):
        subring(e1, [0, 1, 4])  # not closed: Y missing 2Y = Y+Y


def test_isomorphism_z2xz3_vs_z6(z6):
    prod = direct_product([cyclic(2), cyclic(3)])
    phi = find_isomorphism(prod, z6)
    assert phi is not None
    # certify against the exhaustive permutation scan
    assert all_permutation_isomorphism(prod, z6) is not None


def test_isomorphism_rejects_non_isomorphic(z4):
    klein = direct_product([cyclic(2), cyclic(2)])
    assert find_isomorphism(klein, z4) is None
    assert all_permutation_isomorphism(klein, z4) is None


def test_isomorphism_order_16(z4, e1):
    from emrings.construct import idealization

    ideal16 = idealization(z4)
    phi = find_isomorphism(ideal16, e1)
    assert phi is not None
    perm = np.fromiter(phi, dtype=np.int64)
    assert np.array_equal(perm[ideal16.add_table], e1.add_table[perm[:, None], perm[None, :]])
    assert np.array_equal(perm[ideal16.mul_table], e1.mul_table[perm[:, None], perm[None, :]])
