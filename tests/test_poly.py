import itertools

import pytest
from hypothesis import given, settings, strategies as st

from emrings.analysis import find_annihilating_content, ideal_grid
from emrings.construct import build_spec, cyclic, direct_product, monomial_quotient
from emrings.poly import (
    bivariate,
    content_ideal,
    content_is_graded,
    is_zero_divisor_poly,
    kronecker_flatten,
    kronecker_unflatten,
    poly_mul,
    poly_scale,
    poly_str,
    poly_var,
    polynomial,
)
from emrings.presets import build_preset
from emrings.rings import annihilator, ideal_generated, validate_ring

from oracles import poly_annihilator_bruteforce


def test_poly_canonical_form(z4):
    assert polynomial(z4, [1, 2, 0, 0]).coeffs == (1, 2)
    assert polynomial(z4, [0, 0]).is_zero
    assert polynomial(z4, []).degree == -1


def test_arithmetic_examples(z4, e1):
    z2 = validate_ring(cyclic(2))
    one_plus_x = polynomial(z2, [1, 1])
    assert poly_mul(one_plus_x, one_plus_x).coeffs == (1, 0, 1)
    f = polynomial(e1, [2, 4])  # 2 + Yx
    assert poly_mul(f, f).is_zero
    g = polynomial(z4, [3, 1, 2])
    assert poly_mul(g, polynomial(z4, [1])) == g


def test_arithmetic_rejects_ring_mismatch(z4, z6):
    with pytest.raises(ValueError):
        poly_mul(polynomial(z4, [1]), polynomial(z6, [1]))


def test_poly_scale(z4):
    f = polynomial(z4, [1, 2, 3])
    assert poly_scale(2, f).coeffs == (2, 0, 2)
    long = polynomial(z4, tuple([1] * 100))
    assert poly_scale(2, long).coeffs == tuple([2] * 100)


def test_content_ideal_examples(z4, e1):
    assert content_ideal(polynomial(z4, [2, 2])).elements.tolist() == [0, 2]
    f = polynomial(e1, [2, 4])
    assert content_ideal(f).elements.tolist() == ideal_generated(e1, [2, 4]).elements.tolist()
    assert len(content_ideal(f)) == 8
    assert content_ideal(polynomial(z4, [])).elements.tolist() == [0]


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_content_of_scaled_poly(z6, e1, data):
    """C(c*f) equals c*C(f) elementwise."""
    ring = data.draw(st.sampled_from([z6, e1]))
    c = data.draw(st.integers(0, ring.order - 1))
    coeffs = data.draw(st.lists(st.integers(0, ring.order - 1), min_size=1, max_size=4))
    f = polynomial(ring, coeffs)
    scaled_content = content_ideal(poly_scale(c, f)).elements.tolist()
    expected = sorted({ring.mul(c, x) for x in content_ideal(f).elements.tolist()})
    assert scaled_content == expected


def test_is_zero_divisor_poly_examples(z4, e1):
    assert is_zero_divisor_poly(polynomial(z4, [2, 2])) == (True, 2)
    assert is_zero_divisor_poly(polynomial(z4, [1, 2])) == (False, None)
    # 2 + Yx is annihilated by 2Y (id 8)
    assert is_zero_divisor_poly(polynomial(e1, [2, 4])) == (True, 8)
    with pytest.raises(ValueError):
        is_zero_divisor_poly(polynomial(z4, []))


def test_mccoy_reduction_exhaustive_small(z4, z6):
    """Constant-annihilator status == existence of a polynomial annihilator."""
    for ring in (z4, z6):
        for coeffs in itertools.product(range(ring.order), repeat=3):
            f = polynomial(ring, coeffs)
            if f.is_zero:
                continue
            verdict, witness = is_zero_divisor_poly(f)
            brute = poly_annihilator_bruteforce(ring, f.coeffs, 3)
            assert verdict == (brute is not None), (ring.order, coeffs)
            if verdict:
                assert all(ring.mul(witness, c) == 0 for c in f.coeffs)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_mccoy_reduction_sampled_e1(e1, data):
    coeffs = data.draw(
        st.lists(st.integers(0, 15), min_size=1, max_size=4).filter(lambda c: any(c))
    )
    f = polynomial(e1, coeffs)
    verdict, _ = is_zero_divisor_poly(f)
    assert verdict == (poly_annihilator_bruteforce(e1, f.coeffs, 3) is not None)


def test_content_is_graded(e1, e1_grading):
    # homogeneous polynomials always have graded content
    for comp in ((0,), (1,)):
        pool = [c for c in e1_grading.support[comp].tolist() if c != 0]
        for size in (1, 2, 3):
            for coeffs in itertools.combinations(pool, size):
                assert content_is_graded(e1_grading, polynomial(e1, coeffs))
    # 2 + Yx is inhomogeneous, but <2, Y> is generated by homogeneous elements
    assert content_is_graded(e1_grading, polynomial(e1, [2, 4]))
    assert content_is_graded(e1_grading, polynomial(e1, []))
    # <2 + Y> is not graded, so neither is the content of (2+Y) + (2+Y)x
    assert not content_is_graded(e1_grading, polynomial(e1, [6, 6]))


def test_kronecker_flatten_example():
    z2 = validate_ring(cyclic(2))
    f = bivariate(z2, [[1, 1], [0, 1]])  # (1+x) + (x)y
    g, offsets, widths = kronecker_flatten(f)
    assert g.coeffs == (1, 1, 0, 1)  # 1 + x + x^3
    assert offsets == (0, 2) and widths == (2, 2)
    assert kronecker_unflatten(z2, g, offsets, widths) == f


def test_kronecker_constant_in_y(z4):
    f = bivariate(z4, [[2, 1]])
    g, offsets, widths = kronecker_flatten(f)
    assert g.coeffs == (2, 1) and offsets == (0,)


def test_kronecker_zero_rejected(z4):
    with pytest.raises(ValueError):
        kronecker_flatten(bivariate(z4, []))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kronecker_round_trip_and_annihilator(e1, data):
    rows = data.draw(
        st.lists(st.lists(st.integers(0, 15), min_size=1, max_size=3), min_size=1, max_size=3)
    )
    f = bivariate(e1, rows)
    if f.is_zero:
        return
    g, offsets, widths = kronecker_flatten(f)
    assert kronecker_unflatten(e1, g, offsets, widths) == f
    # the nonzero coefficient multiset is preserved, so annihilators agree
    ann_f = annihilator(e1, set(f.coefficient_ids()))
    ann_g = annihilator(e1, set(g.coeffs))
    assert ann_f.elements.tolist() == ann_g.elements.tolist()


def test_poly_str(e1):
    assert poly_str(polynomial(e1, [2, 4])) == "2 + Y*x"
    assert poly_str(polynomial(e1, [])) == "0"
    assert poly_str(polynomial(e1, [6, 0, 1])) == "(2 + Y) + x^2"


def test_poly_str_names_the_variable_apart_from_the_labels():
    z4_xn_3, _ = build_preset("z4-xn-3")
    assert poly_str(polynomial(z4_xn_3, [4, 2])) == "x + 2*t"
    assert poly_str(polynomial(z4_xn_3, [4, 2]), var="x") == "x + 2*x"
    # labels x, y, ...: t
    assert poly_var(build_preset("e2-trunc-d1")[0]) == "t"
    # labels with x and t (the second variable is named t): s
    xt = monomial_quotient(2, 2, [], 1, varnames=["x", "t"])
    assert poly_var(xt) == "s"
    assert poly_var(direct_product([xt, monomial_quotient(2, 1, [], 1, varnames=["s"])])) == "z"
    # every name taken: x
    assert poly_var(monomial_quotient(2, 4, [], 1, varnames=["x", "t", "s", "z"])) == "x"
    assert poly_var(build_preset("e1")[0]) == "x"


def test_bivariate_str_names_the_outer_variable_apart_from_the_labels(z4):
    # e2-trunc-d1's labels use x and y, so the variables are t and u; the
    # single-term row 42 = x + y is parenthesized once, by its label
    e2, _ = build_preset("e2-trunc-d1")
    assert str(ideal_grid(e2, [6, 36, 42])) == "x + y*t + (x + y)*u"
    assert str(bivariate(z4, [[1, 1], [1], [2], [0, 1]])) == "1 + x + y + 2*y^2 + x*y^3"
    assert str(bivariate(z4, [[0], [1, 2]])) == "(1 + 2*x)*y"
    # labels with y and u: v
    yu = monomial_quotient(2, 2, [], 1, varnames=["y", "u"])
    assert str(bivariate(yu, [[0], [1]])) == "v"


def test_content_search_leaves_the_variable_name_unset():
    ring = build_spec({"kind": "polyQuotientXn", "base": {"kind": "cyclic", "n": 4}, "n": 3})
    assert find_annihilating_content(polynomial(ring, [4, 8])) is not None
    assert "poly_var" not in ring._cache
    assert poly_var(ring) == "t" and ring._cache["poly_var"] == "t"
