import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emrings.construct import (
    _vector_ring,
    OrderCapError,
    build_spec,
    cyclic,
    direct_product,
    group_ring,
    idealization,
    localization,
    monomial_basis,
    monomial_quotient,
    poly_quotient_xn,
    product_embed,
    product_project,
)
from emrings.grading import (
    grading_for_spec,
    homogeneous_elements,
    localization_grading,
    trivial_grading,
)
from emrings.presets import PRESETS, build_preset
from emrings.rings import (
    find_isomorphism,
    idempotents,
    units,
    validate_ring,
    zero_divisors,
)

from oracles import (
    all_permutation_isomorphism,
    homogeneous_units,
    localization_classes,
    localization_grading_pairs,
    product_rows,
    vector_ring_rows,
)


def test_cyclic_basic(z4, z6):
    assert zero_divisors(z6).elements == (0, 2, 3, 4)
    one_ring = cyclic(1)
    assert one_ring.order == 1 and one_ring.one == 0
    validate_ring(one_ring)


def test_order_cap():
    with pytest.raises(OrderCapError):
        cyclic(100, max_order=50)
    with pytest.raises(OrderCapError):
        poly_quotient_xn(cyclic(10), 4, max_order=4096)


def test_order_one_base_hits_the_basis_cap():
    """Over Z_1 every power of the base order is 1, so only the basis length
    bounds the basis-product table: 2^13 > 4096 refuses 13 elements."""
    one = cyclic(1)
    assert poly_quotient_xn(one, 12).order == 1
    with pytest.raises(OrderCapError):
        poly_quotient_xn(one, 13)
    with pytest.raises(OrderCapError):
        group_ring(one, [13])


def test_direct_product_idempotents():
    klein = direct_product([cyclic(2), cyclic(2)])
    validate_ring(klein)
    # (1,0), (0,1), (1,1) are the nontrivial idempotents
    assert idempotents(klein).elements == (0, 1, 2, 3)
    assert klein.one == 3


def test_direct_product_single_factor(z6):
    same = direct_product([z6])
    assert np.array_equal(same.add_table, z6.add_table)
    assert np.array_equal(same.mul_table, z6.mul_table)


def test_direct_product_projections():
    prod = direct_product([cyclic(2), cyclic(3)])
    e = product_embed(prod, 1, 2)
    assert product_project(prod, 1, e) == 2
    assert product_project(prod, 0, e) == 0
    assert find_isomorphism(prod, cyclic(6)) is not None
    assert all_permutation_isomorphism(prod, cyclic(6)) is not None


def test_poly_quotient_e1(z4, e1):
    assert e1.order == 16
    validate_ring(e1)
    # Y * Y = 0
    assert e1.mul(4, 4) == 0
    assert e1.label(6) == "2 + Y"


def test_poly_quotient_z2_cubed():
    ring = poly_quotient_xn(cyclic(2), 3, var="Y")
    validate_ring(ring)
    assert ring.order == 8
    # zero divisors are exactly the multiples of Y
    assert zero_divisors(ring).elements == (0, 2, 4, 6)


def test_monomial_quotient_basis_and_order():
    ring, _ = build_preset("e2-trunc-d2")  # monomial_quotient(6, 2, [[1, 1]], 2)
    assert ring.aux["basis_monomials"] == [(0, 0), (1, 0), (0, 1), (2, 0), (0, 2)]
    assert ring.order == 6**5


@pytest.mark.parametrize("nvars, relations, degree", [
    (1, [], 4), (2, [[1, 1]], 2), (3, [[2, 0, 0], [0, 1, 1]], 3), (4, [], 2),
])
def test_monomial_basis_order(nvars, relations, degree):
    """By degree, then descending exponent vectors (earlier variables
    first), divisible monomials left out."""
    expected = sorted(
        (m for m in itertools.product(range(degree + 1), repeat=nvars)
         if sum(m) <= degree
         and not any(all(r <= e for r, e in zip(rel, m)) for rel in relations)),
        key=lambda m: (sum(m), [-e for e in m]),
    )
    assert list(monomial_basis(nvars, relations, degree)) == expected


def test_monomial_quotient_matches_poly_quotient(z4):
    mono = monomial_quotient(4, 1, [[2]], 1, varnames=["Y"])
    xn = poly_quotient_xn(z4, 2, var="Y")
    assert np.array_equal(mono.add_table, xn.add_table)
    assert np.array_equal(mono.mul_table, xn.mul_table)


def test_monomial_quotient_degree_zero_is_base():
    ring = monomial_quotient(6, 2, [], 0)
    assert ring.order == 6
    assert np.array_equal(ring.mul_table, cyclic(6).mul_table)


def test_monomial_quotient_rejects_bad_relation():
    with pytest.raises(ValueError):
        monomial_quotient(4, 2, [[1]], 1)  # wrong arity
    with pytest.raises(ValueError):
        monomial_quotient(4, 2, [[-1, 0]], 1)


def test_idealization_basics(z4):
    ring = idealization(z4)
    validate_ring(ring)
    assert ring.order == 16
    assert ring.one == 1  # (1, 0)
    # (0,m)(0,m') = (0,0) for all m, m'
    for m in range(4):
        for mp in range(4):
            assert ring.mul(m * 4, mp * 4) == 0
    assert find_isomorphism(ring, poly_quotient_xn(z4, 2)) is not None


def test_idealization_matches_square_zero_quotient_for_small_bases():
    for n in (2, 3, 4):
        base = cyclic(n)
        a = idealization(base)
        b = poly_quotient_xn(base, 2)
        c = monomial_quotient(n, 1, [[2]], 1)
        assert find_isomorphism(a, b) is not None
        assert find_isomorphism(b, c) is not None


def test_group_ring_z4_z2():
    ring = group_ring(cyclic(4), [2])
    validate_ring(ring)
    assert ring.order == 16
    # the group element g is a unit: g * g = 1
    g = 4  # coefficient 1 at the sigma slot
    assert ring.mul(g, g) == ring.one
    assert g in units(ring)


def test_group_ring_z2_z2_zero_divisor():
    ring = group_ring(cyclic(2), [2])
    one_plus_sigma = 3
    assert ring.mul(one_plus_sigma, one_plus_sigma) == 0
    assert one_plus_sigma in zero_divisors(ring)


def test_group_ring_trivial_group(z6):
    same = group_ring(z6, [])
    assert np.array_equal(same.add_table, z6.add_table)
    assert np.array_equal(same.mul_table, z6.mul_table)


def test_group_ring_rejects_bad_moduli(z4):
    with pytest.raises(ValueError):
        group_ring(z4, [0])


def _canonical_map_is_hom(base, loc):
    cm = loc.aux["canonical_map"]
    n = base.order
    phi = cm.astype(np.int64)
    assert np.array_equal(phi[base.add_table], loc.add_table[phi[:, None], phi[None, :]])
    assert np.array_equal(phi[base.mul_table], loc.mul_table[phi[:, None], phi[None, :]])


def test_localization_at_one(z6):
    g = trivial_grading(z6)
    loc = localization(z6, g, [1])
    assert loc.order == 6
    _canonical_map_is_hom(z6, loc)
    assert find_isomorphism(loc, z6) is not None


def test_localization_at_units(z6):
    g = trivial_grading(z6)
    loc = localization(z6, g, units(z6).elements)
    assert loc.order == 6
    _canonical_map_is_hom(z6, loc)


def test_localization_ht_e1(e1, e1_grading):
    # homogeneous regular elements of Z4[Y]/(Y^2) are {1, 3}
    loc = localization(e1, e1_grading, [1, 3])
    assert loc.order == 16
    _canonical_map_is_hom(e1, loc)
    assert find_isomorphism(loc, e1) is not None


def test_localization_kernel(z6):
    g = trivial_grading(z6)
    # S = {1, 3, 3*3=3} -> multiplicatively closed {1, 3}
    loc = localization(z6, g, [1, 3])
    cm = loc.aux["canonical_map"]
    kernel = {a for a in range(6) if cm[a] == loc.zero}
    expected = {a for a in range(6) if any((u * a) % 6 == 0 for u in (1, 3))}
    assert kernel == expected


def test_localization_validates_input(z6):
    g = trivial_grading(z6)
    with pytest.raises(ValueError):
        localization(z6, g, [3])  # misses 1
    with pytest.raises(ValueError):
        localization(z6, g, [1, 2])  # 2*2=4 missing
    for s, bad in (([1, 9], 9), ([1, -1], -1)):
        with pytest.raises(ValueError, match=f"id {bad} is out of range"):
            localization(z6, g, s)


def _assert_matches_class_search(ring, grading, s):
    """Tables, canonical map, representatives, labels and grading of the
    localization at ``s`` equal the former class search and pair loop."""
    s_ids = sorted(set(s))
    loc = localization(ring, grading, s)
    expected = localization_classes(ring, s_ids)
    for got, want in (
        (loc.add_table, expected["add"]),
        (loc.mul_table, expected["mul"]),
        (loc.aux["canonical_map"], expected["canonical_map"]),
    ):
        assert got.dtype == want.dtype and np.array_equal(got, want), (s, got, want)
    assert loc.aux["class_pairs"] == expected["class_pairs"], s
    assert loc.labels == expected["labels"], s
    support = {k: es.elements for k, es in localization_grading(loc).support.items()}
    assert support == localization_grading_pairs(loc, expected["pair_class"], s_ids), s
    return loc


def _power_closure(ring, x):
    """{1, x, x^2, ...}: the smallest multiplicative set holding x."""
    out, y = {ring.one}, x
    while y not in out:
        out.add(y)
        y = ring.mul(y, x)
    return sorted(out)


# suite-mid's ring in the benchmark: Z4[x,y]/(xy) truncated at degree 2
_MID_SPEC = {"kind": "monomialQuotient", "m": 4, "v": 2, "relations": [[1, 1]], "d": 2}


@pytest.mark.parametrize(
    "name", [n for n in PRESETS if n != "e2-trunc-d2"] + ["z4-xy-trunc-d2"]
)
def test_localization_matches_class_search_oracle(name):
    """The corner-ring localization gives the former class search's tables,
    canonical map, representatives and labels, and its grading is the former
    pair loop's, at {1}, at the homogeneous units and at the power closure
    of every nonzero homogeneous element (for a homogeneous idempotent e
    that is {1, e}, t4's set), on every preset of order <= 216 and on the
    order-1024 ring of _MID_SPEC."""
    if name == "z4-xy-trunc-d2":
        ring = build_spec(_MID_SPEC)
        grading = grading_for_spec(ring, "canonical")
    else:
        ring, grading = build_preset(name)
        assert ring.order <= 216
    sets = [[ring.one], homogeneous_units(grading)]
    for x in sorted(homogeneous_elements(grading).element_set - {ring.zero}):
        sets.append(_power_closure(ring, x))
    for s in sets:
        _assert_matches_class_search(ring, grading, s)


def test_localization_at_a_set_with_zero_is_the_zero_ring(z6):
    g = trivial_grading(z6)
    for s in ([0, 1], [0, 1, 3]):
        loc = _assert_matches_class_search(z6, g, s)
        assert loc.order == 1 and loc.zero == loc.one == 0


def test_localization_needs_no_order_cap():
    """|S^-1 R| <= |R|: the order-7776 preset localizes at {1} to itself."""
    ring, grading = build_preset("e2-trunc-d2")
    loc = localization(ring, grading, [ring.one])
    assert loc.add_table.dtype == ring.add_table.dtype
    assert np.array_equal(loc.add_table, ring.add_table)
    assert np.array_equal(loc.mul_table, ring.mul_table)
    assert np.array_equal(loc.aux["canonical_map"], np.arange(ring.order))


def test_build_spec_round_trip():
    doc = {"kind": "polyQuotientXn", "base": {"kind": "cyclic", "n": 4}, "n": 2, "var": "Y"}
    ring = build_spec(doc)
    assert ring.order == 16
    with pytest.raises(ValueError):
        build_spec({"kind": "nope"})


def test_build_spec_localization():
    doc = {
        "kind": "localization",
        "base": {"kind": "cyclic", "n": 6},
        "grading": "trivial",
        "s": [1, 5],
    }
    ring = build_spec(doc)
    assert ring.order == 6


def test_every_small_constructor_output_validates(z4, z6):
    rings = [
        cyclic(7),
        direct_product([cyclic(2), cyclic(3), cyclic(2)]),
        poly_quotient_xn(z6, 2),
        monomial_quotient(6, 2, [[1, 1]], 1),
        idealization(z6),
        group_ring(z4, [2]),
    ]
    for ring in rings:
        validate_ring(ring)


# -- digit-wise tables against the row-by-row oracle ----------------------------


def _struct(ring) -> list[list[int]]:
    """Basis product table of a coefficient-vector ring, restated from its
    presentation: the basis index of b_i * b_j, or -1 when it is 0."""
    prov = ring.provenance
    kind = prov["kind"]
    if kind == "idealization":
        return [[0, 1], [1, -1]]
    if kind == "polyQuotientXn":
        n = prov["n"]
        return [[i + j if i + j < n else -1 for j in range(n)] for i in range(n)]
    if kind == "groupRing":
        mods = prov["group"]
        basis = ring.aux["group_elements"]
        prod = lambda g, h: tuple((x + y) % m for x, y, m in zip(g, h, mods))
    else:
        assert kind == "monomialQuotient"
        basis = ring.aux["basis_monomials"]
        prod = lambda g, h: tuple(x + y for x, y in zip(g, h))
    index = {g: k for k, g in enumerate(basis)}
    return [[index.get(prod(g, h), -1) for h in basis] for g in basis]


def _rowwise(ring, rows=None):
    if ring.provenance["kind"] == "product":
        return product_rows(ring.aux["factors"], rows)
    return vector_ring_rows(ring.aux["base"], _struct(ring), rows)


def _assert_tables_equal(expected, actual):
    for want, got in zip(expected, actual):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


_E1 = lambda: poly_quotient_xn(cyclic(4), 2, var="Y")

_CONSTRUCTIONS = {
    **{f"Z{n}(+)Z{n}": (lambda n=n: idealization(cyclic(n))) for n in range(2, 9)},
    "Z2[Z2^2]": lambda: group_ring(cyclic(2), [2, 2]),
    "Z3[Z3]": lambda: group_ring(cyclic(3), [3]),
    "Z2[Z4]": lambda: group_ring(cyclic(2), [4]),
    "Z4[Z2]": lambda: group_ring(cyclic(4), [2]),
    "Z2[Z2^3]": lambda: group_ring(cyclic(2), [2, 2, 2]),
    "Z2[x]/(x^3)": lambda: poly_quotient_xn(cyclic(2), 3),
    "Z4[x]/(x^3)": lambda: poly_quotient_xn(cyclic(4), 3),
    "Z6[x]/(x^2)": lambda: poly_quotient_xn(cyclic(6), 2),
    "Z3[x]/(x^4)": lambda: poly_quotient_xn(cyclic(3), 4),
    "e1[X]/(X^2)": lambda: poly_quotient_xn(_E1(), 2, var="X"),
    "(Z2xZ3)(+)(Z2xZ3)": lambda: idealization(direct_product([cyclic(2), cyclic(3)])),
    "Z3[x,y]/(xy),d2": lambda: monomial_quotient(3, 2, [[1, 1]], 2),
    "Z2[x,y,z]/(xy),d2": lambda: monomial_quotient(2, 3, [[1, 1, 0]], 2),
    "Z4[x,y]/(xy),d2": lambda: monomial_quotient(4, 2, [[1, 1]], 2),
    "Z2xZ3xZ4": lambda: direct_product([cyclic(2), cyclic(3), cyclic(4)]),
    "(Z2(+)Z2)xZ3": lambda: direct_product([idealization(cyclic(2)), cyclic(3)]),
    "Z4xe1": lambda: direct_product([cyclic(4), _E1()]),
    **{
        f"preset {name}": (lambda name=name: build_preset(name)[0])
        for name, p in PRESETS.items()
        if p.spec["kind"] != "cyclic" and name != "e2-trunc-d2"
    },
}


@pytest.mark.parametrize("name", list(_CONSTRUCTIONS))
def test_tables_match_rowwise_oracle(name):
    ring = _CONSTRUCTIONS[name]()
    _assert_tables_equal(_rowwise(ring), (ring.add_table, ring.mul_table))


def test_square_zero_extension_tables_match_rowwise_oracle():
    base, _ = build_preset("z4-xn-3")
    ext = poly_quotient_xn(base, 2, var="X", max_order=4096)
    _assert_tables_equal(_rowwise(ext), (ext.add_table, ext.mul_table))


def test_e2_trunc_d2_rows_match_rowwise_oracle():
    ring, _ = build_preset("e2-trunc-d2")
    n = ring.order
    sampled = np.random.default_rng(5).choice(np.arange(2, n - 1), 64, replace=False)
    rows = [0, 1, n - 1] + sorted(int(r) for r in sampled)
    _assert_tables_equal(
        _rowwise(ring, rows), (ring.add_table[rows], ring.mul_table[rows])
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_vector_tables_match_rowwise_oracle_for_any_struct(data):
    """Arbitrary basis products, so the result need not be a ring."""
    base = cyclic(data.draw(st.integers(1, 6), label="n"))
    nb = data.draw(st.integers(1, 3), label="nb")
    struct = np.array(
        data.draw(
            st.lists(
                st.lists(st.integers(-1, nb - 1), min_size=nb, max_size=nb),
                min_size=nb,
                max_size=nb,
            ),
            label="struct",
        ),
        dtype=np.int64,
    )
    ring = _vector_ring(base, struct, [f"b{i}" for i in range(nb)], {})
    _assert_tables_equal(
        vector_ring_rows(base, struct), (ring.add_table, ring.mul_table)
    )


def test_table_build_scratch_stays_small():
    """The order-4096 square-zero extension allocates at most 8 MiB beyond
    its two 32 MiB tables, so no order^2 intermediate is ever built."""
    base, _ = build_preset("z4-xn-3")
    tracemalloc.start()
    try:
        ext = poly_quotient_xn(base, 2, var="X", max_order=4096)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tables = ext.add_table.nbytes + ext.mul_table.nbytes
    assert ext.order == 4096
    assert peak - tables <= 8 << 20
