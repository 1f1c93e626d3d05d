import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import emrings.rings as rings_module
from emrings.construct import build_spec, cyclic, direct_product, poly_quotient_xn
from emrings.rings import (
    _TILE,
    EXHAUSTIVE_AXIOM_LIMIT,
    SAMPLED_TRIPLES,
    FiniteRing,
    Ideal,
    InternalInvariantError,
    RingAxiomError,
    annihilator,
    divisor_solutions,
    element_ids,
    ideal_generated,
    ideal_lattice,
    idempotents,
    is_principal,
    regular_elements,
    subring,
    units,
    validate_ring,
    zero_divisors,
    _additive_generators,
    _annihilator_sizes,
    _sampled_triples,
    _zero_divisor_mask,
)

from emrings.grading import component_zero_divisors, homogeneous_elements
from emrings.presets import PRESETS, build_preset

import oracles
from oracles import (
    additive_span_closure,
    all_permutation_isomorphism,
    annihilator_sizes_full,
    find_isomorphism,
    neg_table_full,
    subset_stream,
    unit_mask_full,
    validate_ring_full,
    zero_divisor_mask_full,
)


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


# suite-mid's ring in the benchmark (order 1024, two full tiles a side), and
# Z6[x]/(x^4) (order 1296, whose last tile is partial)
_TILED_RINGS = {
    "z4-xy-trunc-d2": lambda: build_spec(
        {"kind": "monomialQuotient", "m": 4, "v": 2, "relations": [[1, 1]], "d": 2}),
    "z6-xn-4": lambda: poly_quotient_xn(cyclic(6), 4),
}


def _axiom_outcome(check, add, mul, ring):
    """(axiom, witness) of the first violated axiom, or None when all hold."""
    try:
        check(FiniteRing(add, mul, ring.zero, ring.one))
    except RingAxiomError as err:
        return err.axiom, err.witness
    return None


def _table_mutations(ring):
    """(name, add, mul) copies of the ring's tables with a few entries changed:
    single entries and symmetric pairs in a diagonal tile, an off-diagonal
    tile and the last tile, a row of the addition table left without zero,
    symmetric blocks of growing size, and each table relabelled by swapping
    two elements (which keeps every law but distributivity)."""
    n = ring.order
    last = n - 1

    def swap(tname, table):  # (add, mul) with ``table`` in place of one of them
        return (table, ring.mul_table) if tname == "add" else (ring.add_table, table)

    spots = {
        "diagonal tile": (3, 7),
        "off-diagonal tile": (7, min(_TILE + 5, last)),
        "last tile": (last - 2, last),
        "last tile, off-diagonal": (5, last),
    }
    for tname in ("add", "mul"):
        for where, (i, j) in spots.items():
            for pair in (False, True):
                t = getattr(ring, f"{tname}_table").copy()
                t[i, j] = (int(t[i, j]) + 1) % n
                if pair:
                    t[j, i] = t[i, j]
                yield f"{tname} {'pair' if pair else 'entry'} in {where}", *swap(tname, t)
        for k in (4, 12):
            t = getattr(ring, f"{tname}_table").copy()
            rows = np.arange(n - 3 * k, n - 2 * k)
            cols = np.arange(n - k, n)
            t[np.ix_(rows, cols)] = (t[np.ix_(rows, cols)] + 1) % n
            t[np.ix_(cols, rows)] = t[np.ix_(rows, cols)].T
            yield f"{tname} symmetric {k}x{k} block", *swap(tname, t)
    for r in (2, last):
        add = ring.add_table.copy()
        s = int(neg_table_full(ring)[r])
        add[r, s] = add[s, r] = ring.one
        yield f"add row {r} without zero", add, ring.mul_table
    perm = np.arange(n)
    perm[[2, last]] = perm[[last, 2]]
    yield "add relabelled", perm[ring.add_table[np.ix_(perm, perm)]], ring.mul_table
    yield "mul relabelled", ring.add_table, perm[ring.mul_table[np.ix_(perm, perm)]]


@pytest.mark.parametrize("name", ["e2-trunc-d1", *_TILED_RINGS])
def test_validate_ring_matches_full_table_oracle(name):
    """Tiled and row-blocked checks report the same first violated axiom and
    the same witness as the whole-table checks on every mutated table."""
    ring = build_preset(name)[0] if name in PRESETS else _TILED_RINGS[name]()
    assert _axiom_outcome(validate_ring, ring.add_table, ring.mul_table, ring) is None
    for what, add, mul in _table_mutations(ring):
        got = _axiom_outcome(validate_ring, add, mul, ring)
        assert got == _axiom_outcome(validate_ring_full, add, mul, ring), (name, what)


# every preset whose O(N^3) laws are decided exhaustively
_EXHAUSTIVE_PRESETS = [p for p in PRESETS if p != "e2-trunc-d2"]


def _random_mutations(ring, seed, count):
    """(name, add, mul) copies of the ring's tables, each with one seeded
    random change that keeps the table symmetric: a single entry and its
    mirror, or a block of random entries on disjoint rows and columns and
    its transpose.  Rows and columns of zero and one are left alone where
    others exist, so most tables pass the O(N^2) axioms."""
    rng = np.random.default_rng(seed)
    n = ring.order
    ids = np.setdiff1d(np.arange(n), [ring.zero, ring.one]) if n > 2 else np.arange(n)
    for k in range(count):
        tname = ("add", "mul")[k % 2]
        t = getattr(ring, f"{tname}_table").copy()
        if k % 4 < 2 or len(ids) < 4:
            i, j = (int(x) for x in rng.choice(ids, size=2))
            t[i, j] = t[j, i] = (int(t[i, j]) + int(rng.integers(1, n))) % n
            what = f"{tname} entry ({i}, {j})"
        else:
            side = int(rng.integers(2, min(8, len(ids) // 2) + 1))
            perm = rng.permutation(ids)
            rows, cols = perm[:side], perm[side : 2 * side]
            t[np.ix_(rows, cols)] = rng.integers(0, n, size=(side, side))
            t[np.ix_(cols, rows)] = t[np.ix_(rows, cols)].T
            what = f"{tname} {side}x{side} block"
        yield what, *((t, ring.mul_table) if tname == "add" else (ring.add_table, t))


@pytest.mark.parametrize("name", _EXHAUSTIVE_PRESETS)
def test_validate_ring_matches_full_oracle_on_random_mutations(name):
    """The generator check plus the ordered witness search report what the
    whole-table oracle reports, axiom and witness, on tables that break the
    O(N^3) laws in many places."""
    ring = build_preset(name)[0]
    assert ring.order <= EXHAUSTIVE_AXIOM_LIMIT
    count = 48 if ring.order <= 64 else 16
    for what, add, mul in _random_mutations(ring, ring.order, count):
        got = _axiom_outcome(validate_ring, add, mul, ring)
        assert got == _axiom_outcome(validate_ring_full, add, mul, ring), (name, what)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_validate_ring_matches_full_oracle_on_generated_rings(data):
    """Generated construction documents of order at most 600, each with one
    symmetric entry changed."""
    doc, order = oracles.construction_document(data.draw, EXHAUSTIVE_AXIOM_LIMIT)
    ring = build_spec(doc)
    assert _axiom_outcome(validate_ring, ring.add_table, ring.mul_table, ring) is None
    tname = data.draw(st.sampled_from(["add", "mul"]))
    i, j, v = (data.draw(st.integers(0, order - 1)) for _ in range(3))
    t = getattr(ring, f"{tname}_table").copy()
    t[i, j] = t[j, i] = v
    add, mul = (t, ring.mul_table) if tname == "add" else (ring.add_table, t)
    assert _axiom_outcome(validate_ring, add, mul, ring) == _axiom_outcome(
        validate_ring_full, add, mul, ring)


@pytest.mark.parametrize("name", _EXHAUSTIVE_PRESETS)
def test_additive_generators_reach_every_id_by_left_normed_sums(name):
    ring = build_preset(name)[0]
    gens = _additive_generators(ring)
    sums, grown = {ring.zero}, True
    while grown:
        more = sums | {ring.add(x, a) for x in sums for a in gens}
        sums, grown = more, more != sums
    assert sums == set(range(ring.order))
    assert len(gens) <= math.log2(ring.order) + 1


def test_valid_tables_never_reach_the_ordered_check(monkeypatch):
    def ordered_check(ring):
        raise AssertionError(f"ordered check reached on {ring!r}")

    monkeypatch.setattr(rings_module, "_raise_first_cubic_violation", ordered_check)
    for name in _EXHAUSTIVE_PRESETS:
        ring = build_preset(name)[0]
        copy = FiniteRing(ring.add_table, ring.mul_table, ring.zero, ring.one)
        assert validate_ring(copy) is copy


def test_generator_check_disagreeing_with_ordered_check_is_internal(monkeypatch, z4):
    monkeypatch.setattr(rings_module, "_laws_hold", lambda ring, gens: False)
    with pytest.raises(InternalInvariantError):
        validate_ring(FiniteRing(z4.add_table, z4.mul_table, z4.zero, z4.one))


@pytest.mark.parametrize("n", [601, 1296, 7776])
def test_sampled_triples_are_one_seeded_draw(n):
    """The blocks concatenate to the single draw of SAMPLED_TRIPLES triples
    that fixes which triples (and so which witnesses) the sample checks."""
    blocks = [abc.T for abc in _sampled_triples(n)]
    draw = np.random.default_rng(n).integers(0, n, size=(SAMPLED_TRIPLES, 3))
    assert np.array_equal(np.concatenate(blocks), draw)


@pytest.mark.parametrize(
    "name", [p for p in PRESETS if p != "e2-trunc-d2"] + list(_TILED_RINGS))
def test_element_masks_match_full_table_oracle(name):
    """Zero divisors, units and annihilator sizes, read in row blocks, equal
    their whole-table forms."""
    ring = build_preset(name)[0] if name in PRESETS else _TILED_RINGS[name]()
    assert np.array_equal(_zero_divisor_mask(ring), zero_divisor_mask_full(ring))
    assert units(ring).tolist() == np.flatnonzero(unit_mask_full(ring)).tolist()
    assert np.array_equal(_annihilator_sizes(ring), annihilator_sizes_full(ring))


def test_full_table_checks_make_no_quadratic_temporary():
    """validate_ring and zero_divisors on an order-2048 ring stay below
    order^2 / 4 traced bytes; one boolean over the table is order^2 bytes."""
    base = validate_ring(cyclic(2048))  # imports numpy.random outside the trace
    for check in (validate_ring, zero_divisors):
        ring = FiniteRing(base.add_table, base.mul_table, base.zero, base.one)
        tracemalloc.start()
        try:
            check(ring)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < base.order**2 // 4, (check.__name__, peak)


def test_order_one_zero_ring_is_valid():
    ring = validate_ring(cyclic(1))
    assert ring.order == 1
    assert ring.zero == ring.one == 0
    assert zero_divisors(ring).tolist() == []
    assert units(ring).tolist() == [0]


def test_zero_divisors_examples(z4, z6):
    assert zero_divisors(z4).tolist() == [0, 2]
    assert zero_divisors(validate_ring(cyclic(5))).tolist() == [0]
    assert zero_divisors(z6).tolist() == [0, 2, 3, 4]


def test_units_idempotents_regulars(z4, z6):
    assert units(z4).tolist() == [1, 3]
    # E(Z6): squares are 0,1,4,3,4,1 -> fixed points 0,1,3,4
    assert idempotents(z6).tolist() == [0, 1, 3, 4]
    z5 = validate_ring(cyclic(5))
    assert regular_elements(z5).tolist() == [1, 2, 3, 4]


def test_annihilator_examples(z4, z6):
    assert annihilator(z4, [2]).elements.tolist() == [0, 2]
    assert annihilator(z4, [1]).elements.tolist() == [0]
    # Ann(2) = {0,3}, Ann(3) = {0,2,4}; the intersection is trivial
    assert annihilator(z6, [2, 3]).elements.tolist() == [0]
    assert annihilator(z6, []).elements.tolist() == list(range(6))


def test_divisor_solutions_examples(z4, z6):
    assert divisor_solutions(z4, 2, 2).tolist() == [1, 3]
    assert divisor_solutions(z4, 2, 1).tolist() == []
    assert divisor_solutions(z6, 3, 0).tolist() == [0, 2, 4]
    assert np.array_equal(divisor_solutions(z6, 3, 0), annihilator(z6, [3]).elements)


def test_ideal_generated_examples(z4, z6):
    assert ideal_generated(z4, [2]).elements.tolist() == [0, 2]
    assert ideal_generated(z4, []).elements.tolist() == [0]
    # 3 - 2 = 1, so <2,3> is everything
    assert ideal_generated(z6, [2, 3]).elements.tolist() == list(range(6))


def test_is_principal_examples(z4, z6, e1):
    assert is_principal(z4, ideal_generated(z4, [2])) == 2
    assert is_principal(z6, ideal_generated(z6, [2, 3])) == 1
    # {0, 2Y} inside Z4[Y]/(Y^2): 2Y has id 8
    ideal = ideal_generated(e1, [8])
    assert ideal.elements.tolist() == [0, 8]
    assert is_principal(e1, ideal) == 8
    # {0, 2, 3} is no ideal, though |2*Z6| = 3: no p generates it
    assert is_principal(z6, Ideal(z6, element_ids(z6, (0, 2, 3)))) is None


def test_is_principal_matches_generated_ideals(z6, e1):
    # every ideal on <= 2 generators against a direct search for the
    # smallest p with <p> equal to it (exercises the principal-ideal table)
    for ring in (z6, e1):
        for gens in itertools.combinations_with_replacement(range(ring.order), 2):
            ideal = ideal_generated(ring, gens)
            expected = next(
                (p for p in ideal.elements.tolist()
                 if np.array_equal(ideal_generated(ring, [p]).elements, ideal.elements)),
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
            assert np.array_equal(ideal_generated(ring, gens).elements, expected), gens


def _lattice_pools(z6, e1):
    xn, xn_grading = build_preset("z4-xn-3")
    prod, _ = build_preset("prod-e1sm")
    # Z2[x,y,z]/(x,y,z)^2: its ideals inside (x,y,z) are the 16 subspaces,
    # so the lattice reaches three generators
    flat = build_spec({"kind": "monomialQuotient", "m": 2, "v": 3, "relations": [], "d": 1})
    return [
        (z6, range(6)),
        (z6, zero_divisors(z6)),
        (e1, zero_divisors(e1)),
        (xn, homogeneous_elements(xn_grading)),
        (prod, [z for z in zero_divisors(prod).tolist() if z != prod.zero]),
        (flat, zero_divisors(flat)),
    ]


def test_ideal_lattice_matches_subset_closures(z6, e1):
    """The enumerator yields each ideal (S), S a nonempty subset of the pool,
    exactly once, in order of its lexicographically first smallest
    generating subset, and reports that subset as its generators."""
    for ring, pool in _lattice_pools(z6, e1):
        first: dict[tuple, tuple] = {}
        for subset in subset_stream(pool):
            first.setdefault(tuple(ideal_generated(ring, subset).elements.tolist()), subset)
        lattice = list(ideal_lattice(ring, pool))
        assert [tuple(i.elements.tolist()) for i in lattice] == list(first), ring
        assert [i.generators for i in lattice] == list(first.values()), ring
        for ideal in lattice:
            ideal.validate()  # an ideal, and the closure of its generators
        two = [i.generators for i in ideal_lattice(ring, pool, max_gens=2)]
        assert two == [s for s in first.values() if len(s) <= 2], ring


def test_partition_law_units_vs_zero_divisors(z4, z6, e1):
    for ring in (z4, z6, e1):
        u = set(units(ring).tolist())
        z = set(zero_divisors(ring).tolist())
        assert u | z == set(range(ring.order))
        assert not (u & z)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_annihilator_antitone(z6, e1, data):
    ring = data.draw(st.sampled_from([z6, e1]))
    small = data.draw(st.sets(st.integers(0, ring.order - 1), max_size=3))
    extra = data.draw(st.sets(st.integers(0, ring.order - 1), max_size=3))
    big = small | extra
    ann_small = set(annihilator(ring, small).elements.tolist())
    ann_big = set(annihilator(ring, big).elements.tolist())
    assert ann_big <= ann_small


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_divisor_solutions_coset_size(z6, e1, data):
    ring = data.draw(st.sampled_from([z6, e1]))
    c = data.draw(st.integers(0, ring.order - 1))
    a = data.draw(st.integers(0, ring.order - 1))
    sols = divisor_solutions(ring, c, a)
    if len(sols):
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
    assert np.array_equal(again.elements, ideal.elements)
    ann = annihilator(ring, gens)
    ann.validate()


def test_element_ids_canonical_form(z4):
    ids = element_ids(z4, (3, 1, 3, 0))
    assert ids.tolist() == [0, 1, 3] and ids.dtype == np.int64
    assert 3 in ids and 2 not in ids
    with pytest.raises(ValueError):
        ids[0] = 2
    for bad in ([4], [-1], [2**70]):
        with pytest.raises(ValueError, match="element id out of range for order 4"):
            element_ids(z4, bad)


def _assert_id_set(ids, order):
    assert isinstance(ids, np.ndarray) and ids.dtype == np.int64 and not ids.flags.writeable
    assert (np.diff(ids) > 0).all() and (len(ids) == 0 or 0 <= ids[0] <= ids[-1] < order)


@pytest.mark.parametrize("name", [n for n in PRESETS if n != "e2-trunc-d2"])
def test_every_returned_set_is_an_ascending_read_only_id_array(name):
    """Every set of elements the library returns is one ascending,
    duplicate-free, read-only int64 array, on every preset of order <= 216;
    a lattice ideal's elements, shared with the principal-ideal cache,
    reject writes."""
    ring, grading = build_preset(name)
    assert ring.order <= 216
    sets = [zero_divisors(ring), regular_elements(ring), units(ring), idempotents(ring),
            homogeneous_elements(grading), *grading.support.values(),
            annihilator(ring, []).elements]
    for c in range(min(ring.order, 8)):
        sets += [divisor_solutions(ring, c, ring.mul(c, c)), divisor_solutions(ring, c, ring.one),
                 ideal_generated(ring, [c, ring.order - 1 - c]).elements,
                 annihilator(ring, [c]).elements]
    lattice = [ideal for _, pool in component_zero_divisors(grading)
               for ideal in ideal_lattice(ring, pool, max_gens=2)]
    sets += [ideal.elements for ideal in lattice]
    for ids in sets:
        _assert_id_set(ids, ring.order)
    for ideal in lattice:
        with pytest.raises(ValueError):
            ideal.elements[0] = ideal.elements[-1]


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
