"""Witness-certified deciders for EM and EM-graded finite commutative rings."""

from .analysis import (
    ContentWitness,
    PropertyReport,
    SearchCaps,
    find_annihilating_content,
    is_armendariz,
    is_armendariz_g_graded,
    is_bezout_g_graded,
    is_em_g_graded,
    is_em_ring,
    is_em_subset,
)
from .construct import (
    build_spec,
    cyclic,
    direct_product,
    group_ring,
    idealization,
    localization,
    monomial_quotient,
    poly_quotient_xn,
)
from .grading import (
    Grading,
    GradingGroup,
    canonical_grading,
    decompose,
    trivial_grading,
    validate_grading,
)
from .poly import Polynomial, polynomial
from .rings import (
    FiniteRing,
    Ideal,
    annihilator,
    divisor_solutions,
    ideal_generated,
    idempotents,
    is_principal,
    regular_elements,
    units,
    validate_ring,
    zero_divisors,
)

__version__ = "0.1.0"
