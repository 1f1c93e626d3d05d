"""Polynomials over a table ring: arithmetic, content ideals, zero-divisor tests.

Zero-divisor status of a polynomial over a finite commutative ring reduces to
a single ring constant annihilating every coefficient (the classical McCoy
criterion); the reduction is validated against a brute-force polynomial
annihilator search in the test suite rather than trusted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .grading import Grading, is_graded_ideal
from .rings import FiniteRing, Ideal, annihilator_mask, ideal_generated


@dataclass(frozen=True)
class Polynomial:
    """Coefficient list over a table ring; index i holds the x^i coefficient.

    Canonical form: empty tuple for the zero polynomial, otherwise the last
    entry is nonzero.
    """

    ring: FiniteRing = field(repr=False)
    coeffs: tuple[int, ...]

    def __post_init__(self):
        cs = [int(c) for c in self.coeffs]
        while cs and cs[-1] == self.ring.zero:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int) -> int:
        return self.coeffs[i] if i < len(self.coeffs) else self.ring.zero

    def coefficient_ids(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.coeffs)))

    def __str__(self) -> str:
        return poly_str(self)


def polynomial(ring: FiniteRing, coeffs: Sequence[int]) -> Polynomial:
    return Polynomial(ring, tuple(coeffs))


def _term(label: str, i: int, var: str) -> str:
    if "+" in label or "/" in label:
        label = f"({label})"
    if i == 0:
        return label
    power = var if i == 1 else f"{var}^{i}"
    return power if label == "1" else f"{label}*{power}"


# Names for the indeterminate of a printed polynomial, and for the outer one
# of a printed bivariate polynomial, in order of preference.  The two lists
# share no name, so the outer variable always differs from the inner one.
_VARIABLES = ("x", "t", "s", "z")
_OUTER_VARIABLES = ("y", "u", "v", "w")


def _free_variable(ring: FiniteRing, names: Sequence[str]) -> str:
    """The first of ``names`` that no element label contains, else the first."""
    text = "\n".join(ring.labels or ())
    return next((v for v in names if v not in text), names[0])


def poly_var(ring: FiniteRing) -> str:
    """The indeterminate's name over ``ring``: the first of x, t, s, z that
    no element label contains (x if every one is taken), worked out once per
    ring."""
    var = ring._cache.get("poly_var")
    if var is None:
        var = ring._cache["poly_var"] = _free_variable(ring, _VARIABLES)
    return var


def poly_str(f: Polynomial, var: Optional[str] = None) -> str:
    """``f`` as a sum of terms over its indeterminate, named by default by
    :func:`poly_var`."""
    if f.is_zero:
        return "0"
    if var is None:
        var = poly_var(f.ring)
    terms = [
        _term(f.ring.label(c), i, var)
        for i, c in enumerate(f.coeffs)
        if c != f.ring.zero
    ]
    return " + ".join(terms)


def _same_ring(f: Polynomial, g: Polynomial) -> None:
    if f.ring is not g.ring:
        raise ValueError("polynomials live over different rings")


def poly_mul(f: Polynomial, g: Polynomial) -> Polynomial:
    _same_ring(f, g)
    ring = f.ring
    if f.is_zero or g.is_zero:
        return Polynomial(ring, ())
    out = [ring.zero] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        if a == ring.zero:
            continue
        for j, b in enumerate(g.coeffs):
            out[i + j] = ring.add(out[i + j], ring.mul(a, b))
    return Polynomial(ring, tuple(out))


def poly_scale(c: int, f: Polynomial) -> Polynomial:
    ring = f.ring
    if len(f.coeffs) > 64:
        row = ring.mul_table[c]
        return Polynomial(ring, tuple(int(x) for x in row[list(f.coeffs)]))
    return Polynomial(ring, tuple(ring.mul(c, a) for a in f.coeffs))


def content_ideal(f: Polynomial) -> Ideal:
    """C(f): the ideal generated by the coefficients; C(0) = {0}."""
    return ideal_generated(f.ring, set(f.coeffs))


def is_zero_divisor_poly(f: Polynomial) -> tuple[bool, Optional[int]]:
    """Is f a zero divisor of R[x]?  Returns the smallest nonzero constant
    annihilating every coefficient as the witness when so."""
    if f.is_zero:
        raise ValueError("the zero polynomial is excluded from zero-divisor queries")
    ring = f.ring
    mask = annihilator_mask(ring, set(f.coeffs))
    mask[ring.zero] = False
    hits = np.nonzero(mask)[0]
    if len(hits):
        return True, int(hits[0])
    return False, None


def content_is_graded(grading: Grading, f: Polynomial) -> bool:
    return is_graded_ideal(grading, content_ideal(f))


# -- bivariate polynomials -----------------------------------------------------


@dataclass(frozen=True)
class BivariatePolynomial:
    """f(x, y) = sum_i rows[i](x) * y^i, trimmed in y and per-row in x."""

    ring: FiniteRing = field(repr=False)
    rows: tuple[Polynomial, ...]

    def __post_init__(self):
        rs = list(self.rows)
        while rs and rs[-1].is_zero:
            rs.pop()
        object.__setattr__(self, "rows", tuple(rs))

    @property
    def is_zero(self) -> bool:
        return not self.rows

    def coefficient_ids(self) -> tuple[int, ...]:
        ids = set()
        for row in self.rows:
            ids.update(row.coeffs)
        return tuple(sorted(ids))

    def __str__(self) -> str:
        """Rows over :func:`poly_var`, times powers of the first of y, u, v,
        w that no element label contains, written like :func:`poly_str`'s
        terms; a row of two or more terms is parenthesized."""
        if self.is_zero:
            return "0"
        y = _free_variable(self.ring, _OUTER_VARIABLES)
        parts = []
        for i, row in enumerate(self.rows):
            if row.is_zero:
                continue
            body = poly_str(row)
            if i == 0:
                parts.append(body)
                continue
            if sum(c != self.ring.zero for c in row.coeffs) > 1:
                body = f"({body})"
            power = y if i == 1 else f"{y}^{i}"
            parts.append(power if body == "1" else f"{body}*{power}")
        return " + ".join(parts)


def bivariate(ring: FiniteRing, rows: Sequence[Sequence[int]]) -> BivariatePolynomial:
    return BivariatePolynomial(ring, tuple(Polynomial(ring, tuple(r)) for r in rows))


def biv_scale(c: int, f: BivariatePolynomial) -> BivariatePolynomial:
    return BivariatePolynomial(f.ring, tuple(poly_scale(c, row) for row in f.rows))


def kronecker_flatten(
    f: BivariatePolynomial,
) -> tuple[Polynomial, tuple[int, ...], tuple[int, ...]]:
    """Flatten f(x, y) to one variable by packing each y-row into its own
    x-degree window: row i starts at offset_i = sum_{j<i} (deg f_j + 1).

    Returns (g, offsets, widths); a zero row occupies one slot so the offset
    table inverts the packing exactly.  The nonzero coefficient multiset is
    preserved, hence so is the annihilator of the coefficient set.
    """
    if f.is_zero:
        raise ValueError("cannot flatten the zero polynomial")
    ring = f.ring
    offsets: list[int] = []
    widths: list[int] = []
    at = 0
    out: list[int] = []
    for row in f.rows:
        w = max(row.degree, 0) + 1
        offsets.append(at)
        widths.append(w)
        out.extend(row.coefficient(i) for i in range(w))
        at += w
    return Polynomial(ring, tuple(out)), tuple(offsets), tuple(widths)


def kronecker_unflatten(
    ring: FiniteRing,
    g: Polynomial,
    offsets: Sequence[int],
    widths: Sequence[int],
) -> BivariatePolynomial:
    rows = []
    for off, w in zip(offsets, widths):
        rows.append(Polynomial(ring, tuple(g.coefficient(off + i) for i in range(w))))
    return BivariatePolynomial(ring, tuple(rows))
