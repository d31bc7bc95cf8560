"""Hilbert functions by explicit linear algebra on graded pieces.

dim I_m is the exact rank of the matrix whose rows are the monomial
multiples u*f_i of degree m, written in the monomial basis of R_m; the
Hilbert function of R/I is the codimension.  This is the definitional
computation and serves as the independent oracle for the Groebner path.

Caveat: the value H(m) is computed for the ideal exactly as presented.
For a non-saturated ideal the Hilbert *function* (though never the
Hilbert polynomial) can differ from that of its saturation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .combinat import binom
from .linalg import exact_rank
from .parsing import IdealSpec, validate_ideal
from .poly import (
    DEFAULT_ORDER,
    Monomial,
    MonomialOrder,
    enumerate_monomials,
    monomial_mul,
)

@dataclass(frozen=True)
class GradedPieceBasis:
    degree: int
    monomials: tuple[Monomial, ...]


@dataclass(frozen=True)
class HilbertFunctionTable:
    ideal: IdealSpec
    values: dict[int, int]


def graded_basis(
    n_vars: int, degree: int, order: MonomialOrder = DEFAULT_ORDER
) -> GradedPieceBasis:
    return GradedPieceBasis(degree, tuple(enumerate_monomials(n_vars, degree, order)))


def _piece_rows(ideal: IdealSpec, m: int):
    """Sparse rows of the degree-m multiples of the generators in the
    monomial basis of R_m."""
    n = ideal.n_vars
    index = {mono: j for j, mono in enumerate(graded_basis(n, m).monomials)}
    rows = []
    for f in ideal.generators:
        d = f.total_degree()
        if d > m:
            continue
        for u in enumerate_monomials(n, m - d):
            rows.append({index[monomial_mul(u, mono)]: c for mono, c in f.terms.items()})
    return rows


def ideal_piece_dimension(ideal: IdealSpec, m: int) -> int:
    """dim of the degree-m graded piece of the ideal, as an exact rank."""
    if m < 0:
        raise ValueError("degree must be non-negative")
    validate_ideal(ideal)
    return exact_rank(_piece_rows(ideal, m))


def hilbert_function(ideal: IdealSpec, m: int) -> int:
    """H(m) = dim (R/I)_m = dim R_m - dim I_m."""
    n = ideal.n_vars
    return binom(m + n - 1, n - 1) - ideal_piece_dimension(ideal, m)


def hilbert_function_table(ideal: IdealSpec, m_max: int) -> HilbertFunctionTable:
    if m_max < 0:
        raise ValueError("m_max must be non-negative")
    degrees = range(m_max + 1)
    values = [hilbert_function(ideal, m) for m in degrees]
    return HilbertFunctionTable(ideal, dict(zip(degrees, values)))
