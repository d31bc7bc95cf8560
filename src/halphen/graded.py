"""Hilbert functions by explicit linear algebra on graded pieces.

dim I_m is the exact rank of the Macaulay matrix M_m, whose rows are the
monomial multiples u*f_i of degree m, written in the monomial basis of
R_m; the Hilbert function of R/I is the codimension.  This is the
definitional computation and serves as the independent oracle for the
Groebner path.

Each generator is made primitive over the integers (cleared of
denominators, divided by its content) before any row is built, and every
row of its multiples is built straight from those integers: scaling a
row changes neither the rows' span nor the rank.  Columns are numbered in degrevlex-descending
order, so `exact_rank` pivots on the largest monomial of each row; that
order keeps the coefficients small on these matrices.  A table
enumerates the monomial basis of each degree once and shares it across
its pieces.

Caveat: the value H(m) is computed for the ideal exactly as presented.
For a non-saturated ideal the Hilbert *function* (though never the
Hilbert polynomial) can differ from that of its saturation.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from .combinat import binom
from .linalg import exact_rank
from .parsing import IdealSpec, validate_ideal
from .poly import Monomial, enumerate_monomials, primitive

# Largest Macaulay matrix, in rows or in columns, that a Hilbert function
# computation will build.
PIECE_BUDGET = 100_000


class RankBudgetExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class HilbertFunctionTable:
    ideal: IdealSpec
    values: dict[int, int]


def _check_budget(ideal: IdealSpec, m: int) -> None:
    """Refuse a degree-m Macaulay matrix with more than PIECE_BUDGET rows
    or columns."""
    n = ideal.n_vars
    degrees = [f.total_degree() for f in ideal.generators]
    rows = sum(binom(m - d + n - 1, n - 1) for d in degrees if d <= m)
    cols = binom(m + n - 1, n - 1)
    if max(rows, cols) > PIECE_BUDGET:
        raise RankBudgetExceeded(
            f"graded piece m = {m} has {rows} rows and {cols} columns; "
            f"the budget is {PIECE_BUDGET}"
        )


def _piece_rows(ideal: IdealSpec, m: int, bases: dict[int, list[Monomial]]):
    """Sparse integer rows of the degree-m multiples of the generators in
    the monomial basis of R_m.  `bases` caches the degrevlex-descending
    basis of each degree and is filled as needed."""
    n = ideal.n_vars

    def basis(k: int) -> list[Monomial]:
        if k not in bases:
            bases[k] = enumerate_monomials(n, k)
        return bases[k]

    rows = []
    generators = [f for f in ideal.generators if f.total_degree() <= m]
    if not generators:
        return rows
    index = {mono: j for j, mono in enumerate(basis(m))}
    for f in generators:
        terms = primitive(f.terms)[1].items()
        for u in basis(m - f.total_degree()):
            rows.append({index[tuple(map(add, u, mono))]: c for mono, c in terms})
    return rows


def ideal_piece_dimension(
    ideal: IdealSpec, m: int, bases: dict[int, list[Monomial]] | None = None
) -> int:
    """dim of the degree-m graded piece of the ideal, as an exact rank.
    `bases` lets a caller share the monomial bases across degrees."""
    if m < 0:
        raise ValueError("degree must be non-negative")
    validate_ideal(ideal)
    _check_budget(ideal, m)
    return exact_rank(_piece_rows(ideal, m, {} if bases is None else bases))


def hilbert_function(ideal: IdealSpec, m: int) -> int:
    """H(m) = dim (R/I)_m = dim R_m - dim I_m."""
    n = ideal.n_vars
    return binom(m + n - 1, n - 1) - ideal_piece_dimension(ideal, m)


def hilbert_function_table(ideal: IdealSpec, m_max: int) -> HilbertFunctionTable:
    """H(m) for m = 0..m_max.  Raises RankBudgetExceeded before any
    elimination if the piece at m_max is larger than PIECE_BUDGET."""
    if m_max < 0:
        raise ValueError("m_max must be non-negative")
    validate_ideal(ideal)
    _check_budget(ideal, m_max)
    n = ideal.n_vars
    bases: dict[int, list[Monomial]] = {}
    values = {
        m: binom(m + n - 1, n - 1) - ideal_piece_dimension(ideal, m, bases)
        for m in range(m_max + 1)
    }
    return HilbertFunctionTable(ideal, values)
