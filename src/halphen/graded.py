"""Hilbert functions by explicit linear algebra on graded pieces.

dim I_m is the exact rank of the Macaulay matrix M_m, whose rows are the
monomial multiples u*f_i of degree m, written in the monomial basis of
R_m; the Hilbert function of R/I is the codimension.  This is the
definitional computation and serves as the independent oracle for the
Groebner path.

Each generator is made primitive over the integers (cleared of
denominators, divided by its content) before any row is built, and every
row of its multiples is built straight from those integers: scaling a
row changes neither the rows' span nor the rank.  Columns are numbered
in degrevlex-descending order, so `exact_rank` pivots on the largest
monomial of each row; that order keeps the coefficients small on these
matrices.  A table enumerates the monomial basis of each degree once.

Rows known to lie in the span of earlier rows are never built (the F5
criterion, in the matrix form of Bardet, Faugere and Salvy).  The
generators f_1..f_s are taken by degree, then in input order, and degree
m eliminates the block of rows u*f_1, then that of u*f_2, and so on, into
one echelon form.  Since each pivot is the largest monomial of its row,
after block i the pivot columns are exactly the leading monomials of
(f_1..f_i)_m.  A table computes the degrees in increasing order, so when
degree m reaches block i + 1, with d = deg f_{i+1}, it already knows the
leading monomials of (f_1..f_i)_{m-d}; the row u*f_{i+1} is skipped for
each u among them.  Skipping changes no span: by induction on i, and
within block i + 1 on u in the monomial order.  Write u = LM(g) with g
in (f_1..f_i)_{m-d} monic; then

    u*f_{i+1} = g*f_{i+1} - sum over v < u of c_v * v*f_{i+1}.

g*f_{i+1} is a combination of multiples w*f_j with j <= i, the rows of
blocks 1..i, whose span the built rows already give; each v*f_{i+1} is
a built row or, by induction, in the span of the built rows.  Nothing
here asks for a regular sequence or a saturated ideal, and the rank
stays exact.

Caveat: the value H(m) is computed for the ideal exactly as presented.
For a non-saturated ideal the Hilbert *function* (though never the
Hilbert polynomial) can differ from that of its saturation.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, itemgetter

from .combinat import binom
from .linalg import Pivots, exact_rank
from .parsing import IdealSpec, validate_ideal
from .poly import Monomial, enumerate_monomials, primitive

# Largest Macaulay matrix, in rows or in columns, that a Hilbert function
# computation will build.
PIECE_BUDGET = 100_000


class RankBudgetExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class HilbertFunctionTable:
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


def ideal_piece_dimension(ideal: IdealSpec, m: int) -> int:
    """dim of the degree-m graded piece of the ideal, as an exact rank."""
    n = ideal.n_vars
    return binom(m + n - 1, n - 1) - hilbert_function(ideal, m)


def hilbert_function(ideal: IdealSpec, m: int) -> int:
    """H(m) = dim (R/I)_m = dim R_m - dim I_m."""
    if m < 0:
        raise ValueError("degree must be non-negative")
    return hilbert_function_table(ideal, m).values[m]


def hilbert_function_table(ideal: IdealSpec, m_max: int) -> HilbertFunctionTable:
    """H(m) for m = 0..m_max.  Raises RankBudgetExceeded before any
    elimination if the piece at m_max is larger than PIECE_BUDGET."""
    if m_max < 0:
        raise ValueError("m_max must be non-negative")
    validate_ideal(ideal)
    _check_budget(ideal, m_max)
    n = ideal.n_vars
    # (degree, primitive integer terms), by degree and then input order
    gens = sorted(
        ((f.total_degree(), primitive(f.terms)[1].items()) for f in ideal.generators),
        key=itemgetter(0),
    )
    bases: dict[int, list[Monomial]] = {}
    # (i, k) -> the pivot columns of degree k after the blocks before
    # block i; kept only while block i of a later degree still needs it
    leading: dict[tuple[int, int], set[int]] = {}
    values = {}
    for m in range(m_max + 1):
        basis = bases[m] = enumerate_monomials(n, m)
        index = {mono: j for j, mono in enumerate(basis)}
        pivots: Pivots = {}
        for i, (d, terms) in enumerate(gens):
            if d <= m:
                skip = leading.pop((i, m - d), ())
                rows = [
                    {index[tuple(map(add, u, mono))]: c for mono, c in terms}
                    for j, u in enumerate(bases[m - d])
                    if j not in skip
                ]
                exact_rank(rows, pivots)
            if i + 1 < len(gens) and m + gens[i + 1][0] <= m_max:
                leading[i + 1, m] = set(pivots)
        values[m] = len(basis) - len(pivots)
    return HilbertFunctionTable(values)
