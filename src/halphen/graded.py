"""Hilbert functions by explicit linear algebra on graded pieces.

dim I_m is the exact rank of the Macaulay matrix M_m, whose rows are the
monomial multiples u*f_i of degree m, written in the monomial basis of
R_m; the Hilbert function of R/I is the codimension.  This is the
definitional computation and serves as the independent oracle for the
Groebner path.  Monomials are counted by `binom`, the one place of the
convention C(a, b) = 0 for a < b.

Each generator is made primitive over the integers (cleared of
denominators, divided by its content) before any row is built, and every
row of its multiples is built straight from those integers: scaling a
row changes neither the rows' span nor the rank.  Columns are numbered
in degrevlex-descending order, so `exact_rank` pivots on the largest
monomial of each row; that order keeps the coefficients small on these
matrices.

Inside a table each monomial of degree <= m_max is one int, its exponent
vector read as digits in base m_max + 1, x_0 the most significant: the
monomial prod x_i^e_i has the code sum e_i * (m_max + 1)^(n - 1 - i).
Every exponent of such a monomial is at most m_max, a digit, so the
encoding is injective, and a product u*t of degree <= m_max is the sum of
the codes: no digit carries.  Each generator's terms are packed once, and
each degree's basis is generated as codes in degrevlex-descending order,
so a column of u*f is found by one int addition and one dict lookup.

Rows known to lie in the span of earlier rows are never built (the F5
criterion and the syzygy criterion, in the matrix form of Bardet,
Faugere and Salvy).  The generators f_1..f_s are taken by degree, then in
input order, and degree m eliminates the block of rows u*f_1, then that
of u*f_2, and so on, into one echelon form; inside a block the rows come
in increasing u, smallest monomial first.  Since each pivot is the
largest monomial of its row, after block i the pivot columns are exactly
the leading monomials of (f_1..f_i)_m.  A table computes the degrees in
increasing order, so when degree m reaches block i + 1, with
d = deg f_{i+1}, it already knows two kinds of u whose row u*f_{i+1} it
skips:

- F5: u is a leading monomial of (f_1..f_i)_{m-d}.  Write u = LM(g) with
  g in (f_1..f_i)_{m-d} monic; then

      u*f_{i+1} = g*f_{i+1} - sum over v < u of c_v * v*f_{i+1}.

- Syzygy: u = w*z, where the row z*f_{i+1} of a lower degree reduced to
  zero.  It was reduced against blocks 1..i and the rows before it in
  its own block, the smaller v, so z*f_{i+1} = r + sum over v < z of
  c_v * v*f_{i+1} with r in (f_1..f_i); times w, and as wv < wz,

      u*f_{i+1} = w*r + sum over v < z of c_v * (wv)*f_{i+1}.

Either way u*f_{i+1} is an element of (f_1..f_i)_m, whose span the built
rows of blocks 1..i already give, plus rows v'*f_{i+1} with v' < u.
Skipping changes no span: by induction on i, and within block i + 1 on
u in increasing order, each such row is built or lies in the span of
the built rows.  The increasing order is what lets the two rules share
one induction.  Were the rows taken largest first, a zero row would
give z*f_{i+1} in terms of rows v > z, while F5 still points at v < u;
the two skips can then each lean on the other, and some tables come out
too large.  Each block carries the set of u whose row is known to be
redundant, the zero rows and the rows this rule skipped, up one degree
as {u*x_j}, which on codes is u + weight_j.  Nothing here asks for a
regular sequence or a saturated ideal, and the rank stays exact.

Caveat: the value H(m) is computed for the ideal exactly as presented.
For a non-saturated ideal the Hilbert *function* (though never the
Hilbert polynomial) can differ from that of its saturation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from operator import itemgetter, mul

from .linalg import Pivots, exact_rank
from .poly import IdealSpec, primitive, validate_ideal

# Largest Macaulay matrix, in rows or in columns, that a Hilbert function
# computation will build.
PIECE_BUDGET = 100_000


class RankBudgetExceeded(RuntimeError):
    pass


def binom(a: int, b: int) -> int:
    """C(a, b), zero whenever a < b or either side is negative."""
    if b < 0 or a < b:
        return 0
    return comb(a, b)


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


def _packed_bases(n: int, m_max: int) -> tuple[list[int], list[list[int]]]:
    """The codes of the monomials of degree <= m_max in n variables: the
    code of each variable, x_0 first, and the basis of each degree m =
    0..m_max as codes in degrevlex-descending order.

    In that order the monomials of degree m in x_0..x_j come first, and
    among them those in x_0..x_{j-1} precede the multiples of x_j, in the
    order of their quotients.  So degree m is x_j times each monomial of
    degree m - 1 in x_0..x_j, for j = 0..n-1 in turn; those are the first
    C(m - 1 + j, j) codes of degree m - 1."""
    base = m_max + 1
    weights = [base ** (n - 1 - i) for i in range(n)]
    bases = [[0]]
    for m in range(1, m_max + 1):
        prev = bases[-1]
        bases.append(
            [u + w for j, w in enumerate(weights) for u in prev[: binom(m - 1 + j, j)]]
        )
    return weights, bases


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
    weights, bases = _packed_bases(ideal.n_vars, m_max)
    # (degree, primitive integer terms as (code, coefficient)), by degree
    # and then input order
    gens = sorted(
        (
            (
                f.total_degree(),
                [(sum(map(mul, weights, mono)), c) for mono, c in primitive(f.terms)[1].items()],
            )
            for f in ideal.generators
        ),
        key=itemgetter(0),
    )
    # (i, k) -> the pivot columns of degree k after the blocks before
    # block i; kept only while block i of a later degree still needs it
    leading: dict[tuple[int, int], set[int]] = {}
    # i -> the codes u of the next degree whose row u*f_i is redundant
    redundant: dict[int, set[int]] = {}
    values = {}
    for m in range(m_max + 1):
        basis = bases[m]
        index = {code: j for j, code in enumerate(basis)}
        pivots: Pivots = {}
        for i, (d, terms) in enumerate(gens):
            if d <= m:
                skip = leading.pop((i, m - d), ())
                known = redundant.pop(i, set())
                block = bases[m - d]
                # smallest u first: block is degrevlex-descending
                us = [
                    block[j]
                    for j in range(len(block) - 1, -1, -1)
                    if j not in skip and block[j] not in known
                ]
                zero: list[int] = []
                exact_rank([{index[u + mono]: c for mono, c in terms} for u in us], pivots, zero)
                if m < m_max:
                    known.update(us[t] for t in zero)
                    redundant[i] = {u + w for u in known for w in weights}
            if i + 1 < len(gens) and m + gens[i + 1][0] <= m_max:
                leading[i + 1, m] = set(pivots)
        values[m] = len(basis) - len(pivots)
    return HilbertFunctionTable(values)
