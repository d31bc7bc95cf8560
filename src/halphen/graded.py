"""Hilbert functions by explicit linear algebra on graded pieces.

dim I_m is the exact rank of the Macaulay matrix M_m, whose rows are the
monomial multiples u*f_i of degree m, written in the monomial basis of
R_m; the Hilbert function of R/I is the codimension.  This is the
definitional computation and serves as the independent oracle for the
Groebner path.  Monomials are counted by `binom`, the one place of the
convention C(a, b) = 0 for a < b.

Each generator is made primitive over the integers (cleared of
denominators, divided by its content) before any row is built, and in the
generator's own degree its row is built straight from those integers:
scaling a row changes neither the rows' span nor the rank.  Every later
row is a stored pivot under a new lead, which `exact_rank` keeps
primitive, so every row it is handed is primitive.

Inside a table each monomial of degree <= m_max is one int, its exponent
vector read as digits in a base B > m_max, x_{n-1} the most significant:
the monomial prod x_i^e_i has the code sum e_i * B^i.  Every exponent of
such a monomial is at most m_max, a digit, so the encoding is injective,
and a product u*t of degree <= m_max is the sum of the codes: no digit
carries.  The code is the column.  Within one degree ascending codes are
degrevlex-descending: the most significant digit where two codes differ
is the last variable where the exponents differ, and the smaller
exponent there is the bigger monomial in degrevlex.  So `exact_rank`,
which pivots on the smallest column, pivots on the largest monomial of
each row; that order keeps the coefficients small on these matrices.
Each generator's terms are packed once, into one dict code minus the
smallest code -> coefficient, as `exact_rank` takes its rows.  In a
block's first degree the only u is 1, so the block has one row, f
itself, that dict handed over with the smallest code as its lead,
unless F5 skips it (below).  Every later row is a stored pivot row
handed over with a new lead, its pivot column plus weight_j (below): a
column is one int addition, which `exact_rank` makes as it reads the
row, and no row dict is built here.

B is the smallest base above m_max that is 2 mod 4, for the row dicts.
CPython hashes a small int to itself, and a dict takes its first probe
from the low bits.  The codes of one degree m are all congruent to m
modulo B - 1: with B = m_max + 1 = 9 they would share their low three
bits and crowd into an eighth of the slots.  With B = 2 mod 4, B - 1 is
odd, and B^i has the single factor 2^i, so the digit of x_i reaches the
low bits from bit i up.

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
never builds:

- F5: u is a leading monomial of (f_1..f_i)_{m-d}.  Write u = LM(g) with
  g in (f_1..f_i)_{m-d} monic; then

      u*f_{i+1} = g*f_{i+1} - sum over v < u of c_v * v*f_{i+1}.

- Syzygy: u = x_j*z, x_j the last variable of u, where the row z*f_{i+1}
  of degree m - 1 reduced to zero or was never built; this is why the
  walk below never extends a zero row.  A zero row was reduced against
  blocks 1..i and the smaller v of its own block, and by induction a row
  never built lies in their span, so z*f_{i+1} = r + sum over v < z of
  c_v * v*f_{i+1} with r in (f_1..f_i); times x_j, and as x_j*v < u,

      u*f_{i+1} = x_j*r + sum over v < z of c_v * (x_j*v)*f_{i+1}.

Either way u*f_{i+1} is an element of (f_1..f_i)_m, whose span the built
rows of blocks 1..i already give, plus rows v'*f_{i+1} with v' < u.
Skipping changes no span: by induction on i, and within block i + 1 on
u in increasing order, each such row is built or lies in the span of
the built rows.  The increasing order is what lets the two rules share
one induction.  Were the rows taken largest first, a zero row would
give z*f_{i+1} in terms of rows v > z, while F5 still points at v < u;
the two skips can then each lean on the other, and some tables come out
too large.  Nothing here asks for a regular sequence or a saturated
ideal, and the rank stays exact.

Only a block's rows in the first degree of its generator are the rows
u*f_{i+1}; each later degree reuses the previous one's elimination (the
"Simplify" of Faugere's F4, and again Bardet, Faugere and Salvy).  Write
u = x_j*v with x_j the last variable of u, the most significant digit of
its code.  The row handed over for u is x_j times the full row that
v*f_{i+1} left in the echelon form of degree m - 1: on codes, every
column plus weight_j, so the stored row is handed over as the same dict
with its pivot column plus weight_j as its lead.  That row was reduced
against the rows before it, so it is c*v*f_{i+1}, with c a nonzero
integer, plus an element of (f_1..f_i)_{m-1} plus rows v'*f_{i+1} with
v' < v; times x_j,

    c*u*f_{i+1} + x_j*r + sum over v' < v of c_v' * (x_j*v')*f_{i+1},

and x_j*v' < u, as the order is multiplicative.  This is the same shape
as the rows the two skips lean on, so by the same induction the span
after each row, and with it every pivot column, zero row and table, is
the one the rows u*f_{i+1} give.  The u come from the v the block
kept: for j = n-1 down to 0, each kept v below B^(j+1), its last
variable at most x_j, read largest first, gives u = v + weight_j.  So
each u comes once, and in descending code (smallest u first).  None is
missed: had F5 skipped v, it skips u too, as x_j*LM(g) = LM(x_j*g), and
had v's row reduced to zero or never been made, u falls under the
syzygy rule with z = v.  `column` maps each kept v to the pivot entry
(column, row) its row left, read back from the echelon form, where
`exact_rank` appends the pivots of nonzero rows in row order.

Caveat: the value H(m) is computed for the ideal exactly as presented.
For a non-saturated ideal the Hilbert *function* (though never the
Hilbert polynomial) can differ from that of its saturation.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice
from math import comb
from operator import itemgetter, mul

from . import _decimal
from .linalg import Pivots, SparseRow, exact_rank
from .poly import IdealSpec, primitive

# Largest Macaulay matrix, in rows or in columns, that a Hilbert function
# computation will build.
PIECE_BUDGET = 100_000


class RankBudgetExceeded(ValueError):
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
            f"graded piece m = {_decimal(m)} has {_decimal(rows)} rows and "
            f"{_decimal(cols)} columns; the budget is {PIECE_BUDGET}"
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
    _check_budget(ideal, m_max)
    n = ideal.n_vars
    base = m_max + 1 + (1 - m_max) % 4
    weights = [base**i for i in range(n)]
    # (degree, smallest code, primitive integer terms as a dict code minus
    # the smallest code -> coefficient), by degree and then input order
    gens = []
    for f in ideal.generators:
        terms = {sum(map(mul, weights, mono)): c for mono, c in primitive(f.terms).items()}
        lo = min(terms)
        gens.append((f.total_degree(), lo, {k - lo: c for k, c in terms.items()}))
    gens.sort(key=itemgetter(0))
    # (i, k) -> the codes of degree k that lead an element of blocks
    # 0..i-1; kept only while block i of a later degree still needs them
    leading: dict[tuple[int, int], set[int]] = {}
    # i -> u -> the pivot entry (column, row) that the row of u*f_i left
    # in the previous degree's echelon form, its keys ascending
    column: dict[int, dict[int, tuple[int, SparseRow]]] = {}
    values = {}
    for m in range(m_max + 1):
        pivots: Pivots = {}
        for i, (d, lo, terms) in enumerate(gens):
            if m + d <= m_max:
                leading[i, m] = set(pivots)
            if d <= m:
                skip = leading.pop((i, m - d))
                if d == m:
                    # one row, f_i itself, led by f_i's smallest code;
                    # none if F5 skips it
                    us = [] if 0 in skip else [0]
                    rows, leads = [terms] * len(us), [lo] * len(us)
                else:
                    # u = x_j*v for each kept v whose last variable is at
                    # most x_j, smallest u first: x_j times the stored row
                    # of v*f_i, led by its pivot column plus weight_j
                    us, rows, leads = [], [], []
                    col = column[i]
                    vs = list(col)
                    for w in reversed(weights):
                        for v in reversed(vs[: bisect_left(vs, w * base)]):
                            u = v + w
                            if u not in skip:
                                c, row = col[v]
                                us.append(u)
                                rows.append(row)
                                leads.append(c + w)
                zero: list[int] = []
                added = exact_rank(rows, pivots, zero, leads)
                if m < m_max:
                    # each nonzero row added one entry, at the end, in
                    # row order: read the last `added` back to front
                    if zero:
                        dead = set(zero)
                        us = [u for t, u in enumerate(us) if t not in dead]
                    column[i] = dict(zip(reversed(us), islice(reversed(pivots.items()), added)))
        values[m] = binom(m + n - 1, n - 1) - len(pivots)
    return HilbertFunctionTable(values)
