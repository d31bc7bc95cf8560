"""Exact rank computations for sparse integer matrices.

`exact_rank` is the authoritative path: fraction-free elimination over
the integers (cross-multiplication by the leading entries over their
gcd, taken with the sign of the pivot's so that the row's multiplier is
positive), done in place on one mutable row dict at a time.  Rows come
in as nonzero ints; a caller with rational entries clears them first
with `poly.primitive`.  A row is scaled only when the pivot's leading
entry does not divide its own.  Pivots are taken at the smallest column
index, so callers choose the elimination order by how they number the
columns.

A row is keyed from its leading column: a dict offset -> nonzero int
whose smallest key is 0, handed over with its lead, the column of that
key, and standing for {lead + k: v}.  So the lead alone places the row,
and a caller that reuses one row in several places hands over the same
dict with different leads.  The caller knows each lead as it builds the
row, so the kernel takes no `min` over a row it stores as it came; that
the smallest key is 0 is not checked here, since the check would cost
the very `min` the lead saves: the tests check it for every caller.  A
row that needs a reduction step finds each later leading column with
`min` over the working row.

The echelon form is a dict column -> pivot, each pivot a row in the same
form, keyed from that column, so that its leading entry is row[0].  A
row whose leading column is not yet a pivot is stored as it came, by
reference: nothing is copied.  Only a row that needs a reduction step is
expanded, once, into a fresh dict of its columns, which is reduced in
place against each pivot at the pivot's column and, if it becomes a
pivot, keyed from its leading column and divided by its content in one
copy.  No row handed over or stored is ever modified, and a caller must
not change one while the echelon form is in use.  Each step's result
is, up to a nonzero scalar, the only combination of the current row and
the pivot that is zero at the pivot's column, so the working row is at
every step a multiple of the one a per-step strip would keep, and a
stored pivot is that same primitive row up to sign.  A pivot is
therefore primitive when its row arrived primitive or needed a reduction
step; every caller here hands in primitive rows.  The working row keeps
the factors a strip after each step would cancel, so its entries grow
until it is stored or reaches zero; the stored pivots do not.

The caller also passes the echelon form to extend, empty for a fresh
matrix or the dict left by earlier rows: the pivot columns are then the
leading columns of the span of all the rows so far, and the return value
counts only the pivots the new rows added.  Each row that does not
reduce to zero adds exactly one key, at the end of the dict, so the keys
a call added are, in insertion order, the pivot columns of its nonzero
rows in row order.  The index, within this call, of each row that added
no pivot is appended to a list the caller passes as well: the rows that
reduced to zero against the pivots before them, i.e. lie in the span of
the earlier rows.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Mapping

# offset from the row's leading column -> nonzero integer entry
SparseRow = Mapping[int, int]
# column -> the pivot row keyed from that column, its leading entry at 0
Pivots = dict[int, SparseRow]


def exact_rank(
    rows: Iterable[SparseRow],
    pivots: Pivots,
    zero: list[int],
    leads: Iterable[int],
) -> int:
    """Rank over the rationals of the matrix whose row t stands for
    {leads[t] + k: v} over the items of rows[t], a sparse map whose
    smallest key is 0; that is not checked, and leads[t] is ignored on an
    empty row.  Rows and leads are each read once, so each may be a
    one-shot iterator.  Extends in place the echelon form `pivots` of
    earlier rows, {} for none, and returns by how much these rows raise
    the rank; each nonzero row adds its pivot as one new key at the end
    of `pivots`, in row order.  Appends to the list `zero` the index of
    each row that reduced to zero.

    The input rows are never modified, but a row that arrives with a
    fresh leading column is stored in `pivots` as it came, by reference;
    so a caller must not change a row after the call.  A row that needed
    a reduction step is stored as a new dict, keyed from its leading
    column and divided by its content.  So every stored pivot is
    primitive when every input row is, and equal up to sign to the pivot
    that stripping the content after every step would store."""
    before = len(pivots)
    for t, (raw, c) in enumerate(zip(rows, leads)):
        if raw:
            pivot = pivots.get(c)
            if pivot is None:
                pivots[c] = raw
                continue
            row = {k + c: v for k, v in raw.items()}
            while pivot is not None:
                a = row[c]
                b = pivot[0]
                # g takes the sign of b, so b > 0 after the division
                g = gcd(a, b) if b > 0 else -gcd(a, b)
                a, b = a // g, b // g
                # row <- b*row - a*pivot, which cancels the entry at c
                if b != 1:
                    for k in row:
                        row[k] *= b
                get = row.get
                for k, v in pivot.items():
                    k += c
                    nv = get(k, 0) - a * v
                    if nv:
                        row[k] = nv
                    else:
                        del row[k]
                if not row:
                    break
                c = min(row)
                pivot = pivots.get(c)
            if row:
                g = gcd(*row.values())
                pivots[c] = {k - c: v // g for k, v in row.items()}
                continue
        # the row is empty or reduced to zero
        zero.append(t)
    return len(pivots) - before
