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

A row's content is removed once, when it becomes a pivot, and only if it
needed a reduction step: a row that arrives with a fresh leading column
is stored as it came.  Each step's result is, up to a nonzero scalar,
the only combination of the current row and the pivot that is zero at
the pivot's column, so the working row is at every step a multiple of
the one a per-step strip would keep, and a stored pivot is that same
primitive row up to sign.  A pivot is therefore primitive when its row
arrived primitive or needed a reduction step; every caller here hands in
primitive rows.  The working row keeps the factors a strip after each
step would cancel, so its entries grow until it is stored or reaches
zero; the stored pivots do not.

The echelon form is a dict column -> pivot, each pivot its leading entry
and its tail: the dict the row was reduced in, with that entry popped,
kept as it is.  A stored tail is only read, and the working row, a fresh
copy of each input row, is never a stored tail.  A caller may pass in the
dict left by earlier rows and have `exact_rank` extend it: the pivot
columns are then the leading columns of the span of all the rows so far,
and the return value counts only the pivots the new rows added.  Each
row that does not reduce to zero adds exactly one key, at the end of the
dict, so the keys a call added are, in insertion order, the pivot columns
of its nonzero rows in row order.  A caller that also passes a list has
the index, within this call, of each row that added no pivot appended to
it: the rows that reduced to zero against the pivots before them, i.e.
lie in the span of the earlier rows.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Mapping

# column -> nonzero integer entry
SparseRow = Mapping[int, int]
# column -> (leading entry, the other entries as a dict column -> value)
Pivots = dict[int, tuple[int, dict[int, int]]]


def exact_rank(
    rows: Iterable[SparseRow], pivots: Pivots | None = None, zero: list[int] | None = None
) -> int:
    """Rank over the rationals of the matrix whose rows are sparse maps
    column -> nonzero int.  Given the echelon form `pivots` of earlier
    rows, extends it in place and returns by how much these rows raise
    the rank; each nonzero row adds its pivot as one new key at the end
    of `pivots`, in row order.  Given a list `zero`, appends to it the
    index of each row that reduced to zero.  The input rows are left
    unmodified.

    A row that arrives with a fresh leading column is stored as it came;
    one that needed a reduction step is divided by its content once, as
    it becomes a pivot.  So every stored pivot is primitive when
    every input row is, and equal up to sign to the pivot that stripping
    the content after every step would store."""
    if pivots is None:
        pivots = {}
    before = len(pivots)
    for t, raw in enumerate(rows):
        # a copy, not the caller's dict: bench/tracing.py reads the rows
        # after the call (pinned by test_input_rows_are_not_modified)
        row = dict(raw)
        reduced = False
        while row:
            c = min(row)
            pivot = pivots.get(c)
            if pivot is None:
                if reduced:
                    g = gcd(*row.values())
                    if g != 1:
                        row = {k: v // g for k, v in row.items()}
                b = row.pop(c)
                pivots[c] = (b, row)
                break
            reduced = True
            a = row.pop(c)
            b, tail = pivot
            # g takes the sign of b, so b > 0 after the division
            g = gcd(a, b) if b > 0 else -gcd(a, b)
            a, b = a // g, b // g
            # row <- b*row - a*pivot
            if b != 1:
                for k in row:
                    row[k] *= b
            get = row.get
            for k, v in tail.items():
                nv = get(k, 0) - a * v
                if nv:
                    row[k] = nv
                else:
                    del row[k]
        else:  # the row reduced to zero
            if zero is not None:
                zero.append(t)
    return len(pivots) - before
