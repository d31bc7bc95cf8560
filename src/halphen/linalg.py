"""Exact rank computations for sparse rational matrices.

`exact_rank` is the authoritative path: fraction-free elimination over
the integers (Bareiss-style cross-multiplication with gcd normalization),
done in place on one mutable row dict at a time.  Each row is cleared of
denominators once, on entry; the pivots are stored primitive, and a row
is scaled, and then stripped of its content, only when the pivot's
leading entry does not divide its own.  Pivots are taken at the smallest
column index, so callers choose the elimination order by how they number
the columns.

The echelon form is a dict column -> pivot row.  A caller may pass in the
dict left by earlier rows and have `exact_rank` extend it: the pivot
columns are then the leading columns of the span of all the rows so far,
and the return value counts only the pivots the new rows added.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping

SparseRow = Mapping[int, int | Fraction]
# column -> (leading entry, the other entries as (column, value) pairs)
Pivots = dict[int, tuple[int, list[tuple[int, int]]]]


def _integer_row(row: SparseRow) -> dict[int, int]:
    """The row times the lcm of its denominators, as a new dict of nonzero ints."""
    if 0 not in row.values() and set(map(type, row.values())) <= {int}:
        return dict(row)
    scale = lcm(*(v.denominator for v in row.values()))
    return {k: v.numerator * (scale // v.denominator) for k, v in row.items() if v}


def exact_rank(rows: Iterable[SparseRow], pivots: Pivots | None = None) -> int:
    """Rank over the rationals of the matrix whose rows are sparse maps
    column -> coefficient (ints or Fractions).  Given the echelon form
    `pivots` of earlier rows, extends it in place and returns by how much
    these rows raise the rank."""
    if pivots is None:
        pivots = {}
    before = len(pivots)
    for raw in rows:
        row = _integer_row(raw)
        while row:
            c = min(row)
            pivot = pivots.get(c)
            if pivot is None:
                g = gcd(*row.values())
                if g != 1:
                    row = {k: v // g for k, v in row.items()}
                b = row.pop(c)
                pivots[c] = (b, list(row.items()))
                break
            a = row.pop(c)
            b, tail = pivot
            g = gcd(a, b)
            a, b = a // g, b // g
            # row <- b*row - a*pivot, with b = -1 folded into the sign of a
            scaled = b != 1 and b != -1
            if scaled:
                for k in row:
                    row[k] *= b
            elif b == -1:
                a = -a
            get = row.get
            for k, v in tail:
                nv = get(k, 0) - a * v
                if nv:
                    row[k] = nv
                else:
                    del row[k]
            if scaled and row:
                g = gcd(*row.values())
                if g != 1:
                    for k in row:
                        row[k] //= g
    return len(pivots) - before
