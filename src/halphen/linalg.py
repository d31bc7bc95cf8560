"""Exact rank computations for sparse rational matrices.

`exact_rank` is the authoritative path: fraction-free elimination over
the integers (Bareiss-style cross-multiplication with gcd normalization),
done in place on one mutable row dict at a time.  Each row is cleared of
denominators once, on entry; the pivots are stored primitive, and a row
is scaled, and then stripped of its content, only when the pivot's
leading entry does not divide its own.  Pivots are taken at the smallest
column index, so callers choose the elimination order by how they number
the columns.

`modp_rank` is a pure-Python sparse elimination over GF(p).  It is only
ever a cross-check, never the source of truth.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping

SparseRow = Mapping[int, int | Fraction]

ACCELERATOR_PRIME = 2_147_483_629  # largest prime below 2^31


def _integer_row(row: SparseRow) -> dict[int, int]:
    """The row times the lcm of its denominators, as a new dict of nonzero ints."""
    if 0 not in row.values() and set(map(type, row.values())) <= {int}:
        return dict(row)
    scale = lcm(*(v.denominator for v in row.values()))
    return {k: v.numerator * (scale // v.denominator) for k, v in row.items() if v}


def exact_rank(rows: Iterable[SparseRow]) -> int:
    """Rank over the rationals of the matrix whose rows are sparse maps
    column -> coefficient (ints or Fractions)."""
    # column -> (leading entry, the other entries as (column, value) pairs)
    pivots: dict[int, tuple[int, list[tuple[int, int]]]] = {}
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
    return len(pivots)


def modp_rank(
    rows: Iterable[SparseRow], n_cols: int, p: int = ACCELERATOR_PRIME
) -> int:
    """Rank over GF(p).  Always <= the rational rank; equality holds for
    all but finitely many primes, so a large prime is a fast
    high-probability check on `exact_rank` (tests compare the two)."""
    pivots: dict[int, dict[int, int]] = {}
    for raw in rows:
        row = {}
        for k, v in raw.items():
            if not 0 <= k < n_cols:
                raise ValueError(f"column {k} outside 0..{n_cols - 1}")
            v = Fraction(v)
            r = v.numerator * pow(v.denominator, -1, p) % p
            if r:
                row[k] = r
        while row:
            c = min(row)
            pivot = pivots.get(c)
            if pivot is None:
                inv = pow(row[c], -1, p)
                pivots[c] = {k: v * inv % p for k, v in row.items()}
                break
            a = row[c]
            for k, v in pivot.items():
                nv = (row.get(k, 0) - a * v) % p
                if nv:
                    row[k] = nv
                else:
                    del row[k]
    return len(pivots)
