"""Binomial coefficients with the C(a, b) = 0 for a < b convention, and
the plane genus C(d - 1, 2).

The rank path counts monomials through `binom`, so the out-of-range
convention lives in exactly one place.
"""

from __future__ import annotations

from math import comb


def binom(a: int, b: int) -> int:
    """C(a, b), zero whenever a < b or either side is negative."""
    if b < 0 or a < b:
        return 0
    return comb(a, b)


def plane_genus(d: int) -> int:
    """(d-1)(d-2)/2: the only genus a degree-d plane curve can have."""
    if d < 1:
        raise ValueError("degree must be positive")
    return binom(d - 1, 2)
