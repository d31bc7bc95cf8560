"""Binomial coefficients with the C(a, b) = 0 for a < b convention.

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
