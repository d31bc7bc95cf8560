"""Binomial coefficients with the C(a, b) = 0 for a < b convention, and
the plane genus C(d - 1, 2).

Every Hilbert-function formula in the package goes through `binom` so
the out-of-range convention lives in exactly one place.
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


def binomial_poly(shift: int, k: int) -> list[int]:
    """Coefficients (ascending, ints) of the polynomial m -> k! * C(m + shift, k).

    Expands (m + shift)(m + shift - 1)...(m + shift - k + 1), which is k!
    times the unique degree-k polynomial matching the binomial for large m;
    a caller divides by k! once, after summing.
    """
    coeffs = [1]
    for j in range(k):
        root = shift - j
        # multiply by (m + root)
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] += c * root
            nxt[i + 1] += c
        coeffs = nxt
    return coeffs
