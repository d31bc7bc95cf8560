"""Plain reference implementations that the tests compare the program with.

Each one is the direct definition, on exponent tuples where monomials
appear, with no packing and no pivot recursion: monomial divisibility,
the monomials of a degree, the Hilbert function read off a series
numerator by expanding it over (1 - t)^n, and the genus of a plane
curve.  Nothing in the package calls them.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Iterator

from halphen.combinat import binom
from halphen.groebner import HilbertSeriesNumerator
from halphen.poly import DEFAULT_ORDER, Monomial, MonomialOrder


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    """Does a divide b?"""
    return all(x <= y for x, y in zip(a, b))


def _iter_exponents(n_vars: int, degree: int) -> Iterator[Monomial]:
    """Exponent vectors of the given degree, biggest first in lex.  Each
    multiset of variable indices is one monomial; no recursion, so any
    number of variables works."""
    for indices in combinations_with_replacement(range(n_vars), degree):
        exponents = [0] * n_vars
        for i in indices:
            exponents[i] += 1
        yield tuple(exponents)


def enumerate_monomials(
    n_vars: int, degree: int, order: MonomialOrder = DEFAULT_ORDER
) -> list[Monomial]:
    """All monomials of the given total degree, biggest first in `order`."""
    if n_vars < 1:
        raise ValueError("need at least one variable")
    if degree < 0:
        raise ValueError("degree must be non-negative")
    return order.sorted(_iter_exponents(n_vars, degree))


def plane_genus(d: int) -> int:
    """(d-1)(d-2)/2: the only genus a degree-d plane curve can have."""
    return (d - 1) * (d - 2) // 2


def series_coefficients(num: HilbertSeriesNumerator, upto: int) -> list[int]:
    """H(m) for m = 0..upto by expanding numerator(t) / (1-t)^n."""
    n = num.n_vars
    return [
        sum(c * binom(m - j + n - 1, n - 1) for j, c in enumerate(num.coeffs))
        for m in range(upto + 1)
    ]
