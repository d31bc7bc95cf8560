"""Plain reference implementations that the tests compare the program with.

Each one is the direct definition, on exponent tuples where monomials
appear, with no packing and no pivot recursion: monomial divisibility,
the monomials of a degree, the Hilbert function read off a series
numerator by expanding it over (1 - t)^n, the genus of a plane curve,
and textbook division and the S-polynomial of every pair, over Fractions.
Nothing in the package calls them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations, combinations_with_replacement
from operator import add, le, sub
from typing import Iterator

from halphen.graded import binom
from halphen.groebner import HilbertSeriesNumerator
from halphen.poly import DEFAULT_ORDER, Monomial, MonomialOrder


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    """Does a divide b?"""
    return all(map(le, a, b))


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


Terms = dict[Monomial, Fraction]


def textbook_remainder(f: Terms, divisors: list[Terms], order: MonomialOrder) -> Terms:
    """The remainder of f on division by the divisors: the biggest term
    left is cancelled by the first divisor whose leading monomial divides
    it, or else moved to the remainder."""
    key = cache(order.key)
    leads = [max(g, key=key) for g in divisors]
    work, remainder = dict(f), {}
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        for g, lm in zip(divisors, leads):
            if monomial_divides(lm, m):
                q = Fraction(c) / g[lm]
                u = tuple(map(sub, m, lm))
                for t, tc in g.items():
                    if t != lm:
                        n = tuple(map(add, u, t))
                        v = work.pop(n, 0) - q * tc
                        if v:
                            work[n] = v
                break
        else:
            remainder[m] = c
    return remainder


def all_pairs_groebner(basis: list[Terms], order: MonomialOrder) -> bool:
    """Buchberger's criterion with no pair skipped: does the S-polynomial
    of every pair of the basis leave no remainder?"""
    for f, g in combinations(basis, 2):
        lf, lg = max(f, key=order.key), max(g, key=order.key)
        lcm = tuple(map(max, lf, lg))
        s: Terms = {}
        for p, lm, sign in [(f, lf, 1), (g, lg, -1)]:
            q = Fraction(sign) / p[lm]
            u = tuple(map(sub, lcm, lm))
            for t, c in p.items():
                n = tuple(map(add, u, t))
                s[n] = s.get(n, 0) + q * c
        if textbook_remainder({m: c for m, c in s.items() if c}, basis, order):
            return False
    return True
