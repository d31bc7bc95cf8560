"""Plain reference implementations that the tests compare the program with.

Each one is the direct definition, on exponent tuples where monomials
appear, with no packing and no pivot recursion: monomial divisibility,
the monomials of a degree, the Hilbert function read off a series
numerator by expanding it over (1 - t)^n, the genus of a plane curve,
the points of the region SVG's parabolas, textbook division and the
S-polynomial of every pair, over Fractions, and the echelon form of
sparse rows by monic Fraction pivots, taken in order.
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


def parabola(d: int, s: int) -> Fraction:
    """G(d, s) without its correction term, in its textbook form
    d^2/(2s) + d(s - 4)/2 + 1."""
    d = Fraction(d)
    return d * d / (2 * s) + d * (s - 4) / 2 + 1


def overlay_points(d_max: int) -> list[str]:
    """The points attribute of each parabola d^2/(2s) + d(s-4)/2 + 1,
    s = 1, 2, 3, that the region SVG draws: taken in Fractions at d = 1 +
    i(d_max - 1)/(8 d_max), i = 0..8 d_max, kept where 0 <= G <= g_max + 1,
    placed on 24-unit cells inside a 50-unit margin, and dropped if fewer
    than two points remain."""
    g_max = plane_genus(d_max)
    height = 50.0 * 2 + 24.0 * (g_max + 1)
    steps = 8 * d_max
    out = []
    for s in (1, 2, 3):
        points = []
        for i in range(steps + 1):
            d = 1 + Fraction(i * (d_max - 1), steps)
            g = d * d / (2 * s) + d * (s - 4) / 2 + 1
            if 0 <= g <= g_max + 1:
                x = 50.0 + 24.0 * (float(d) - 0.5)
                y = height - 50.0 - 24.0 * (float(g) + 0.5)
                points.append(f"{x:.2f},{y:.2f}")
        if len(points) > 1:
            out.append(" ".join(points))
    return out


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


def sequential_echelon(rows) -> dict[int, dict[int, Fraction]]:
    """The echelon form `exact_rank` builds, over Fractions: each row in
    order is reduced at its smallest column by the monic pivot there until
    that column has none, and is then stored monic, as column -> the other
    entries (the leading 1 dropped)."""
    pivots: dict[int, dict[int, Fraction]] = {}
    for raw in rows:
        row = {k: Fraction(v) for k, v in raw.items() if v}
        while row:
            c = min(row)
            a = row.pop(c)
            if c not in pivots:
                pivots[c] = {k: v / a for k, v in row.items()}
                break
            for k, v in pivots[c].items():
                nv = row.get(k, 0) - a * v
                if nv:
                    row[k] = nv
                else:
                    del row[k]
    return pivots
