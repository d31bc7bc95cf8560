"""Exact certificates that Halphen's bound G(d, s) is reached.

A complete intersection of two forms of degrees s <= t is a curve of
degree d = st and arithmetic genus st(s + t - 4)/2 + 1, which is G(st, s).
It is a smooth curve on no surface of degree < s when three exact facts
hold, and then (d, G(d, s)) is realized in the regime of s:

- the series path gives P(m) = st*m + 1 - G(st, s), and G(st, s) is the
  complete-intersection genus above;
- the ideal plus the nonzero 2x2 minors of its Jacobian has zero Hilbert
  polynomial, or contains a constant: the curve is smooth, and a
  complete-intersection curve is connected, hence irreducible;
- the rank path gives H(s - 1) = C(s + 2, 3) = dim R_{s-1}: a complete
  intersection is saturated, so no form of degree < s vanishes on it.

The witnesses are the diagonal complete intersections
(x^s + y^s + z^s + w^s, x^t + 2y^t + 3z^t + 4w^t).
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import NamedTuple

from halphen.classifier import halphen_bound
from halphen.graded import hilbert_function
from halphen.groebner import hilbert_polynomial
from halphen.parsing import parse_polynomial
from halphen.poly import IdealSpec

RING = ("x", "y", "z", "w")


class Certificate(NamedTuple):
    d: int
    g: int
    genus_is_bound: bool
    smooth: bool
    on_no_surface_below_s: bool

    @property
    def certified(self) -> bool:
        return self.genus_is_bound and self.smooth and self.on_no_surface_below_s


def diagonal_ci(s: int, t: int) -> IdealSpec:
    f = parse_polynomial(f"x^{s} + y^{s} + z^{s} + w^{s}", RING)
    g = parse_polynomial(f"x^{t} + 2y^{t} + 3z^{t} + 4w^{t}", RING)
    return IdealSpec(RING, (f, g), f"ci({s},{t})")


def jacobian_minors(ideal: IdealSpec) -> IdealSpec:
    """The ideal plus the nonzero 2x2 minors of the Jacobian of its two
    generators."""
    f, g = ideal.generators
    n = ideal.n_vars
    df = [f.partial_derivative(i) for i in range(n)]
    dg = [g.partial_derivative(i) for i in range(n)]
    minors = (df[i] * dg[j] - df[j] * dg[i] for i, j in combinations(range(n), 2))
    return IdealSpec(ideal.ring_vars, ideal.generators + tuple(m for m in minors if not m.is_zero))


def _is_smooth(ideal: IdealSpec) -> bool:
    return hilbert_polynomial(jacobian_minors(ideal)).polynomial.coeffs == ()


def certify(ideal: IdealSpec, s: int, t: int) -> Certificate:
    """The three checks for a complete intersection in P^3 of forms of
    degrees s <= t, claiming (d, g) = (st, G(st, s)); certified only if all
    three hold."""
    d, g = s * t, halphen_bound(s * t, s)
    P = hilbert_polynomial(ideal).polynomial
    genus_is_bound = P.coeffs == (1 - g, d) and 2 * g == d * (s + t - 4) + 2
    no_surface = hilbert_function(ideal, s - 1) == comb(s + 2, 3)
    return Certificate(d, g, genus_is_bound, _is_smooth(ideal), no_surface)
