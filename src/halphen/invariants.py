"""Dimension, degree, and genus of a projective set from its Hilbert
polynomial, plus the plane-curve closed forms."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .combinat import plane_genus
from .groebner import HilbertPolynomial


@dataclass(frozen=True)
class ProjectiveInvariants:
    dimension: int
    degree: int
    genus: int | None = None  # defined only for dimension 1


def _as_int(x: Fraction, what: str) -> int:
    if x.denominator != 1:
        raise ValueError(f"malformed Hilbert polynomial: non-integer {what} {x}")
    return int(x)


def invariants_of(P: HilbertPolynomial) -> ProjectiveInvariants:
    """dimension = deg P; for curves P = A*m + B gives degree A and
    genus 1 - B.  Genus is reported only in dimension 1."""
    dim = P.degree()
    if dim is None:
        raise ValueError("zero Hilbert polynomial: empty projective set")
    if dim == 0:
        return ProjectiveInvariants(0, _as_int(P(0), "point count"))
    if dim == 1:
        a = _as_int(P.coeffs[1], "leading coefficient")
        b = _as_int(P.coeffs[0], "constant term")
        if a < 1:
            raise ValueError(f"malformed Hilbert polynomial: curve degree {a} < 1")
        return ProjectiveInvariants(1, a, genus=1 - b)
    # beyond curves: leading coefficient times dim! is the standard degree
    return ProjectiveInvariants(dim, _as_int(P.leading_coefficient() * factorial(dim), "degree"))


def plane_hilbert_polynomial(d: int) -> HilbertPolynomial:
    """P(m) = d*m - (d-1)(d-2)/2 + 1 for a degree-d curve in the plane."""
    if d < 1:
        raise ValueError("degree must be positive")
    return HilbertPolynomial((Fraction(1 - plane_genus(d)), Fraction(d)))
