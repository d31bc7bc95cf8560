"""Projective points, membership, Jacobian rank, tangents."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import exact_rank
from .poly import IdealSpec, Polynomial, Rational, primitive


class SingularPointError(ValueError):
    """Tangent requested at a point where the gradient vanishes."""


@dataclass(frozen=True)
class ProjectivePoint:
    """Homogeneous rational coordinates, compared up to global scaling."""

    coords: tuple[Fraction, ...]

    def __init__(self, coords: Sequence[Rational]):
        coords = tuple(Fraction(c) for c in coords)
        if not coords or all(c == 0 for c in coords):
            raise ValueError("projective point needs a nonzero coordinate")
        object.__setattr__(self, "coords", coords)

    def normalized(self) -> tuple[Fraction, ...]:
        pivot = next(c for c in self.coords if c != 0)
        return tuple(c / pivot for c in self.coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProjectivePoint):
            return NotImplemented
        return self.normalized() == other.normalized()

    def __hash__(self) -> int:
        return hash(self.normalized())

    def __str__(self) -> str:
        return "[" + ":".join(map(str, self.coords)) + "]"


@dataclass(frozen=True)
class TangentLine:
    """The linear form cutting out the tangent line at a smooth point."""

    coefficients: tuple[Fraction, ...]

    def __post_init__(self):
        if all(c == 0 for c in self.coefficients):
            raise ValueError("tangent line needs a nonzero coefficient")


def _check_dims(ideal: IdealSpec, p: ProjectivePoint) -> None:
    if len(p.coords) != ideal.n_vars:
        raise ValueError(
            f"point has {len(p.coords)} coordinates, ring has {ideal.n_vars} variables"
        )


def on_variety(ideal: IdealSpec, p: ProjectivePoint) -> bool:
    _check_dims(ideal, p)
    return all(g.evaluate(p.coords) == 0 for g in ideal.generators)


def jacobian_rank_at(ideal: IdealSpec, p: ProjectivePoint) -> int:
    """Rank of the Jacobian of the generators at p, each nonzero row
    cleared to primitive integers and keyed from its first nonzero index,
    its lead, for `exact_rank`."""
    if not on_variety(ideal, p):
        raise ValueError("the point is not on the variety")
    gradients = (
        {j: v for j in range(ideal.n_vars) if (v := g.partial_derivative(j).evaluate(p.coords))}
        for g in ideal.generators
    )
    rows = [primitive(row) for row in gradients if row]
    leads = [min(row) for row in rows]
    rows = [{j - c: v for j, v in row.items()} for row, c in zip(rows, leads)]
    return exact_rank(rows, {}, [], leads)


def tangent_line(f: Polynomial, p: ProjectivePoint) -> TangentLine:
    """Tangent to the plane curve V(f) at p: the linear form with the
    gradient as coefficients (for homogeneous f the Euler relation makes
    the affine offset vanish)."""
    if len(f.ring) != 3:
        raise ValueError("tangent_line expects a polynomial in three variables")
    if not f.is_homogeneous():
        raise ValueError("tangent_line expects a homogeneous polynomial")
    if len(p.coords) != 3:
        raise ValueError("tangent_line expects a point in the plane")
    if f.evaluate(p.coords) != 0:
        raise ValueError("the point is not on the curve")
    gradient = [f.partial_derivative(j).evaluate(p.coords) for j in range(3)]
    if all(g == 0 for g in gradient):
        raise SingularPointError("the gradient vanishes at the point: tangent line undefined")
    pivot = next(g for g in gradient if g != 0)
    return TangentLine(tuple(g / pivot for g in gradient))


def tangent_line_polynomial(t: TangentLine, ring: Sequence[str]) -> Polynomial:
    n = len(t.coefficients)
    return Polynomial({tuple(int(i == j) for i in range(n)): c for j, c in enumerate(t.coefficients)}, ring)
