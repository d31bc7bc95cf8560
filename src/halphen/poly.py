"""Sparse multivariate polynomials with exact rational coefficients.

Monomials are plain exponent tuples, one slot per ring variable.  All
coefficient arithmetic is done with `fractions.Fraction`; there is no
floating point anywhere in this module.  A `Polynomial` is kept in one
normal form, like terms summed and no zero stored, made by `_like_terms`.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import chain, combinations_with_replacement
from math import gcd, lcm
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

Monomial = tuple[int, ...]
Key = TypeVar("Key")

Rational = int | Fraction


class MonomialOrder(Enum):
    """Graded monomial orders (plus plain lex).  Bigger key = bigger monomial."""

    degrevlex = "degrevlex"
    deglex = "deglex"
    lex = "lex"

    def key(self, exponents: Monomial):
        if self is MonomialOrder.lex:
            return tuple(exponents)
        if self is MonomialOrder.deglex:
            return (sum(exponents), tuple(exponents))
        # degrevlex: higher degree first, ties broken by the *smallest*
        # exponent on the last variable where they differ.
        return (sum(exponents), tuple(-e for e in reversed(exponents)))

    def sorted(self, monomials: Iterable[Monomial]) -> list[Monomial]:
        """The monomials, biggest first."""
        return sorted(monomials, key=descending_key(self))


DEFAULT_ORDER = MonomialOrder.degrevlex


def descending_key(order: MonomialOrder) -> Callable[[Monomial], tuple[int, ...]]:
    """A flat key under which ascending sort order is descending `order`:
    smaller key = bigger monomial.  Suited to a min-heap of monomials."""
    if order is MonomialOrder.lex:
        return lambda m: tuple([-e for e in m])
    if order is MonomialOrder.deglex:
        return lambda m: (-sum(m), *[-e for e in m])
    return lambda m: (-sum(m), *m[::-1])


def primitive(coeffs: Mapping[Key, Rational]) -> tuple[Fraction, dict[Key, int]]:
    """(s, ints) with coeffs = s * ints: the ints are coprime nonzero
    integers, zero entries are dropped, and the first entry, in the
    mapping's order, is positive.  Some entry must be nonzero."""
    den = lcm(*(c.denominator for c in coeffs.values()))
    ints = {k: c.numerator * (den // c.denominator) for k, c in coeffs.items() if c}
    g = gcd(*ints.values())
    if next(iter(ints.values())) < 0:
        g = -g
    return Fraction(g, den), ints if g == 1 else {k: c // g for k, c in ints.items()}


def monomial_degree(m: Monomial) -> int:
    return sum(m)


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    """Does a divide b?"""
    return all(x <= y for x, y in zip(a, b))


def monomial_div(a: Monomial, b: Monomial) -> Monomial:
    """a / b, assuming b divides a."""
    return tuple(x - y for x, y in zip(a, b))


def monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


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


def _like_terms(pairs: Iterable[tuple[Monomial, Fraction]]) -> dict[Monomial, Fraction]:
    """Sum the coefficients of equal monomials and drop zeros.  A monomial keeps
    the place where it first appears, or reappears after cancelling."""
    terms: dict[Monomial, Fraction] = {}
    for mono, c in pairs:
        if mono in terms:
            c += terms[mono]
        if c:
            terms[mono] = c
        else:
            terms.pop(mono, None)
    return terms


class RingMismatch(ValueError):
    pass


class Polynomial:
    """Sparse polynomial in the normal form of `_like_terms`: `terms` maps each
    monomial to a nonzero `Fraction`.  The constructor checks outside input;
    the arithmetic hands its terms to `_from_pairs`, which does not."""

    __slots__ = ("terms", "ring")

    def __init__(self, terms: Mapping[Monomial, Rational], ring: Sequence[str]):
        self.ring: tuple[str, ...] = tuple(ring)
        n = len(self.ring)
        pairs = []
        for mono, coeff in terms.items():
            mono = tuple(mono)
            if len(mono) != n:
                raise ValueError(f"exponent vector {mono} does not fit ring {self.ring}")
            if any(e < 0 for e in mono):
                raise ValueError(f"negative exponent in {mono}")
            pairs.append((mono, Fraction(coeff)))
        self.terms: dict[Monomial, Fraction] = _like_terms(pairs)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, ring: Sequence[str]) -> "Polynomial":
        return cls({}, ring)

    @classmethod
    def constant(cls, c: Rational, ring: Sequence[str]) -> "Polynomial":
        return cls({(0,) * len(ring): c}, ring)

    @classmethod
    def variable(cls, index: int, ring: Sequence[str]) -> "Polynomial":
        n = len(ring)
        if not 0 <= index < n:
            raise IndexError(f"variable index {index} out of range")
        exps = [0] * n
        exps[index] = 1
        return cls({tuple(exps): 1}, ring)

    @classmethod
    def monomial(cls, exponents: Monomial, ring: Sequence[str], coeff: Rational = 1) -> "Polynomial":
        return cls({tuple(exponents): coeff}, ring)

    @classmethod
    def _from_pairs(cls, pairs: Iterable[tuple[Monomial, Fraction]], ring: tuple[str, ...]) -> "Polynomial":
        """The sum of the terms, whose monomials already fit `ring`."""
        out = cls.__new__(cls)
        out.ring = ring
        out.terms = _like_terms(pairs)
        return out

    # -- structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int | None:
        """Max term degree; None for the zero polynomial."""
        if not self.terms:
            return None
        return max(monomial_degree(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {monomial_degree(m) for m in self.terms}
        return len(degrees) <= 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.ring, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _check_ring(self, other: "Polynomial") -> None:
        if self.ring != other.ring:
            raise RingMismatch(f"ring mismatch: {self.ring} vs {other.ring}")

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        return Polynomial._from_pairs(chain(self.terms.items(), other.terms.items()), self.ring)

    def __neg__(self) -> "Polynomial":
        return self.scale(-1)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        pairs = (
            (monomial_mul(m1, m2), c1 * c2) for m1, c1 in self.terms.items() for m2, c2 in other.terms.items()
        )
        return Polynomial._from_pairs(pairs, self.ring)

    __rmul__ = __mul__  # only reached with a scalar on the left

    def scale(self, c: Rational) -> "Polynomial":
        c = Fraction(c)
        return Polynomial._from_pairs(((m, coeff * c) for m, coeff in self.terms.items()), self.ring)

    # -- analysis -----------------------------------------------------

    def evaluate(self, coords: Sequence[Rational]) -> Fraction:
        if len(coords) != len(self.ring):
            raise ValueError(
                f"expected {len(self.ring)} coordinates, got {len(coords)}"
            )
        coords = [Fraction(c) for c in coords]
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            v = coeff
            for x, e in zip(coords, mono):
                if e:
                    v *= x**e
            total += v
        return total

    def partial_derivative(self, var_index: int) -> "Polynomial":
        if not 0 <= var_index < len(self.ring):
            raise IndexError(f"variable index {var_index} out of range")
        i = var_index
        pairs = ((m[:i] + (m[i] - 1,) + m[i + 1:], c * m[i]) for m, c in self.terms.items() if m[i])
        return Polynomial._from_pairs(pairs, self.ring)

    def __repr__(self) -> str:
        from .parsing import format_polynomial

        return f"Polynomial({format_polynomial(self)!r}, ring={self.ring})"
