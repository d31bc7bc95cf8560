"""Sparse multivariate polynomials with exact rational coefficients, the
homogeneous ideals they generate, and the text a polynomial prints as.

Monomials are plain exponent tuples, one slot per ring variable.  All
coefficient arithmetic is done with `fractions.Fraction`; there is no
floating point anywhere in this module.  A `Polynomial` is kept in one
normal form, like terms summed and no zero stored, made by `_like_terms`.
An `IdealSpec` refuses a zero, inhomogeneous or foreign generator when it
is made, so neither oracle checks its input again.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence, TypeVar

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
        return sorted(monomials, key=self.key, reverse=True)


DEFAULT_ORDER = MonomialOrder.degrevlex


def primitive(coeffs: Mapping[Key, Rational]) -> dict[Key, int]:
    """The coefficients times the one rational that makes them coprime
    nonzero integers whose first entry, in the mapping's order, is
    positive; zero entries are dropped.  Some entry must be nonzero."""
    den = lcm(*(c.denominator for c in coeffs.values()))
    ints = {k: c.numerator * (den // c.denominator) for k, c in coeffs.items() if c}
    g = gcd(*ints.values())
    if next(iter(ints.values())) < 0:
        g = -g
    return ints if g == 1 else {k: c // g for k, c in ints.items()}


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def monomial_div(a: Monomial, b: Monomial) -> Monomial:
    """a / b, assuming b divides a."""
    return tuple(x - y for x, y in zip(a, b))


def monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


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
    the arithmetic and the Groebner kernel hand their terms to `_from_pairs`,
    which does not."""

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
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(m) for m in self.terms}
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

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        pairs = (
            (monomial_mul(m1, m2), c1 * c2) for m1, c1 in self.terms.items() for m2, c2 in other.terms.items()
        )
        return Polynomial._from_pairs(pairs, self.ring)

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
        return f"Polynomial({format_polynomial(self)!r}, ring={self.ring})"


def _format_monomial(mono, ring_vars) -> str:
    parts = []
    for name, e in zip(ring_vars, mono):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def format_polynomial(p: Polynomial) -> str:
    if p.is_zero:
        return "0"
    pieces = []
    for mono in DEFAULT_ORDER.sorted(p.terms):
        coeff = p.terms[mono]
        mono_str = _format_monomial(mono, p.ring)
        mag = abs(coeff)
        if not mono_str:
            body = str(mag)
        elif mag == 1:
            body = mono_str
        else:
            body = f"{mag}*{mono_str}"
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


@dataclass(frozen=True)
class IdealSpec:
    """A homogeneous ideal presented by its generators, checked by
    `validate_ideal` when it is made: both oracles take it as it is."""

    ring_vars: tuple[str, ...]
    generators: tuple[Polynomial, ...]
    label: str | None = None

    def __post_init__(self):
        validate_ideal(self)

    @property
    def n_vars(self) -> int:
        return len(self.ring_vars)


def validate_ideal(ideal: IdealSpec) -> None:
    for g in ideal.generators:
        if g.is_zero:
            raise ValueError("zero generator in ideal")
        if not g.is_homogeneous():
            raise ValueError("inhomogeneous generator in ideal")
        if g.ring != ideal.ring_vars:
            raise ValueError("generator ring does not match ideal ring")
