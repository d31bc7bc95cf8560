"""Groebner bases, initial ideals, and exact Hilbert series.

Buchberger with the normal selection strategy and both classical pair
criteria, producing a reduced basis.  Pairs wait in a heap keyed by the
order key of their lcm, ties broken by (i, j).  Each basis element keeps
its leading monomial, leading coefficient and tail from the moment it
enters.  One reduction kernel serves the pair loop, the interreduction,
the final check and `normal_form`: it works in a mutable term dict with a
heap of pending monomials and primitive integer coefficients, so no
Fraction is built until the reduced basis is made monic.  The final check
reduces the S-polynomial of every pair of the reduced basis, with no
criterion skips, and raises `GroebnerCheckFailed`, so it also runs under
`python -O`.

The Hilbert series of R/I is read off the initial monomial ideal through
the standard pivot recursion with inclusion-exclusion, and the Hilbert
polynomial is extracted from the series together with an exact
stabilization threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import gcd
from operator import add, le, sub

from .combinat import binom, binomial_poly
from .parsing import IdealSpec, format_polynomial, validate_ideal
from .poly import (
    DEFAULT_ORDER,
    Monomial,
    MonomialOrder,
    Polynomial,
    RingMismatch,
    descending_key,
    monomial_degree,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    primitive,
)

PAIR_BUDGET = 200_000


class GroebnerBudgetExceeded(RuntimeError):
    pass


class GroebnerCheckFailed(RuntimeError):
    """The final check found an S-polynomial of the result that does not
    reduce to zero: the returned basis would not be a Groebner basis."""


class EmptyProjectiveSet(ValueError):
    """The ideal contains a nonzero constant; V(I) is empty and P = 0."""


@dataclass(frozen=True)
class GroebnerBasis:
    order: MonomialOrder
    elements: tuple[Polynomial, ...]


@dataclass(frozen=True)
class MonomialIdeal:
    minimal_generators: tuple[Monomial, ...]


@dataclass(frozen=True)
class HilbertSeriesNumerator:
    """Integer coefficients h_j with series(R/I) = sum h_j t^j / (1-t)^n."""

    coeffs: tuple[int, ...]
    n_vars: int


@dataclass(frozen=True)
class HilbertPolynomial:
    """Rational coefficients of P(m), ascending, trailing zeros stripped."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        coeffs = tuple(Fraction(c) for c in self.coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)

    def degree(self) -> int | None:
        return len(self.coeffs) - 1 if self.coeffs else None

    def leading_coefficient(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __call__(self, m) -> Fraction:
        total = Fraction(0)
        for c in reversed(self.coeffs):
            total = total * m + c
        return total

    def __str__(self) -> str:
        return format_polynomial(Polynomial({(k,): c for k, c in enumerate(self.coeffs)}, ("m",)))


@dataclass(frozen=True)
class HilbertData:
    """Hilbert polynomial plus the degree from which H(m) = P(m)."""

    polynomial: HilbertPolynomial
    stabilizes_from: int
    numerator: HilbertSeriesNumerator


# -- polynomial reduction -------------------------------------------------
#
# Inside the algorithm a polynomial is a dict monomial -> int.  Basis
# elements and remainders keep their keys biggest first, so `poly.primitive`
# makes an element coprime with a positive leading coefficient.  Fractions
# appear only where a polynomial enters the kernel or a result leaves it.


class _Element:
    """A basis element with its leading data split off once, on entry."""

    __slots__ = ("lm", "lc", "tail")

    def __init__(self, terms: dict[Monomial, int]):
        (self.lm, self.lc), *self.tail = terms.items()


def _integer_terms(p: Polynomial, order: MonomialOrder):
    """(s, terms): p = s * terms with the terms primitive, biggest first."""
    return primitive({m: p.terms[m] for m in order.sorted(p.terms)})


def _reduce(work: dict, divisors: list[_Element], order: MonomialOrder):
    """Fully reduce `work` (monomial -> int, consumed) by the divisors.

    Terms are taken biggest first from a heap; each is cancelled by the
    first divisor whose leading monomial divides it, after scaling the
    whole of `work` by the integer that keeps the arithmetic fraction-free.
    Returns (remainder, s): the remainder term dict, biggest first, and the
    product s of those scalings, so that s * work - remainder lies in the
    ideal of the divisors.
    """
    heap_key = descending_key(order)
    heap = [(heap_key(m), m) for m in work]
    heapify(heap)
    remainder = []
    scale = 1
    while heap:
        m = heappop(heap)[1]
        c = work[m]
        # a cancelled term stays as 0 until popped, so no monomial is pushed twice
        if not c:
            del work[m]
            continue
        for g in divisors:
            if all(map(le, g.lm, m)):
                break
        else:
            remainder.append(m)
            continue
        del work[m]
        a = g.lc
        d = gcd(a, c)
        if d != 1:
            a //= d
            c //= d
        if a != 1:
            scale *= a
            for n in work:
                work[n] *= a
        u = tuple(map(sub, m, g.lm))
        for t, tc in g.tail:
            n = tuple(map(add, u, t))
            v = work.get(n)
            if v is None:
                work[n] = -c * tc
                heappush(heap, (heap_key(n), n))
            else:
                work[n] = v - c * tc
    return {m: work[m] for m in remainder}, scale


def _s_terms(f: _Element, g: _Element) -> dict:
    """A nonzero integer multiple of the S-polynomial of f and g."""
    lcm_fg = monomial_lcm(f.lm, g.lm)
    uf, ug = monomial_div(lcm_fg, f.lm), monomial_div(lcm_fg, g.lm)
    d = gcd(f.lc, g.lc)
    a, b = g.lc // d, f.lc // d
    work = {monomial_mul(uf, t): a * c for t, c in f.tail}
    for t, c in g.tail:
        n = monomial_mul(ug, t)
        work[n] = work.get(n, 0) - b * c
    return work


def leading_monomial(p: Polynomial, order: MonomialOrder) -> Monomial:
    return max(p.terms, key=order.key)


def normal_form(f: Polynomial, basis, order: MonomialOrder) -> Polynomial:
    """Full remainder of f on division by the basis: every term, biggest
    first, is divided by the first element whose leading monomial divides it."""
    for g in basis:
        if g.ring != f.ring:
            raise RingMismatch(f"ring mismatch: {f.ring} vs {g.ring}")
    if f.is_zero:
        return Polynomial.zero(f.ring)
    s, terms = _integer_terms(f, order)
    divisors = [_Element(_integer_terms(g, order)[1]) for g in basis if not g.is_zero]
    remainder, scale = _reduce(terms, divisors, order)
    s /= scale
    return Polynomial({m: s * c for m, c in remainder.items()}, f.ring)


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    lmf = leading_monomial(f, order)
    lmg = leading_monomial(g, order)
    lcm = monomial_lcm(lmf, lmg)
    uf = Polynomial.monomial(monomial_div(lcm, lmf), f.ring, Fraction(1) / f.terms[lmf])
    ug = Polynomial.monomial(monomial_div(lcm, lmg), g.ring, Fraction(1) / g.terms[lmg])
    return uf * f - ug * g


def buchberger(ideal: IdealSpec, order: MonomialOrder = DEFAULT_ORDER) -> GroebnerBasis:
    validate_ideal(ideal)
    if not ideal.generators:
        raise ValueError("empty generator list")
    basis = [_Element(_integer_terms(g, order)[1]) for g in ideal.generators]
    # normal selection: a heap of (order key of the lcm, i, j, lcm)
    pairs: list = []

    def add_pairs(new: int) -> None:
        for k in range(new):
            lcm_kn = monomial_lcm(basis[k].lm, basis[new].lm)
            heappush(pairs, (order.key(lcm_kn), k, new, lcm_kn))

    for new in range(1, len(basis)):
        add_pairs(new)
    done: set[tuple[int, int]] = set()
    steps = 0
    while pairs:
        steps += 1
        if steps > PAIR_BUDGET:
            raise GroebnerBudgetExceeded("pair budget exceeded")
        _, i, j, lcm_ij = heappop(pairs)
        done.add((i, j))
        # first Buchberger criterion: coprime leading monomials
        if lcm_ij == monomial_mul(basis[i].lm, basis[j].lm):
            continue
        # chain criterion
        if any(
            k != i
            and k != j
            and monomial_divides(basis[k].lm, lcm_ij)
            and (min(i, k), max(i, k)) in done
            and (min(j, k), max(j, k)) in done
            for k in range(len(basis))
        ):
            continue
        remainder, _ = _reduce(_s_terms(basis[i], basis[j]), basis, order)
        if remainder:
            basis.append(_Element(primitive(remainder)[1]))
            add_pairs(len(basis) - 1)
    gb = _reduce_basis(basis, order, ideal.ring_vars)
    _assert_groebner(gb)
    return gb


def _reduce_basis(
    basis: list[_Element], order: MonomialOrder, ring: tuple[str, ...]
) -> GroebnerBasis:
    # minimal: keep one element per leading monomial kept by divisibility
    minimal: list[_Element] = []
    for g in sorted(basis, key=lambda g: order.key(g.lm)):
        if not any(monomial_divides(h.lm, g.lm) for h in minimal):
            minimal.append(g)
    # interreduce: each element reduced against the others, then made monic;
    # by minimality no other leading monomial divides its own
    reduced = []
    for i, g in enumerate(minimal):
        work = dict([(g.lm, g.lc), *g.tail])
        r, _ = _reduce(work, minimal[:i] + minimal[i + 1 :], order)
        lc = r[g.lm]
        reduced.append(Polynomial({m: Fraction(c, lc) for m, c in r.items()}, ring))
    return GroebnerBasis(order, tuple(reduced))


def _assert_groebner(gb: GroebnerBasis) -> None:
    """Every S-polynomial of the basis must reduce to zero: all pairs, no
    criterion skips.  Raises, so the check also runs under `python -O`."""
    basis = [_Element(_integer_terms(g, gb.order)[1]) for g in gb.elements]
    for f, g in combinations(basis, 2):
        if _reduce(_s_terms(f, g), basis, gb.order)[0]:
            raise GroebnerCheckFailed("S-polynomial did not reduce to zero")


def initial_ideal(gb: GroebnerBasis) -> MonomialIdeal:
    lms = [leading_monomial(g, gb.order) for g in gb.elements]
    return MonomialIdeal(tuple(_minimalize(lms)))


def _minimalize(monomials) -> list[Monomial]:
    minimal: list[Monomial] = []
    for m in sorted(set(monomials), key=monomial_degree):
        if not any(monomial_divides(g, m) for g in minimal):
            minimal.append(m)
    return minimal


# -- Hilbert series of a monomial ideal -----------------------------------


def _poly_add(a: list[int], b: list[int], shift: int = 0) -> list[int]:
    out = list(a) + [0] * max(0, shift + len(b) - len(a))
    for j, y in enumerate(b):
        out[shift + j] += y
    return out


def _series_numerator(gens: list[Monomial], n_vars: int) -> list[int]:
    gens = _minimalize(gens)
    if not gens:
        return [1]
    if any(monomial_degree(g) == 0 for g in gens):
        return [0]
    supports = [[i for i, e in enumerate(g) if e] for g in gens]
    if all(len(s) == 1 for s in supports):
        # pairwise coprime pure powers: product of (1 - t^deg)
        numerator = [1]
        for g in gens:
            numerator = _poly_add(numerator, [-c for c in numerator], shift=monomial_degree(g))
        return numerator
    counts = [0] * n_vars
    for s in supports:
        if len(s) > 1:
            for i in s:
                counts[i] += 1
    pivot = counts.index(max(counts))
    p = tuple(1 if i == pivot else 0 for i in range(n_vars))
    quotient = [
        tuple(e - 1 if i == pivot and e else e for i, e in enumerate(g)) for g in gens
    ]
    sum_gens = [g for g in gens if g[pivot] == 0] + [p]
    # N(I) = N(I + <x>) + t * N(I : x)
    return _poly_add(
        _series_numerator(sum_gens, n_vars), _series_numerator(quotient, n_vars), shift=1
    )


def series_numerator(mi: MonomialIdeal, n_vars: int) -> HilbertSeriesNumerator:
    coeffs = _series_numerator(list(mi.minimal_generators), n_vars)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return HilbertSeriesNumerator(tuple(coeffs), n_vars)


def series_coefficients(num: HilbertSeriesNumerator, upto: int) -> list[int]:
    """H(m) for m = 0..upto by expanding numerator(t) / (1-t)^n."""
    n = num.n_vars
    return [
        sum(c * binom(m - j + n - 1, n - 1) for j, c in enumerate(num.coeffs))
        for m in range(upto + 1)
    ]


# -- Hilbert polynomial ---------------------------------------------------


def _hilbert_polynomial_from_numerator(num: HilbertSeriesNumerator) -> HilbertData:
    n = num.n_vars
    q = list(num.coeffs)
    exponent = 0
    while any(q) and sum(q) == 0:
        # synthetic division by (1 - t)
        out = []
        carry = 0
        for c in q[:-1]:
            carry = carry + c
            out.append(carry)
        q = out
        exponent += 1
    s = n - exponent
    deg_q = len(q) - 1
    threshold = max(0, deg_q - s + 1)
    if not any(q) or s <= 0:
        return HilbertData(HilbertPolynomial(()), threshold, num)
    coeffs = [Fraction(0)] * s
    for j, c in enumerate(q):
        if not c:
            continue
        # C(m - j + s - 1, s - 1) as a polynomial in m
        for i, b in enumerate(binomial_poly(s - 1 - j, s - 1)):
            coeffs[i] += c * b
    return HilbertData(HilbertPolynomial(tuple(coeffs)), threshold, num)


def hilbert_polynomial(
    ideal: IdealSpec, order: MonomialOrder = DEFAULT_ORDER
) -> HilbertData:
    validate_ideal(ideal)
    if any(g.total_degree() == 0 for g in ideal.generators):
        raise EmptyProjectiveSet(
            "ideal contains a nonzero constant; the projective set is empty"
        )
    gb = buchberger(ideal, order)
    num = series_numerator(initial_ideal(gb), ideal.n_vars)
    return _hilbert_polynomial_from_numerator(num)
