"""Groebner bases, initial ideals, and exact Hilbert series.

A reduced basis, certified one of two ways.  Generators with minimal
leading monomials are interreduced and checked first; otherwise, or if
that fails, Buchberger runs with the normal selection strategy.  As each
element enters, its pairs with the earlier elements are formed by Gebauer
& Moeller's criteria M and F (for the new element, one pair per minimal
quotient of the lcm by its leading monomial, coprime pairs skipped), and
every pair formed is reduced.  They wait in a heap keyed by the degree of
their lcm and then its order key, ties broken by (i, j): under lex too the
pairs of lowest degree go first.  One reduction kernel serves the pair
loop, the interreduction, the final check and `normal_form`: a mutable
term dict with a heap of pending monomials and primitive integer
coefficients.  The generators are packed once for both ways.  The check
certifies the primitive reduced basis from scratch: the S-polynomials of
the pairs the same rule forms on that basis alone, which generate the
syzygies of its leading terms, and every input generator reduce to zero.
It raises `GroebnerCheckFailed`, so it also runs under `python -O`.
`buchberger` is the only maker of a `GroebnerBasis`, the certified basis
kept packed: `initial_ideal` reads its leading monomials from there, and
no Fraction is built until `GroebnerBasis.elements` is read.

Inside all of this a monomial is one packed int (Monagan & Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007), laid out as the comment at `_Packing` says.
Monomials are packed where a polynomial enters the kernel
(`_integer_terms`) and unpacked where a `Polynomial` leaves it; the public
functions take and return exponent tuples.  `_Packing` chooses the field
width from the input degrees; a monomial that would set a guard bit
raises `_Overflow`, and `_widening` starts the computation again on wider
fields, so the width never changes an answer.

The Hilbert series of R/I is read off the initial monomial ideal through
the pivot recursion of Bayer & Stillman, "Computation of Hilbert
functions" (JSC 14, 1992): N(I) = N(I + <x>) + t * N(I : x), for the
variable x in the most generators that are not pure powers.  It runs on
packed monomials too, in one degrevlex layout sized by the largest
generator degree.  The generators are minimalized once on entry, by a
sort and guard-bit divisibility tests; the colon I : x subtracts the unit
of x and is minimalized again, while the generators of I + <x> need no
minimalizing.  The Hilbert polynomial is extracted from the series
together with an exact stabilization threshold.  An ideal with a
constant generator gets the basis {1}, numerator 0 and P = 0; one
with no generators gets the empty basis, numerator 1 and P(m) =
C(m + n - 1, n - 1), as the rank path's tables give.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from heapq import heapify, heappop, heappush
from itertools import accumulate
from math import gcd
from operator import mul

from .poly import (
    DEFAULT_ORDER,
    IdealSpec,
    Monomial,
    MonomialOrder,
    Polynomial,
    format_polynomial,
    monomial_div,
    monomial_lcm,
    primitive,
)

PAIR_BUDGET = 200_000


class GroebnerBudgetExceeded(ValueError):
    pass


class GroebnerCheckFailed(ValueError):
    """The final check found an S-polynomial of the result, or a generator
    of the input ideal, that does not reduce to zero: the returned basis
    would not be a Groebner basis of the ideal.  A `ValueError`, because
    the CLI reports it like any other refusal; raised, not asserted, so
    the check still runs under `python -O`."""


class GroebnerBasis:
    """The reduced basis `buchberger` certified, under `packing.order`: its
    primitive packed term dicts, biggest term first, as `_reduce_basis`
    gives them, their `_Packing` and the ring.  The monic `elements` are
    made when first read and kept; `hilbert_polynomial` never reads them."""

    __slots__ = ("reduced", "packing", "ring", "order", "_elements")

    def __init__(self, reduced: list[dict[int, int]], packing: _Packing, ring: tuple[str, ...]):
        self.reduced, self.packing, self.ring = reduced, packing, ring
        self.order, self._elements = packing.order, None

    @property
    def elements(self) -> tuple[Polynomial, ...]:
        if self._elements is None:
            unpack = self.packing.unpack
            self._elements = tuple(Polynomial._from_pairs(
                [(unpack(m), Fraction(c, lc)) for m, c in terms.items()], self.ring
            ) for terms in self.reduced for lc in [next(iter(terms.values()))])
        return self._elements


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


# -- packed monomials -----------------------------------------------------
#
# Inside the kernel a monomial is one int: n exponent fields and a degree
# field, each `width` bits wide, whose top bit is a guard bit that every
# monomial of the kernel keeps clear.  A product is `+`, a quotient `-`,
# and b divides m exactly when `(m - b) & guard` is 0: a field of m below
# the same field of b borrows, and the lowest such field sets its guard.
# The fields are laid out per order so that an int key gives the order:
#
#   degrevlex  degree on top, then x_{n-1} down to x_0;
#   deglex     degree on top, then x_0 down to x_{n-1};
#   lex        x_0 on top down to x_{n-1}, then the degree.
#
# Under deglex and lex a bigger int is a bigger monomial.  Under degrevlex
# a bigger degree is bigger, and within a degree a smaller int is bigger.
# So `p ^ flip` (all bits flipped under deglex and lex, the degree field
# under degrevlex) is smaller for a bigger monomial, the key of the term
# heaps, and `p ^ ascend` is bigger for a bigger one, the key of the pair
# heap and of the minimality sort.  Each map is its own inverse.


class _Overflow(Exception):
    """A monomial of the kernel would set a guard bit: its fields are too narrow."""


class _Packing:
    """The layout of packed monomials for a ring size, an order and a bound
    on the degrees they start from."""

    __slots__ = ("order", "limit", "bits", "guard", "exponents", "flip", "ascend", "every",
                 "units", "shifts", "field", "deg_shift")

    def __init__(self, n_vars: int, order: MonomialOrder, degree: int):
        # the only place the width is chosen: room for the lcm of two
        # monomials of the given degree, twice over
        self.bits = bits = (4 * degree + 1).bit_length()
        self.limit = 1 << bits
        width = bits + 1
        if order is MonomialOrder.degrevlex:
            slots, deg_slot = list(range(n_vars)), n_vars
        elif order is MonomialOrder.deglex:
            slots, deg_slot = list(range(n_vars - 1, -1, -1)), n_vars
        else:
            slots, deg_slot = list(range(n_vars, 0, -1)), 0
        self.order = order
        self.shifts = [width * f for f in slots]
        self.deg_shift = width * deg_slot
        self.units = [(1 << s) | (1 << self.deg_shift) for s in self.shifts]
        self.field = (1 << width) - 1
        self.exponents = sum(self.field << s for s in self.shifts)
        self.guard = sum(1 << (s + bits) for s in [*self.shifts, self.deg_shift])
        self.every = every = (1 << width * (n_vars + 1)) - 1
        self.flip = self.field << self.deg_shift if order is MonomialOrder.degrevlex else every
        self.ascend = self.flip ^ every

    def pack(self, m: Monomial) -> int:
        return sum(map(mul, m, self.units))

    def unpack(self, p: int) -> Monomial:
        field = self.field
        return tuple([p >> s & field for s in self.shifts])

    def field_max(self, a: int, b: int) -> int:
        """The int whose every field, the degree's too, is the larger one."""
        # per field, t = a - b + 2^bits: its guard is set where a >= b, and
        # the mask made from those guards keeps a - b there and drops the rest
        t = (a | self.guard) - b
        g = t & self.guard
        return b + (t & (g - (g >> self.bits)))

    def lcm(self, a: int, b: int) -> int:
        m = self.field_max(a, b) & self.exponents
        # the exponents sum to at most deg a + deg b < 2^width - 1, the
        # modulus, so `%` reads the degree
        m += m % self.field << self.deg_shift
        if m & self.guard:
            raise _Overflow
        return m


def _widening(run, n_vars: int, order: MonomialOrder, degree: int):
    """run(packing) on fields for monomials of the given degree; while a
    monomial overflows them, run again from the start on wider fields."""
    while True:
        packing = _Packing(n_vars, order, degree)
        try:
            return run(packing)
        except _Overflow:
            degree = packing.limit


# -- polynomial reduction -------------------------------------------------
#
# Inside the algorithm a polynomial is a dict packed monomial -> int.
# Basis elements and remainders keep their keys biggest first, so
# `poly.primitive` makes an element coprime with a positive leading
# coefficient.


class _Element:
    """A basis element with its leading data split off once, on entry, and
    `top`, the field-by-field maximum of its tail monomials: when u * top
    sets no guard bit, no u * t does, for t in the tail."""

    __slots__ = ("lm", "lc", "tail", "top")

    def __init__(self, terms: dict[int, int], packing: _Packing):
        (self.lm, self.lc), *self.tail = terms.items()
        self.top = reduce(packing.field_max, [t for t, _ in self.tail], 0)


def _integer_terms(p: Polynomial, packing: _Packing) -> dict[int, int]:
    """The terms of p with the monomials packed, biggest first, made
    primitive: p is a rational multiple of them."""
    flip, pack = packing.flip, packing.pack
    keyed = sorted((pack(m) ^ flip, c) for m, c in p.terms.items())
    return primitive({k ^ flip: c for k, c in keyed})


def _reduce(work: dict, divisors: list[_Element], packing: _Packing):
    """Fully reduce `work` (packed monomial -> int, consumed) by the divisors.

    Terms are taken biggest first from a heap; each is cancelled by the
    first divisor whose leading monomial divides it, after scaling the
    whole of `work` by the integer that keeps the arithmetic fraction-free.
    Returns (remainder, s): the remainder term dict, biggest first, and the
    product s of those scalings, so that s * work - remainder lies in the
    ideal of the divisors.
    """
    flip, guard = packing.flip, packing.guard
    heap = [m ^ flip for m in work]
    heapify(heap)
    remainder = []
    scale = 1
    while heap:
        m = heappop(heap) ^ flip
        c = work[m]
        # a cancelled term stays as 0 until popped, so no monomial is pushed twice
        if not c:
            del work[m]
            continue
        for g in divisors:
            if not (m - g.lm) & guard:
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
        u = m - g.lm
        if (u + g.top) & guard:
            raise _Overflow
        for t, tc in g.tail:
            n = u + t
            v = work.get(n)
            if v is None:
                work[n] = -c * tc
                heappush(heap, n ^ flip)
            else:
                work[n] = v - c * tc
    return {m: work[m] for m in remainder}, scale


def _s_terms(f: _Element, g: _Element, lcm_fg: int, packing: _Packing) -> dict:
    """A nonzero integer multiple of the S-polynomial of f and g."""
    uf, ug = lcm_fg - f.lm, lcm_fg - g.lm
    if ((uf + f.top) | (ug + g.top)) & packing.guard:
        raise _Overflow
    d = gcd(f.lc, g.lc)
    a, b = g.lc // d, f.lc // d
    work = {uf + t: a * c for t, c in f.tail}
    for t, c in g.tail:
        n = ug + t
        work[n] = work.get(n, 0) - b * c
    return work


def leading_monomial(p: Polynomial, order: MonomialOrder) -> Monomial:
    return max(p.terms, key=order.key)


def _max_degree(polys) -> int:
    return max((g.total_degree() for g in polys), default=0)


def normal_form(f: Polynomial, basis, order: MonomialOrder) -> Polynomial:
    """Full remainder of f on division by the basis: every term, biggest
    first, is divided by the first element whose leading monomial divides it."""
    for g in basis:
        f._check_ring(g)
    if f.is_zero:
        return Polynomial.zero(f.ring)
    basis = [g for g in basis if not g.is_zero]

    def run(packing: _Packing) -> Polynomial:
        terms = _integer_terms(f, packing)
        unpack = packing.unpack
        m = next(iter(terms))
        s = f.terms[unpack(m)] / terms[m]  # f = s * terms
        divisors = [_Element(_integer_terms(g, packing), packing) for g in basis]
        remainder, scale = _reduce(terms, divisors, packing)
        s /= scale
        return Polynomial._from_pairs([(unpack(m), s * c) for m, c in remainder.items()], f.ring)

    return _widening(run, len(f.ring), order, _max_degree([f, *basis]))


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    lmf = leading_monomial(f, order)
    lmg = leading_monomial(g, order)
    lcm = monomial_lcm(lmf, lmg)
    uf = Polynomial.monomial(monomial_div(lcm, lmf), f.ring, Fraction(1) / f.terms[lmf])
    ug = Polynomial.monomial(monomial_div(lcm, lmg), g.ring, Fraction(1) / g.terms[lmg])
    return uf * f - ug * g


def buchberger(ideal: IdealSpec, order: MonomialOrder = DEFAULT_ORDER) -> GroebnerBasis:
    return _widening(partial(_buchberger, ideal), ideal.n_vars, order, _max_degree(ideal.generators))


def _buchberger(ideal: IdealSpec, packing: _Packing) -> GroebnerBasis:
    """The reduced basis, certified by `_certify` from scratch and returned
    packed; the generators are packed once, their pairs counted against
    `PAIR_BUDGET`.  If their leading monomials are minimal, a fixed rule that
    dense complete intersections fail, their interreduction is returned once
    certified.  Else each entering element forms its pairs with earlier ones by
    `_new_pairs`, the check's rule, and all are reduced.  The basis only grows,
    so these are `_syzygy_pairs` of the working basis, each reduced to zero or
    to a remainder that joined it; `_certify`'s proof applies."""
    ascend, field, every = packing.ascend, packing.field, packing.every
    basis: list[_Element] = []
    lms: list[int] = []
    # normal selection, lowest degree first: a heap of (key, i, j), the key
    # the degree of the lcm and then its order key.  A graded order's key
    # leads with the degree already (lift 0 adds nothing); lex puts a copy
    # of its degree field, the lowest, above every field
    lift = every.bit_length() if packing.order is MonomialOrder.lex else 0
    pairs: list = []

    def enter(g: _Element) -> None:
        j = len(basis)
        _check_pair_budget(j + 1)
        basis.append(g)
        lms.append(g.lm)
        for i, m in _new_pairs(lms, j, packing):
            key = m ^ ascend
            heappush(pairs, (key | (key & field) << lift, i, j))

    gens = [_integer_terms(g, packing) for g in ideal.generators]
    _check_pair_budget(len(gens))
    elements = [_Element(terms, packing) for terms in gens]
    if len(_minimal([g.lm for g in elements], packing.guard)) == len(elements):
        reduced = _reduce_basis(elements, packing)
        with suppress(GroebnerCheckFailed):
            _certify(reduced, gens, packing)
            return GroebnerBasis(reduced, packing, ideal.ring_vars)
    for g in elements:
        enter(g)
    while pairs:
        key, i, j = heappop(pairs)
        s_terms = _s_terms(basis[i], basis[j], key & every ^ ascend, packing)
        remainder, _ = _reduce(s_terms, basis, packing)
        if remainder:
            enter(_Element(primitive(remainder), packing))
    reduced = _reduce_basis(basis, packing)
    _certify(reduced, gens, packing)
    return GroebnerBasis(reduced, packing, ideal.ring_vars)


def _check_pair_budget(k: int) -> None:
    """Raise if k elements form more pairs, C(k, 2), kept or not, than `PAIR_BUDGET`."""
    if k * (k - 1) // 2 > PAIR_BUDGET:
        raise GroebnerBudgetExceeded("pair budget exceeded")


def _reduce_basis(basis: list[_Element], packing: _Packing) -> list[dict[int, int]]:
    """Primitive term dicts, biggest first, ascending by leading monomial."""
    # minimal: one element per leading monomial that `_minimal`, the one
    # divisibility scan, keeps; the first, as generators may share one
    first = {g.lm: g for g in reversed(basis)}
    lms = sorted(_minimal(first, packing.guard), key=packing.ascend.__xor__)
    minimal = [first[m] for m in lms]
    # interreduce: each element reduced against the others; by minimality no
    # other leading monomial divides its own, which stays first
    reduced = [_reduce(dict([(g.lm, g.lc), *g.tail]), minimal[:i] + minimal[i + 1 :], packing)[0]
               for i, g in enumerate(minimal)]
    return [primitive(r) for r in reduced]


def _new_pairs(lms: list[int], j: int, packing: _Packing) -> list[tuple[int, int]]:
    """(i, lcm of lm_i and lm_j) for the pairs i < j that are kept: one i
    for each quotient lcm_ij / lm_j that no other such quotient divides,
    the first i with it (Gebauer & Moeller's criteria M and F), unless lm_i
    and lm_j are coprime."""
    lj, lcm = lms[j], packing.lcm
    # i runs down, so each quotient keeps its first i
    quotients = {lcm(lms[i], lj) - lj: i for i in range(j - 1, -1, -1)}
    kept = []
    for q in _minimal(quotients, packing.guard):
        i = quotients[q]
        # q is lm_i exactly when lcm_ij is lm_i * lm_j
        if q != lms[i]:
            kept.append((i, q + lj))
    return kept


def _syzygy_pairs(lms: list[int], packing: _Packing) -> list[tuple[int, int, int]]:
    """(i, j, lcm of lm_i and lm_j) for the pairs whose S-polynomials the
    final check reduces, `_new_pairs` for each j: computed from the leading
    monomials alone, and the pairs the pair loop forms on the same basis."""
    return [(i, j, m) for j in range(len(lms)) for i, m in _new_pairs(lms, j, packing)]


def _certify(reduced: list[dict], gens: list[dict], packing: _Packing) -> None:
    """Certify that the packed basis is a Groebner basis of the ideal of the
    packed generators, or raise `GroebnerCheckFailed`, so that the check
    also runs under `python -O`.

    First, the S-polynomial of every pair of `_syzygy_pairs` reduces to
    zero.  Write tau_ij for the syzygy of the leading terms of the pair
    (i, j) and q_i for lcm_ij / lm_j.  Fix j.  For i, k < j, suppose q_k
    divides q_i, or equals it.  Then tau_ij - (q_i / q_k) * tau_kj involves
    only e_i and e_k, so it is a monomial multiple of tau_ik.  By induction
    on j, every pair syzygy is generated by the kept ones together with the
    coprime pairs, and a coprime pair's S-polynomial reduces to zero by
    Buchberger's first criterion.  For any generating set of the syzygies,
    every S-polynomial reducing to zero holds exactly when G is a Groebner
    basis, so the basis is one of the ideal it generates (Cox, Little &
    O'Shea, ch. 2 §9-10; Gebauer & Moeller, JSC 6, 1988).  Second, every
    generator of the ideal reduces to zero modulo the basis, so I is in <G>.
    That G is in I holds by construction: `buchberger` makes each element
    from the generators.  Scaling an element by a nonzero rational scales
    each S-polynomial and reduction step that uses it, so a primitive basis
    and a monic one certify alike."""
    basis = [_Element(terms, packing) for terms in reduced]
    for i, j, m in _syzygy_pairs([g.lm for g in basis], packing):
        if _reduce(_s_terms(basis[i], basis[j], m, packing), basis, packing)[0]:
            raise GroebnerCheckFailed("S-polynomial did not reduce to zero")
    for terms in gens:
        # `_reduce` consumes its input
        if _reduce(dict(terms), basis, packing)[0]:
            raise GroebnerCheckFailed("input generator did not reduce to zero")


def initial_ideal(gb: GroebnerBasis) -> MonomialIdeal:
    """The leading monomials of the basis, the first keys of its packed
    term dicts, in ascending order of their packed ints: ascending under
    deglex and lex; under degrevlex, by rising degree and biggest first
    within a degree.  They are minimal by construction: `_reduce_basis`
    makes every basis, as `_buchberger` is the only maker of one.  The
    empty basis, of the zero ideal, has none.  `elements` is not read."""
    lms = sorted(next(iter(terms)) for terms in gb.reduced)
    return MonomialIdeal(tuple(map(gb.packing.unpack, lms)))


def _minimal(monomials, guard: int) -> list[int]:
    """The packed monomials that no other one divides, each once, ascending.
    A divisor sorts first: m = g + (m - g) when g divides m."""
    minimal: list[int] = []
    for m in sorted(set(monomials)):
        for g in minimal:
            if not (m - g) & guard:
                break
        else:
            minimal.append(m)
    return minimal


# -- Hilbert series of a monomial ideal -----------------------------------


def _poly_add(a: list[int], b: list[int], shift: int = 0) -> list[int]:
    out = list(a) + [0] * max(0, shift + len(b) - len(a))
    for j, y in enumerate(b):
        out[shift + j] += y
    return out


def series_numerator(mi: MonomialIdeal, n_vars: int) -> HilbertSeriesNumerator:
    """The numerator of the Hilbert series of R/I for I generated by the
    monomials, which need not be minimal or distinct."""
    gens = mi.minimal_generators
    # The recursion only lowers exponents and adds variables of degree 1, so
    # no field outgrows the largest generator degree the packing is sized
    # for: nothing can overflow, and no `_widening` is needed.
    packing = _Packing(n_vars, MonomialOrder.degrevlex, max(map(sum, gens), default=0))
    guard, field, deg_shift, bits = packing.guard, packing.field, packing.deg_shift, packing.bits
    # `(g + ones) & nonzero` keeps the guard bit of each exponent field
    # where g is nonzero: the support of g
    nonzero = guard & packing.exponents
    ones = packing.exponents ^ nonzero

    def numerator(gens: list[int]) -> list[int]:
        """N(I) for the ideal of the packed monomials, a minimal set."""
        mixed = []
        for g in gens:
            support = (g + ones) & nonzero
            if support & (support - 1):
                mixed.append(support)
        if not mixed:
            # pairwise coprime pure powers, or the degree-0 generator alone:
            # the product of (1 - t^deg)
            out = [1]
            for g in gens:
                out = _poly_add(out, [-c for c in out], shift=g >> deg_shift)
            return out
        # pivot on the variable in the most generators that are not pure
        # powers, the first such variable on a tie
        counts: dict[int, int] = {}
        for support in mixed:
            while support:
                low = support & -support
                counts[low] = counts.get(low, 0) + 1
                support ^= low
        x = min(counts, key=lambda low: (-counts[low], low)) >> bits
        mask = x * field  # the exponent field of the pivot
        unit = x | 1 << deg_shift
        # N(I) = N(I + <x>) + t * N(I : x).  The generators of I + <x> that
        # are kept are not divisible by x and x divides none of them, so that
        # set is minimal; I : x is minimalized again.
        total = numerator([g for g in gens if not g & mask] + [unit])
        colon = numerator(_minimal([g - unit if g & mask else g for g in gens], guard))
        return _poly_add(total, colon, shift=1)

    coeffs = numerator(_minimal(map(packing.pack, gens), guard))
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return HilbertSeriesNumerator(tuple(coeffs), n_vars)


# -- Hilbert polynomial ---------------------------------------------------


def _hilbert_polynomial_from_numerator(num: HilbertSeriesNumerator) -> HilbertData:
    """With numerator(t) = sum of a_i (1 - t)^i, P(m) is the sum over i < n of
    a_i * C(m + n - 1 - i, n - 1 - i), and H(m) = P(m) from deg numerator - n + 1."""
    n = num.n_vars
    threshold = max(0, len(num.coeffs) - n)
    q, a = list(num.coeffs), []
    for _ in range(n):
        a_i = sum(q)
        a.append(a_i)
        q = [c - a_i for c in accumulate(q[:-1])]  # (q - a_i) / (1 - t)
    e = next((i for i, c in enumerate(a) if c), None)
    if e is None:
        return HilbertData(HilbertPolynomial(()), threshold, num)
    # (s - 1)! * P by Horner in the basis (m + 1)...(m + k) = k! * C(m + k, k)
    acc, f = [a[e]], 1
    for k in range(n - e - 2, -1, -1):
        f *= k + 1
        acc = _poly_add([(k + 1) * c for c in acc], acc, shift=1)
        acc[0] += f * a[n - 1 - k]
    return HilbertData(HilbertPolynomial(tuple(Fraction(c, f) for c in acc)), threshold, num)


def hilbert_polynomial(ideal: IdealSpec) -> HilbertData:
    gb = buchberger(ideal)
    num = series_numerator(initial_ideal(gb), ideal.n_vars)
    return _hilbert_polynomial_from_numerator(num)
