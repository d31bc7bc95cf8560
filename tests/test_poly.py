from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from halphen.poly import (
    MonomialOrder,
    Polynomial,
    RingMismatch,
    descending_key,
    enumerate_monomials,
    primitive,
)

from conftest import (
    RING3,
    RING4,
    exponents,
    homogeneous_polynomials,
    nonzero_rationals,
    polynomials,
    small_rationals,
)


def p3(terms):
    return Polynomial(terms, RING3)


X, Y, Z = (Polynomial.variable(i, RING3) for i in range(3))


def accumulate(pairs):
    """Plain dict accumulation of (monomial, coefficient) pairs in order;
    an entry whose sum is zero is deleted."""
    terms = {}
    for m, c in pairs:
        terms[m] = terms.get(m, 0) + c
        if terms[m] == 0:
            del terms[m]
    return terms


class TestArithmetic:
    def test_add_cancellation(self):
        assert (X + Y) + (-X) == Y

    def test_additive_identity(self):
        p = p3({(1, 2, 0): Fraction(3, 2)})
        assert p + Polynomial.zero(RING3) == p

    def test_add_cancels_to_single_term(self):
        twisted = p3({(0, 2, 0): 1, (1, 0, 1): -1})  # y^2 - zx
        assert twisted + p3({(1, 0, 1): 1}) == p3({(0, 2, 0): 1})

    def test_mul_monomial_times_binomial(self):
        f = p3({(0, 2, 0): 1, (1, 0, 1): -1})
        assert X * f == p3({(1, 2, 0): 1, (2, 0, 1): -1})

    def test_mul_identity(self):
        p = p3({(2, 1, 0): 5, (0, 0, 3): Fraction(-1, 3)})
        assert Polynomial.constant(1, RING3) * p == p

    def test_difference_of_squares(self):
        assert (X + Y) * (X - Y) == p3({(2, 0, 0): 1, (0, 2, 0): -1})

    def test_ring_mismatch(self):
        q = Polynomial.variable(0, RING4)
        with pytest.raises(RingMismatch):
            X + q
        with pytest.raises(RingMismatch):
            X * q

    @given(polynomials(), polynomials(), polynomials())
    def test_ring_axioms(self, p, q, r):
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    # `==` ignores the order of the terms; `poly.primitive` does not, so the
    # order each operation stores is pinned here term by term.
    @settings(max_examples=400)
    @given(polynomials(), polynomials(), small_rationals, st.integers(0, 2))
    @example(  # in (1 + x + y) * (xy - y + x) the xy term cancels, then comes back last
        p3({(0, 0, 0): 1, (1, 0, 0): 1, (0, 1, 0): 1}), p3({(1, 1, 0): 1, (0, 1, 0): -1, (1, 0, 0): 1}), 1, 0
    )
    def test_results_term_by_term(self, p, q, c, i):
        P, Q = list(p.terms.items()), list(q.terms.items())
        cases = [
            (p + q, P + Q),
            (p - q, P + [(m, -b) for m, b in Q]),
            (-p, [(m, -a) for m, a in P]),
            (p * q, [(tuple(x + y for x, y in zip(m, n)), a * b) for m, a in P for n, b in Q]),
            (p.scale(c), [(m, a * c) for m, a in P]),
            (p.scale(0), []),
            (p.partial_derivative(i), [
                (tuple(e - (j == i) for j, e in enumerate(m)), a * m[i]) for m, a in P if m[i]
            ]),
        ]
        for result, pairs in cases:
            assert list(result.terms.items()) == list(accumulate(pairs).items())
            assert all(type(a) is Fraction and a != 0 for a in result.terms.values())


class TestDegreeAndHomogeneity:
    def test_total_degree(self):
        assert p3({(0, 2, 0): 1, (1, 0, 1): -1}).total_degree() == 2

    def test_total_degree_cubic(self):
        f = p3({(0, 2, 1): 1, (3, 0, 0): -1, (1, 0, 2): 1, (0, 0, 3): 1})
        assert f.total_degree() == 3

    def test_zero_degree_undefined(self):
        assert Polynomial.zero(RING3).total_degree() is None

    def test_homogeneous(self):
        assert p3({(0, 2, 0): 1, (1, 0, 1): -1}).is_homogeneous()
        assert not p3({(2, 0, 0): 1, (0, 1, 0): 1}).is_homogeneous()
        assert Polynomial.zero(RING3).is_homogeneous()

    def test_homogeneous_product_degree(self):
        f = p3({(0, 2, 0): 1, (1, 0, 1): -1})
        g = p3({(1, 1, 1): 2, (3, 0, 0): 1})
        assert (f * g).total_degree() == f.total_degree() + g.total_degree()


class TestEvaluation:
    def test_on_curve_point(self):
        f = Polynomial({(1, 0, 1, 0): -1, (0, 2, 0, 0): 1}, RING4)  # y^2 - zx
        assert f.evaluate([1, 0, 0, 0]) == 0

    def test_twisted_cubic_generator(self):
        g = Polynomial({(0, 1, 1, 0): 1, (1, 0, 0, 1): -1}, RING4)  # yz - xw
        assert g.evaluate([1, 0, 0, 0]) == 0

    def test_scalar_value(self):
        f = p3({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -1})
        assert f.evaluate([1, 1, 1]) == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            X.evaluate([1, 2])

    @given(homogeneous_polynomials(), nonzero_rationals)
    def test_homogeneous_scaling(self, p, lam):
        coords = [Fraction(1), Fraction(-2), Fraction(3, 2)]
        d = p.total_degree()
        if d is None:
            return
        scaled = [lam * c for c in coords]
        assert p.evaluate(scaled) == lam**d * p.evaluate(coords)


class TestDerivatives:
    def test_power_rule(self):
        f = p3({(0, 2, 1): 1, (3, 0, 0): -1, (1, 0, 2): 1, (0, 0, 3): 1})
        expect = p3({(0, 2, 0): 1, (1, 0, 1): 2, (0, 0, 2): 3})
        assert f.partial_derivative(2) == expect

    def test_vanishing(self):
        assert p3({(0, 2, 0): 1}).partial_derivative(0).is_zero

    def test_simple(self):
        f = p3({(0, 2, 0): 1, (1, 0, 1): -1})
        assert f.partial_derivative(1) == p3({(0, 1, 0): 2})

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            X.partial_derivative(3)

    @given(homogeneous_polynomials())
    def test_euler_relation(self, p):
        d = p.total_degree()
        if d is None:
            return
        total = Polynomial.zero(RING3)
        for i in range(3):
            total = total + Polynomial.variable(i, RING3) * p.partial_derivative(i)
        assert total == p.scale(d)


class TestEnumerateMonomials:
    def test_degree_one(self):
        assert enumerate_monomials(3, 1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_counts(self):
        assert len(enumerate_monomials(3, 2)) == 6
        assert len(enumerate_monomials(4, 2)) == 10

    @pytest.mark.parametrize("n,d", [(1, 5), (2, 4), (3, 6), (4, 3), (5, 2)])
    def test_count_formula_and_sorting(self, n, d):
        from math import comb

        monos = enumerate_monomials(n, d)
        assert len(monos) == comb(d + n - 1, n - 1)
        assert len(set(monos)) == len(monos)
        keys = [MonomialOrder.degrevlex.key(m) for m in monos]
        assert keys == sorted(keys, reverse=True)

    def test_degrevlex_degree_dominates(self):
        key = MonomialOrder.degrevlex.key
        assert key((3, 0, 0)) > key((1, 1, 0))
        assert key((0, 0, 2)) > key((1, 0, 0))

    def test_order_variants_agree_on_degree(self):
        for order in MonomialOrder:
            monos = enumerate_monomials(3, 3, order)
            assert len(monos) == 10


class TestDescendingKey:
    @pytest.mark.parametrize("order", list(MonomialOrder))
    @given(monos=st.lists(st.tuples(*[st.integers(0, 4)] * 4), min_size=2, max_size=12))
    def test_ascending_key_is_descending_order(self, order, monos):
        monos = list(set(monos))
        expect = sorted(monos, key=order.key, reverse=True)
        assert sorted(monos, key=descending_key(order)) == order.sorted(monos) == expect


class TestPrimitive:
    @given(
        st.dictionaries(exponents(3), small_rationals | st.integers(-50, 50), max_size=6).filter(
            lambda coeffs: any(coeffs.values())
        )
    )
    def test_content_times_coprime_integers(self, coeffs):
        s, ints = primitive(coeffs)
        nonzero = {m: c for m, c in coeffs.items() if c}
        assert list(ints) == list(nonzero)
        assert all(type(c) is int and c for c in ints.values())
        assert {m: s * c for m, c in ints.items()} == nonzero
        assert gcd(*ints.values()) == 1
        assert next(iter(ints.values())) > 0

    def test_leading_sign_and_denominators(self):
        s, ints = primitive({(2, 0): Fraction(-3, 4), (1, 1): 0, (0, 2): Fraction(3, 2)})
        assert (s, ints) == (Fraction(-3, 4), {(2, 0): 1, (0, 2): -2})
