import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from halphen.combinat import binom
from halphen.graded import hilbert_function
from halphen.groebner import (
    EmptyProjectiveSet,
    GroebnerBasis,
    GroebnerCheckFailed,
    HilbertPolynomial,
    MonomialIdeal,
    buchberger,
    hilbert_polynomial,
    initial_ideal,
    leading_monomial,
    normal_form,
    series_coefficients,
    series_numerator,
    _assert_groebner,
)
from halphen.parsing import IdealSpec, parse_polynomial
from halphen.poly import (
    DEFAULT_ORDER,
    MonomialOrder,
    Polynomial,
    RingMismatch,
    enumerate_monomials,
    monomial_div,
    monomial_divides,
)

from conftest import FIXTURES, RING3, RING4, dense_form, load_ideal, polynomials, random_rnc

SRC = Path(__file__).resolve().parent.parent / "src"

FIXTURE_NAMES = [
    "twisted_cubic",
    "curve_E",
    "c0",
    "ct_1",
    "ct_half",
    "ct_neg2",
    "two_quadrics",
    "line_L",
    "plane_d1",
    "plane_d2",
    "plane_d3",
    "plane_d4",
    "plane_d5",
    "zero4",
]


class TestHilbertPolynomialStr:
    @pytest.mark.parametrize(
        "coeffs, text",
        [
            ((), "0"),
            ((5,), "5"),
            ((0, 1), "m"),
            ((2, -1), "-m + 2"),
            ((-2, 4), "4*m - 2"),
            ((1, Fraction(3, 2), Fraction(1, 2)), "1/2*m^2 + 3/2*m + 1"),
        ],
    )
    def test_rendering(self, coeffs, text):
        assert str(HilbertPolynomial(tuple(map(Fraction, coeffs)))) == text


class TestBuchberger:
    def test_principal_ideal_is_its_own_basis(self):
        f = parse_polynomial("z*y^2 - x^3 + x*z^2 + z^3", RING3)
        gb = buchberger(IdealSpec(RING3, (f,)))
        assert len(gb.elements) == 1
        # same ideal element, made monic
        assert gb.elements[0] == f.scale(Fraction(-1))

    def test_monomial_ideal_unchanged(self):
        spec = IdealSpec(
            RING3,
            (parse_polynomial("x", RING3), parse_polynomial("y", RING3)),
        )
        gb = buchberger(spec)
        assert {leading_monomial(g, gb.order) for g in gb.elements} == {
            (1, 0, 0),
            (0, 1, 0),
        }

    def test_original_generators_reduce_to_zero(self, twisted_cubic):
        gb = buchberger(twisted_cubic)
        for g in twisted_cubic.generators:
            assert normal_form(g, gb.elements, gb.order).is_zero

    def test_reduced_leading_monomials_minimal(self, twisted_cubic):
        gb = buchberger(twisted_cubic)
        lms = [leading_monomial(g, gb.order) for g in gb.elements]
        for i, a in enumerate(lms):
            for j, b in enumerate(lms):
                if i != j:
                    assert not monomial_divides(a, b)

    def test_basis_elements_monic(self, twisted_cubic):
        gb = buchberger(twisted_cubic)
        for g in gb.elements:
            assert g.terms[leading_monomial(g, gb.order)] == 1


def _reference_normal_form(f, basis, order):
    """Textbook division in Fractions: the biggest term of the working
    polynomial is divided by the first element whose leading term divides it."""
    remainder = Polynomial.zero(f.ring)
    work = f
    while not work.is_zero:
        lm = leading_monomial(work, order)
        lc = work.terms[lm]
        for g in basis:
            glm = leading_monomial(g, order)
            if monomial_divides(glm, lm):
                u = Polynomial.monomial(monomial_div(lm, glm), f.ring, lc / g.terms[glm])
                work = work - u * g
                break
        else:
            head = Polynomial.monomial(lm, f.ring, lc)
            remainder = remainder + head
            work = work - head
    return remainder


class TestNormalForm:
    @pytest.mark.parametrize("order", list(MonomialOrder))
    @given(
        f=polynomials(max_terms=6),
        basis=st.lists(polynomials(max_terms=3).filter(bool), min_size=1, max_size=3),
    )
    def test_exact_remainder_matches_textbook_division(self, order, f, basis):
        assert normal_form(f, basis, order) == _reference_normal_form(f, basis, order)

    def test_ring_mismatch(self):
        f = parse_polynomial("x^2", RING3)
        with pytest.raises(RingMismatch):
            normal_form(f, [parse_polynomial("x", RING4)], DEFAULT_ORDER)

    def test_keeps_rational_coefficients(self):
        f = parse_polynomial("x^2 + 1/3*y^2", RING3)
        g = parse_polynomial("2*x - 5*z", RING3)
        # x^2 = (x/2 + 5z/4)(2x - 5z) + 25/4 z^2
        expect = parse_polynomial("1/3*y^2 + 25/4*z^2", RING3)
        assert normal_form(f, [g], DEFAULT_ORDER) == expect


NON_BASIS = ("x*y - z^2", "x^2 - y*z")

CHECK_UNDER_O = f"""
import sys
from halphen import cli, groebner
from halphen.parsing import parse_polynomial
from halphen.poly import DEFAULT_ORDER

ring = ("x", "y", "z")
bad = groebner.GroebnerBasis(
    DEFAULT_ORDER, tuple(parse_polynomial(t, ring) for t in {NON_BASIS!r})
)
try:
    groebner._assert_groebner(bad)
except groebner.GroebnerCheckFailed:
    print("raised")
groebner._reduce_basis = lambda *args: bad
print("exit", cli.main(["invariants", "--ideal", sys.argv[1]]))
print("optimize", sys.flags.optimize)
"""


class TestFinalCheck:
    def test_non_basis_is_rejected(self):
        bad = GroebnerBasis(DEFAULT_ORDER, tuple(parse_polynomial(t, RING3) for t in NON_BASIS))
        with pytest.raises(GroebnerCheckFailed):
            _assert_groebner(bad)

    def test_check_runs_under_python_O(self):
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        fixture = str(FIXTURES / "twisted_cubic.ideal")
        proc = subprocess.run(
            [sys.executable, "-O", "-c", CHECK_UNDER_O, fixture],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.stdout.split("\n")[:3] == ["raised", "exit 1", "optimize 1"], proc.stderr
        assert "halphen: error: S-polynomial did not reduce to zero" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestInitialIdeal:
    def test_monomial_generators(self):
        spec = IdealSpec(
            RING3,
            (parse_polynomial("x", RING3), parse_polynomial("y", RING3)),
        )
        mi = initial_ideal(buchberger(spec))
        assert set(mi.minimal_generators) == {(1, 0, 0), (0, 1, 0)}

    def test_principal_cubic(self):
        f = parse_polynomial("x^3 + y^2*z", RING3)
        mi = initial_ideal(buchberger(IdealSpec(RING3, (f,))))
        assert mi.minimal_generators == ((3, 0, 0),)

    def test_minimality(self, twisted_cubic):
        mi = initial_ideal(buchberger(twisted_cubic))
        gens = mi.minimal_generators
        for i, a in enumerate(gens):
            for j, b in enumerate(gens):
                if i != j:
                    assert not monomial_divides(a, b)


class TestSeriesNumerator:
    def test_empty_ideal(self):
        num = series_numerator(MonomialIdeal(()), 3)
        assert num.coeffs == (1,)
        assert series_coefficients(num, 3) == [1, 3, 6, 10]

    def test_principal_power(self):
        num = series_numerator(MonomialIdeal(((3, 0, 0),)), 3)
        assert num.coeffs == (1, 0, 0, -1)
        got = series_coefficients(num, 8)
        assert got == [binom(m + 2, 2) - binom(m - 1, 2) for m in range(9)]

    def test_coordinate_line_in_plane(self):
        num = series_numerator(MonomialIdeal(((1, 0, 0), (0, 1, 0))), 3)
        assert num.coeffs == (1, -2, 1)  # (1 - t)^2
        assert series_coefficients(num, 5) == [1] * 6

    def test_contains_one(self):
        num = series_numerator(MonomialIdeal(((0, 0, 0),)), 3)
        assert series_coefficients(num, 4) == [0] * 5

    def test_mixed_ideal_against_direct_count(self):
        # dim of R_m / mi counted by brute enumeration
        from halphen.poly import enumerate_monomials

        gens = [(2, 1, 0), (0, 0, 3), (1, 0, 2)]
        num = series_numerator(MonomialIdeal(tuple(gens)), 3)
        series = series_coefficients(num, 8)
        for m in range(9):
            alive = [
                u
                for u in enumerate_monomials(3, m)
                if not any(monomial_divides(g, u) for g in gens)
            ]
            assert series[m] == len(alive)


class TestStandardMonomialCount:
    """`series_coefficients` against the number of monomials of each degree
    outside the initial ideal, counted one by one: a check that shares
    nothing with the pivot recursion of the series or with the rank oracle."""

    @staticmethod
    def assert_counts_match(spec, upto):
        mi = initial_ideal(buchberger(spec))
        counts = [
            sum(
                not any(monomial_divides(g, u) for g in mi.minimal_generators)
                for u in enumerate_monomials(spec.n_vars, m)
            )
            for m in range(upto + 1)
        ]
        assert series_coefficients(series_numerator(mi, spec.n_vars), upto) == counts

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixtures(self, name):
        self.assert_counts_match(load_ideal(name), 10)

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("degrees", [(2, 3), (3, 3), (2, 2, 2), (2, 3, 4)])
    def test_complete_intersections(self, degrees, seed):
        rng = random.Random(100 * seed + sum(degrees))
        ideal = IdealSpec(RING4, tuple(dense_form(rng, RING4, d) for d in degrees))
        self.assert_counts_match(ideal, 10)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_rational_normal_curves(self, n):
        self.assert_counts_match(random_rnc(random.Random(n), n), 7)


class TestHilbertPolynomial:
    @pytest.mark.parametrize(
        "name,coeffs",
        [
            ("curve_E", (0, 3)),
            ("twisted_cubic", (1, 3)),
            ("ct_1", (0, 4)),
            ("ct_half", (0, 4)),
            ("ct_neg2", (0, 4)),
            ("c0", (0, 4)),
        ],
    )
    def test_golden_polynomials(self, name, coeffs):
        data = hilbert_polynomial(load_ideal(name))
        assert data.polynomial == HilbertPolynomial(tuple(map(Fraction, coeffs)))

    def test_constant_generator_rejected(self):
        spec = IdealSpec(RING3, (parse_polynomial("5", RING3),))
        with pytest.raises(EmptyProjectiveSet):
            hilbert_polynomial(spec)

    def test_integer_valued_on_window(self):
        for name in FIXTURE_NAMES:
            P = hilbert_polynomial(load_ideal(name)).polynomial
            for m in range(-3, 10):
                assert P(m).denominator == 1

    def test_principal_closed_form(self):
        # P(m) = dm - (d-1)(d-2)/2 + 1 for a plane curve of degree d
        for d in range(1, 6):
            data = hilbert_polynomial(load_ideal(f"plane_d{d}"))
            assert data.polynomial == HilbertPolynomial(
                (Fraction(1 - (d - 1) * (d - 2) // 2), Fraction(d))
            )

    def test_reorder_and_rescale_invariance(self, twisted_cubic):
        base = hilbert_polynomial(twisted_cubic).polynomial
        rng = random.Random(31)
        for _ in range(5):
            gens = list(twisted_cubic.generators)
            rng.shuffle(gens)
            gens = [g.scale(rng.choice([2, -1, Fraction(1, 3), 7])) for g in gens]
            shuffled = IdealSpec(RING4, tuple(gens))
            assert hilbert_polynomial(shuffled).polynomial == base


class TestCrossModuleConsistency:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_macaulay_consistency(self, name):
        spec = load_ideal(name)
        num = series_numerator(initial_ideal(buchberger(spec)), spec.n_vars)
        series = series_coefficients(num, 8)
        for m in range(9):
            assert hilbert_function(spec, m) == series[m]

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_polynomial_matches_function_past_threshold(self, name):
        spec = load_ideal(name)
        data = hilbert_polynomial(spec)
        m0 = data.stabilizes_from
        for m in range(m0, m0 + 6):
            assert data.polynomial(m) == hilbert_function(spec, m)

    @staticmethod
    def assert_polynomial_is_binomial_sum(data, n_vars):
        """P(m) = sum_j q_j * C(m - j + s - 1, s - 1) past the threshold, where
        s - 1 = deg P and q = numerator / (1 - t)^(n - s)."""
        s = len(data.polynomial.coeffs)
        q = list(data.numerator.coeffs)
        for _ in range(n_vars - s):
            assert sum(q) == 0  # (1 - t) divides q
            q = list(accumulate(q))[:-1]
        m0 = data.stabilizes_from
        for m in range(m0, m0 + max(6, s)):
            expect = sum(c * binom(m - j + s - 1, s - 1) for j, c in enumerate(q))
            assert data.polynomial(m) == expect

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_polynomial_is_binomial_sum_of_numerator(self, name):
        spec = load_ideal(name)
        self.assert_polynomial_is_binomial_sum(hilbert_polynomial(spec), spec.n_vars)

    def test_polynomial_is_binomial_sum_in_200_variables(self):
        ring = tuple(f"x{i}" for i in range(200))
        gens = (parse_polynomial("x0 - 2*x1 + x199", ring), parse_polynomial("3*x7 + x150", ring))
        data = hilbert_polynomial(IdealSpec(ring, gens))
        assert len(data.polynomial.coeffs) == 198
        self.assert_polynomial_is_binomial_sum(data, 200)
        # the plane P^197: P(m) = C(m + 197, 197)
        assert all(data.polynomial(m) == binom(m + 197, 197) for m in range(-3, 4))

    @staticmethod
    def hypersurface(n_vars, d):
        ring = tuple(f"x{i}" for i in range(n_vars))
        return hilbert_polynomial(IdealSpec(ring, (parse_polynomial(f"x0^{d}", ring),)))

    @pytest.mark.parametrize("n_vars, d", [(3, 40), (20, 30), (60, 60), (200, 30)])
    def test_hypersurface_matches_series_from_threshold(self, n_vars, d):
        # numerator (1 - t^d) = (1 - t)(1 + t + ... + t^(d-1)): d nonzero
        # coefficients left after the one factor (1 - t)
        data = self.hypersurface(n_vars, d)
        m0 = data.stabilizes_from
        assert m0 == max(0, d - n_vars + 1)
        H = series_coefficients(data.numerator, m0 + 5)
        assert all(data.polynomial(m) == H[m] for m in range(m0, m0 + 6))
        if m0 > 0:
            assert data.polynomial(m0 - 1) != H[m0 - 1]
        self.assert_polynomial_is_binomial_sum(data, n_vars)

    def test_hypersurface_of_degree_100_in_1500_variables(self):
        data = self.hypersurface(1500, 100)
        for m in range(4):
            assert data.polynomial(m) == binom(m + 1499, 1499) - binom(m + 1399, 1499)

    def test_threshold_is_tight_for_plane_quintic(self):
        # H(m) < P(m) strictly below the reported threshold
        spec = load_ideal("plane_d5")
        data = hilbert_polynomial(spec)
        assert data.stabilizes_from > 0
        m = data.stabilizes_from - 1
        assert data.polynomial(m) != hilbert_function(spec, m)
