import random
from fractions import Fraction
from itertools import combinations

import pytest

from halphen import graded
from halphen.combinat import binom
from halphen.graded import (
    RankBudgetExceeded,
    hilbert_function,
    hilbert_function_table,
    ideal_piece_dimension,
)
from halphen.parsing import IdealSpec, parse_polynomial
from halphen.poly import Polynomial, enumerate_monomials

from conftest import RING3, RING4, load_ideal


def principal(f_text, ring):
    return IdealSpec(ring, (parse_polynomial(f_text, ring),))


def random_homogeneous(rng, ring, degree):
    monos = enumerate_monomials(len(ring), degree)
    terms = {m: rng.randint(1, 9) for m in monos if rng.random() < 0.8}
    terms[monos[0]] = rng.randint(1, 9)  # never zero
    return Polynomial(terms, ring)


class TestIdealPieceDimension:
    def test_twisted_cubic_quadrics_independent(self, twisted_cubic):
        assert ideal_piece_dimension(twisted_cubic, 2) == 3

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_principal_ideal_closed_form(self, d):
        rng = random.Random(100 + d)
        ideal = IdealSpec(RING3, (random_homogeneous(rng, RING3, d),))
        for m in range(d, d + 4):
            assert ideal_piece_dimension(ideal, m) == binom(m - d + 2, 2)

    def test_degree_zero_piece(self, twisted_cubic):
        assert ideal_piece_dimension(twisted_cubic, 0) == 0


class TestHilbertFunction:
    def test_twisted_cubic_value(self, twisted_cubic):
        assert hilbert_function(twisted_cubic, 2) == 7  # = 3*2 + 1

    def test_degeneration_value(self, c0):
        assert hilbert_function(c0, 2) == 8  # = 4*2

    def test_plane_cubic(self):
        ideal = principal("z*y^2 - x^3 + x*z^2 + z^3", RING3)
        assert hilbert_function(ideal, 3) == 9  # C(5,2) - C(2,2)

    def test_upper_bound(self, twisted_cubic):
        n = twisted_cubic.n_vars
        for m in range(6):
            h = hilbert_function(twisted_cubic, m)
            assert 0 <= h <= binom(m + n - 1, n - 1)

    def test_monotone_under_ideal_growth(self, c0, twisted_cubic):
        # c0's generators are the first two of the twisted cubic's
        for m in range(6):
            assert hilbert_function(twisted_cubic, m) <= hilbert_function(c0, m)

    def test_generator_reorder_and_rescale_invariance(self, twisted_cubic):
        rng = random.Random(7)
        for _ in range(5):
            gens = list(twisted_cubic.generators)
            rng.shuffle(gens)
            gens = [g.scale(rng.choice([1, -1, 2, 5, -3])) for g in gens]
            shuffled = IdealSpec(twisted_cubic.ring_vars, tuple(gens))
            for m in range(5):
                assert hilbert_function(shuffled, m) == hilbert_function(
                    twisted_cubic, m
                )


class TestHilbertFunctionTable:
    def test_twisted_cubic_table(self, twisted_cubic):
        table = hilbert_function_table(twisted_cubic, 4)
        assert [table.values[m] for m in range(5)] == [1, 4, 7, 10, 13]

    def test_single_linear_form(self):
        table = hilbert_function_table(load_ideal("zero4"), 2)
        assert [table.values[m] for m in range(3)] == [1, 3, 6]

    def test_line(self, line_l):
        table = hilbert_function_table(line_l, 3)
        assert [table.values[m] for m in range(4)] == [1, 2, 3, 4]

    def test_value_zero_degree(self, twisted_cubic):
        assert hilbert_function_table(twisted_cubic, 0).values[0] == 1


class TestPlaneClosedForm:
    @pytest.mark.parametrize("d", range(1, 7))
    def test_principal_matches_binomial_difference(self, d):
        rng = random.Random(d)
        ideal = IdealSpec(RING3, (random_homogeneous(rng, RING3, d),))
        for m in range(d + 4):
            expect = binom(m + 2, 2) - binom(m - d + 2, 2)
            assert hilbert_function(ideal, m) == expect


def koszul_hilbert(degrees, m, n_vars=4):
    """Hilbert function of a complete intersection, from its Koszul resolution."""
    return sum(
        (-1) ** r * (binom(m - sum(s) + n_vars - 1, n_vars - 1) if m >= sum(s) else 0)
        for r in range(len(degrees) + 1)
        for s in combinations(degrees, r)
    )


def dense_form(rng, ring, degree):
    return Polynomial(
        {mono: rng.randint(-5, 5) for mono in enumerate_monomials(len(ring), degree)},
        ring,
    )


def random_rnc(rng, n):
    """The 2x2 minors of [[L_0 .. L_{n-1}], [L_1 .. L_n]] for unitriangular
    linear forms L_i = x_i + sum_{j>i} c_ij x_j: the rational normal curve
    in P^n after a random change of coordinates, with rational rescalings."""
    ring = tuple(f"x{i}" for i in range(n + 1))
    x = [Polynomial.variable(i, ring) for i in range(n + 1)]
    forms = []
    for i in range(n + 1):
        form = x[i]
        for j in range(i + 1, n + 1):
            form = form + x[j].scale(rng.randint(-3, 3))
        forms.append(form)
    gens = []
    for a, b in combinations(range(n), 2):
        minor = forms[a] * forms[b + 1] - forms[b] * forms[a + 1]
        scale = Fraction(rng.choice([1, -2, 3, 5]), rng.choice([1, 2, 7]))
        gens.append(minor.scale(scale))
    return IdealSpec(ring, tuple(gens))


class TestClosedForms:
    """Tables by rank against formulas the code does not compute."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("degrees", [(2, 2), (2, 3), (3, 3), (3, 4), (2, 2, 2)])
    def test_complete_intersection_is_koszul(self, degrees, seed):
        rng = random.Random(1000 * seed + sum(degrees))
        ideal = IdealSpec(RING4, tuple(dense_form(rng, RING4, d) for d in degrees))
        m_max = sum(degrees) + 2
        table = hilbert_function_table(ideal, m_max)
        assert table.values == {m: koszul_hilbert(degrees, m) for m in range(m_max + 1)}

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_rational_normal_curve_is_linear(self, n, seed):
        ideal = random_rnc(random.Random(100 * seed + n), n)
        table = hilbert_function_table(ideal, 5)
        assert table.values == {m: n * m + 1 for m in range(6)}


class TestRationalCoefficients:
    def test_rational_generators_match_integer_multiples(self, twisted_cubic):
        scales = [Fraction(3, 7), Fraction(-5, 2), Fraction(1, 6)]
        gens = [g.scale(c) for g, c in zip(twisted_cubic.generators, scales)]
        mixed = parse_polynomial("1/2*x*y - 1/3*z*w + 2/5*x*z", RING4)
        rational = IdealSpec(RING4, (*gens, mixed))
        integer = IdealSpec(RING4, (*twisted_cubic.generators, mixed.scale(30)))
        values = hilbert_function_table(rational, 6).values
        assert values == hilbert_function_table(integer, 6).values
        assert values[2] == binom(5, 3) - 4


class TestPieceBudget:
    def test_table_refuses_oversized_piece_before_eliminating(self, twisted_cubic, monkeypatch):
        def no_rank(rows):
            raise AssertionError("elimination ran")

        monkeypatch.setattr(graded, "exact_rank", no_rank)
        with pytest.raises(RankBudgetExceeded) as exc:
            hilbert_function_table(twisted_cubic, 10_000)
        message = str(exc.value)
        assert "m = 10000" in message
        assert f"{3 * binom(10_000 - 2 + 3, 3)} rows" in message
        assert f"{binom(10_003, 3)} columns" in message

    def test_budget_counts_rows_and_columns(self, twisted_cubic, monkeypatch):
        monkeypatch.setattr(graded, "PIECE_BUDGET", 15)
        # m = 2: 3 rows, 10 columns, within the budget
        assert hilbert_function_table(twisted_cubic, 2).values == {0: 1, 1: 4, 2: 7}
        # m = 3: 12 rows, but 20 columns
        with pytest.raises(RankBudgetExceeded, match="12 rows and 20 columns"):
            hilbert_function_table(twisted_cubic, 3)
        with pytest.raises(RankBudgetExceeded):
            ideal_piece_dimension(twisted_cubic, 3)
        # 16 rows, but only 3 columns
        x = parse_polynomial("x", RING3)
        with pytest.raises(RankBudgetExceeded, match="16 rows and 3 columns"):
            hilbert_function_table(IdealSpec(RING3, (x,) * 16), 1)
