import random

import pytest

from halphen.combinat import binom
from halphen.graded import (
    hilbert_function,
    hilbert_function_table,
    ideal_piece_dimension,
)
from halphen.parsing import IdealSpec, parse_polynomial
from halphen.poly import Polynomial, enumerate_monomials

from conftest import RING3, load_ideal


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
