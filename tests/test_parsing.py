import sys
from fractions import Fraction

import pytest
from hypothesis import given

from halphen.graded import hilbert_function_table
from halphen.groebner import buchberger
from halphen.parsing import (
    DEGREE_BUDGET,
    IdealSpec,
    ParseError,
    format_polynomial,
    parse_ideal_file,
    parse_polynomial,
)
from halphen.poly import Polynomial

from conftest import LONG_LITERALS, RING3, RING4, polynomials


class TestParsePolynomial:
    def test_twisted_cubic_generator(self):
        p = parse_polynomial("y^2 - z*x", RING4)
        assert p == Polynomial({(0, 2, 0, 0): 1, (1, 0, 1, 0): -1}, RING4)

    def test_cubic_generator(self):
        p = parse_polynomial("z*y^2 - x^3 + x*z^2 + z^3", RING3)
        expect = Polynomial(
            {(0, 2, 1): 1, (3, 0, 0): -1, (1, 0, 2): 1, (0, 0, 3): 1}, RING3
        )
        assert p == expect

    def test_zero(self):
        assert parse_polynomial("0", RING3).is_zero

    def test_rational_coefficient(self):
        p = parse_polynomial("1/2*x^2 - 3/4", RING3)
        assert p.terms[(2, 0, 0)] == Fraction(1, 2)
        assert p.terms[(0, 0, 0)] == Fraction(-3, 4)

    def test_implicit_multiplication(self):
        assert parse_polynomial("2x y", RING3) == parse_polynomial("2*x*y", RING3)

    def test_whitespace_insignificant(self):
        assert parse_polynomial(" y ^ 2-z * x ", RING4) == parse_polynomial(
            "y^2 - z*x", RING4
        )

    def test_unknown_variable(self):
        with pytest.raises(ParseError, match="unknown variable 't'"):
            parse_polynomial("y^2 - t*x", RING3)

    def test_negative_exponent(self):
        with pytest.raises(ParseError, match="negative exponent"):
            parse_polynomial("x^-2", RING3)

    def test_decimal_rejected(self):
        with pytest.raises(ParseError, match="decimal"):
            parse_polynomial("0.5*x", RING3)

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_polynomial("x + + y", RING3)
        assert err.value.line == 1
        assert err.value.col == 5

    @pytest.mark.parametrize(
        "text,col,message",
        [
            ("x$y", 2, "unexpected character '$'"),
            ("1/x", 3, "expected an integer denominator"),
            ("1/0*x", 3, "zero denominator"),
            ("x^y", 3, "expected an integer exponent"),
        ],
    )
    def test_refused_at_the_offending_token(self, text, col, message):
        with pytest.raises(ParseError) as err:
            parse_polynomial(text, RING3)
        assert (err.value.line, err.value.col, err.value.message) == (1, col, message)

    def test_trailing_operator(self):
        with pytest.raises(ParseError):
            parse_polynomial("x +", RING3)

    def test_empty_rejected(self):
        with pytest.raises(ParseError, match="empty"):
            parse_polynomial("   ", RING3)

    def test_like_terms_merge(self):
        assert parse_polynomial("x + x", RING3) == parse_polynomial("2*x", RING3)

    def test_commuted_terms_cancel(self):
        assert parse_polynomial("x*y - y*x", RING3).is_zero

    @pytest.mark.parametrize("text", ["2 3 x", "2*3*x", "12/4 2 x", "1/2*2*x*6"])
    def test_numeric_products(self, text):
        assert parse_polynomial(text, RING3) == parse_polynomial("6*x", RING3)

    def test_repeated_factors_multiply(self):
        assert parse_polynomial("x*y*x^2 z^0", RING3) == parse_polynomial("x^3*y", RING3)

    def test_chained_power_rejected_at_second_caret(self):
        with pytest.raises(ParseError, match="expected '\\+' or '-', got '\\^'") as err:
            parse_polynomial("x^2^3", RING3)
        assert (err.value.line, err.value.col) == (1, 4)

    def test_degree_budget(self):
        assert parse_polynomial(f"x^{DEGREE_BUDGET}", RING3).total_degree() == DEGREE_BUDGET
        with pytest.raises(ParseError) as err:
            parse_ideal_file("ring x y z\n# a line\nx^99999999 - y^99999999\n")
        assert (err.value.line, err.value.col) == (3, 3)
        assert err.value.message == (
            f"a term of degree 99999999; the degree budget is {DEGREE_BUDGET}"
        )

    def test_degree_budget_counts_the_whole_term(self):
        text = f"x^{DEGREE_BUDGET - 1}*y z"
        with pytest.raises(ParseError, match="degree budget") as err:
            parse_polynomial(text, RING3)
        assert err.value.col == len(text)


class TestLongLiterals:
    @pytest.mark.parametrize("text,col,digits", LONG_LITERALS)
    def test_refused_at_the_literal(self, text, col, digits):
        with pytest.raises(ParseError) as err:
            parse_polynomial(text, RING3, line=2)
        assert (err.value.line, err.value.col) == (2, col)
        assert err.value.message == (
            f"a literal of {digits} digits; the limit is {sys.get_int_max_str_digits()} digits"
        )


class TestParseIdealFile:
    def test_twisted_cubic_file(self):
        text = "ring x y z w\ny^2 - z*x\ny*w - z^2\ny*z - x*w\n"
        spec = parse_ideal_file(text)
        assert spec.ring_vars == RING4
        assert len(spec.generators) == 3
        assert all(g.is_homogeneous() for g in spec.generators)

    def test_curve_with_linear_and_cubic(self):
        text = "ring x y z w\nw\nz*y^2 - x^3 + x*z^2 + z^3\n"
        spec = parse_ideal_file(text)
        assert [g.total_degree() for g in spec.generators] == [1, 3]

    def test_inhomogeneous_rejected_with_line(self):
        with pytest.raises(ParseError) as err:
            parse_ideal_file("ring x y z\n# fine so far\nx^2 + y\n")
        assert "inhomogeneous" in str(err.value)
        assert err.value.line == 3

    def test_missing_ring_line(self):
        with pytest.raises(ParseError, match="ring"):
            parse_ideal_file("x^2 + y^2\n")

    def test_comments_only_have_no_ring_line(self):
        with pytest.raises(ParseError) as err:
            parse_ideal_file("# comments\n\n# only\n")
        assert err.value.message == "missing ring line"

    def test_empty_generator_list(self):
        with pytest.raises(ParseError, match="empty generator list"):
            parse_ideal_file("ring x y z\n# nothing here\n")

    def test_zero_generator_rejected(self):
        with pytest.raises(ParseError, match="zero generator"):
            parse_ideal_file("ring x y z\n0\n")

    def test_comments_and_label(self):
        text = "# header\nring x y z\nlabel conic\nx^2 - y*z  # tail comment\n"
        spec = parse_ideal_file(text)
        assert spec.label == "conic"
        assert len(spec.generators) == 1

    def test_duplicate_variables_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_ideal_file("ring x y x\nx^2\n")


class TestValidateIdeal:
    """Ideals built in code skip the file parser's checks; both oracles
    refuse them before any work."""

    @pytest.mark.parametrize(
        "generator,message",
        [
            (Polynomial({}, RING3), "zero generator in ideal"),
            (parse_polynomial("x^2 + y", RING3), "inhomogeneous generator in ideal"),
            (parse_polynomial("x*y", RING4), "generator ring does not match ideal ring"),
        ],
    )
    @pytest.mark.parametrize(
        "oracle", [buchberger, lambda ideal: hilbert_function_table(ideal, 2)]
    )
    def test_refused(self, oracle, generator, message):
        ideal = IdealSpec(RING3, (parse_polynomial("x", RING3), generator))
        with pytest.raises(ValueError) as err:
            oracle(ideal)
        assert str(err.value) == message


class TestFormatPolynomial:
    def test_order_normalized(self):
        p = parse_polynomial("y^2 - z*x", RING3)
        assert format_polynomial(p) == "y^2 - x*z"

    def test_zero(self):
        assert format_polynomial(Polynomial.zero(RING3)) == "0"

    def test_rational_rendering(self):
        p = Polynomial({(2, 0, 0): Fraction(1, 2)}, RING3)
        assert format_polynomial(p) == "1/2*x^2"

    def test_leading_minus(self):
        p = Polynomial({(1, 0, 0): -1, (0, 0, 0): 2}, RING3)
        assert format_polynomial(p) == "-x + 2"

    @given(polynomials())
    def test_round_trip(self, p):
        assert parse_polynomial(format_polynomial(p), p.ring) == p

    @given(polynomials(ring=RING4, max_terms=6, max_exp=4))
    def test_round_trip_p3(self, p):
        assert parse_polynomial(format_polynomial(p), p.ring) == p
