import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from halphen import parsing
from halphen.cli import main
from halphen.graded import hilbert_function_table
from halphen.groebner import buchberger
from halphen.parsing import (
    DEGREE_BUDGET,
    VARIABLE_BUDGET,
    ParseError,
    parse_ideal_file,
    parse_point,
    parse_polynomial,
)
from halphen.poly import IdealSpec, Polynomial, format_polynomial

from conftest import LONG_LITERALS, RING3, RING4, polynomials
from reference import reference_parse_polynomial


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

    # a tail of whitespace is scanned once; rescanned from every position,
    # these 20 000 characters took about 20 s on a 2-vCPU x86-64 host
    def test_long_trailing_whitespace(self):
        tail = " \t" * 10_000
        assert parse_polynomial("x*y" + tail, RING3) == parse_polynomial("x*y", RING3)
        with pytest.raises(ParseError, match="^line 1, col 20001: empty polynomial$"):
            parse_polynomial(tail, RING3)
        with pytest.raises(ParseError, match="^line 1, col 20002: unexpected character '\\$'$"):
            parse_polynomial("x" + tail + "$", RING3)
        with pytest.raises(ParseError, match="^line 1, col 20003: expected a number or variable$"):
            parse_polynomial("x" + tail + "*", RING3)

    def test_ten_thousand_terms(self):
        text = " - ".join(f"{k}*x^{k % 5}*y" for k in range(1, 10_001))
        assert len(parse_polynomial(text, RING3).terms) == 5
        with pytest.raises(ParseError) as err:
            parse_polynomial(text + " +", RING3)
        assert (err.value.col, err.value.message) == (len(text) + 3, "expected a number or variable")

    # a text is tokenized by one findall; a refusal alone scans it once more,
    # and that scan stops at the refused token
    def test_one_scan_per_text_and_one_more_per_refusal(self, monkeypatch):
        scans = []

        class Counted:
            def findall(self, text):
                scans.append("findall")
                return pattern.findall(text)

            def finditer(self, text):
                scans.append("finditer")
                return pattern.finditer(text)

        pattern = parsing._TOKEN_RE
        monkeypatch.setattr(parsing, "_TOKEN_RE", Counted())
        parse_polynomial("x*y - 2 z^2", RING3)
        assert scans == ["findall"]
        with pytest.raises(ParseError):
            parse_polynomial("x*y - 2 z^2 ^", RING3)
        assert scans == ["findall", "findall", "finditer"]

    def test_unknown_variable(self):
        with pytest.raises(ParseError, match="unknown variable 't'"):
            parse_polynomial("y^2 - t*x", RING3)

    # a name is quoted whole up to 32 characters, then cut with its length
    @pytest.mark.parametrize(
        "name, shown",
        [("t" * 32, repr("t" * 32)), ("t" * 33, f"{'t' * 32!r}... (33 characters)")],
    )
    def test_long_names_are_cut(self, name, shown):
        with pytest.raises(ParseError) as err:
            parse_polynomial(f"y - {name}", RING3)
        assert err.value.message == f"unknown variable {shown}"
        with pytest.raises(ParseError) as err:
            parse_ideal_file(f"ring x 1{name[1:]}\nx\n")
        assert err.value.message == f"bad variable name {shown.replace('t', '1', 1)}"

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
            ("x + + y", 5, "unexpected '+'"),
            ("*x", 1, "unexpected '*'"),
            ("", 1, "empty polynomial"),
            ("   ", 4, "empty polynomial"),
            ("1/", 3, "expected an integer denominator"),
            ("x^", 3, "expected an integer exponent"),
            ("2/3/4", 4, "expected '+' or '-', got '/'"),
            ("x^2^3", 4, "expected '+' or '-', got '^'"),
            # a character that starts no token is refused before any grammar error
            ("x + + 0.5", 8, "decimal literals are not supported; use p/q"),
            ("x \u00e9", 3, "unexpected character '\u00e9'"),
            ("x\u00b2", 2, "unexpected character '\u00b2'"),  # SUPERSCRIPT TWO
        ],
    )
    def test_refused_at_the_offending_token(self, text, col, message):
        with pytest.raises(ParseError) as err:
            parse_polynomial(text, RING3)
        assert (err.value.line, err.value.col, err.value.message) == (1, col, message)

    @pytest.mark.parametrize(
        "text,col,message",
        [
            ("x +\t\t$y", 6, "unexpected character '$'"),
            (" \t  x   *    y   @", 18, "unexpected character '@'"),
            ("\t\t 0.5*x", 5, "decimal literals are not supported; use p/q"),
            ("x\t^\t 2  \t  ^3", 12, "expected '+' or '-', got '^'"),
        ],
    )
    def test_refused_after_runs_of_tabs_and_spaces(self, text, col, message):
        with pytest.raises(ParseError) as err:
            parse_polynomial(text, RING3)
        assert (err.value.line, err.value.col, err.value.message) == (1, col, message)
        with pytest.raises(ParseError) as err:
            parse_ideal_file(f"ring x y z\n\ny {text}\n")
        assert (err.value.line, err.value.col, err.value.message) == (3, col + 2, message)

    @pytest.mark.parametrize("indent", ["    ", "\t", " \t  "])
    @pytest.mark.parametrize(
        "text,col,message",
        [
            ("x + q", 5, "unknown variable 'q'"),
            ("x^2 + y z 1/0", 13, "zero denominator"),
            ("x +", 4, "expected a number or variable"),
        ],
    )
    def test_indented_generator_reports_columns_of_its_line(self, indent, text, col, message):
        for prefix in ("", indent):
            with pytest.raises(ParseError) as err:
                parse_ideal_file(f"ring x y z\n{prefix}{text}  # note\n")
            assert (err.value.line, err.value.col, err.value.message) == (2, len(prefix) + col, message)

    # `\\d` and `int` read every decimal digit, as in `parse_point`
    @pytest.mark.parametrize("text", ["\u0663*x", "x\u0663"])  # ARABIC-INDIC DIGIT THREE
    def test_non_ascii_decimal_digits_are_numbers(self, text):
        assert parse_polynomial(text, RING3) == parse_polynomial("3*x", RING3)

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


class TestVariableBudget:
    @staticmethod
    def _ring(n):
        return " ".join(f"x{i}" for i in range(n))

    def test_budget_admits_its_own_size(self):
        spec = parse_ideal_file(f"ring {self._ring(VARIABLE_BUDGET)}\nx0\n")
        assert spec.n_vars == VARIABLE_BUDGET

    def test_longer_ring_refused_at_its_line(self):
        n = VARIABLE_BUDGET + 1
        with pytest.raises(ParseError) as err:
            parse_ideal_file(f"# header\n\nring {self._ring(n)}\nx0\n")
        assert (err.value.line, err.value.col) == (3, 1)
        assert err.value.message == (
            f"a ring of {n} variables; the variable budget is {VARIABLE_BUDGET}"
        )


class TestLongLiterals:
    @pytest.mark.parametrize("text,col,digits", LONG_LITERALS)
    def test_refused_at_the_literal(self, text, col, digits):
        with pytest.raises(ParseError) as err:
            parse_polynomial(text, RING3, line=2)
        assert (err.value.line, err.value.col) == (2, col)
        assert err.value.message == (
            f"a literal of {digits} digits; the limit is {sys.get_int_max_str_digits()} digits"
        )


# Texts for the differential tests: signed terms of numbers, p/q, variables
# and powers, joined by "*" or juxtaposition, with runs of tabs and spaces
# between tokens; some get stray characters, doubled or trailing operators,
# literals past the int-string limit or terms past the degree budget.
NUMBERS = st.sampled_from([*map(str, range(13)), "30", "\u0663", "007", "9" * 5000])
POWERS = st.sampled_from(
    ["0", "1", "2", "2", "3", "\u0663", str(DEGREE_BUDGET // 2), str(DEGREE_BUDGET + 1), "9" * 5000]
)
NAMES = st.sampled_from(["x", "y", "z"] * 4 + ["t", "x1"])
FACTORS = st.one_of(
    NUMBERS.map(lambda n: [n]),
    st.tuples(NUMBERS, NUMBERS).map(lambda pq: [pq[0], "/", pq[1]]),
    NAMES.map(lambda v: [v]),
    st.tuples(NAMES, POWERS).map(lambda vp: [vp[0], "^", vp[1]]),
)
BROKEN = st.sampled_from(
    [".", "0.5", "\u00e9", "\u00b2", "\u0663", "$", "+", "-", "*", "/", "^", "+ +", "* *",
     "x^-2", "x^", "1/", "2/3/4", "x^2^3", "9" * 5000, f"y^{DEGREE_BUDGET}"]
)
GAPS = st.text(alphabet=" \t", max_size=3)


@st.composite
def polynomial_texts(draw):
    pieces = []
    for k in range(draw(st.integers(1, 4))):
        pieces += draw(st.sampled_from([[], ["+"], ["-"]] if k == 0 else [["+"], ["-"]]))
        for j in range(draw(st.integers(1, 3))):
            pieces += draw(st.sampled_from([["*"], []])) if j else []
            pieces += draw(FACTORS)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        pieces.insert(draw(st.integers(0, len(pieces))), draw(BROKEN))
    gaps = draw(st.lists(GAPS, min_size=len(pieces) + 1, max_size=len(pieces) + 1))
    return "".join(gap + piece for gap, piece in zip(gaps, pieces + [""]))


def outcome(read, *args):
    """What a reader gives: its result with every term in order, or its refusal."""
    try:
        p = read(*args)
    except ParseError as err:
        return err.message, err.line, err.col
    if isinstance(p, IdealSpec):
        return p.ring_vars, [list(g.terms.items()) for g in p.generators], p.label
    return p.ring, list(p.terms.items())


class TestAgainstReference:
    """`parse_polynomial` against the one-match-per-token reader it replaced."""

    @given(polynomial_texts(), st.integers(1, 9))
    def test_same_polynomial_or_refusal(self, text, line):
        assert outcome(parse_polynomial, text, RING3, line) == outcome(
            reference_parse_polynomial, text, RING3, line
        )

    @given(polynomial_texts(), st.text(alphabet=" \t", min_size=1, max_size=4))
    def test_same_through_an_ideal_file(self, text, indent):
        ideal = f"ring x y z\n# a generator line\n{indent}{text}\n"
        got = outcome(parse_ideal_file, ideal)
        with mock.patch.object(parsing, "parse_polynomial", reference_parse_polynomial):
            assert outcome(parse_ideal_file, ideal) == got

    # the parser skips the constructor's checks, so its normal form is checked here
    @given(polynomial_texts())
    def test_normal_form(self, text):
        try:
            p = parse_polynomial(text, RING3)
        except ParseError:
            return
        assert p.ring == RING3
        for mono, c in p.terms.items():
            assert type(c) is Fraction and c != 0
            assert type(mono) is tuple and len(mono) == len(RING3)
            assert all(type(e) is int and e >= 0 for e in mono)


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

    def test_label_is_not_a_variable_name(self):
        # with a variable `label`, the generator "label - x" read as the label
        with pytest.raises(ParseError) as err:
            parse_ideal_file("ring label x y\nlabel - x\nx*y - y^2\n")
        assert (err.value.line, err.value.col) == (1, 1)
        assert err.value.message == "'label' is reserved and cannot name a variable"

    def test_duplicate_variables_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_ideal_file("ring x y x\nx^2\n")

    # a file with two faulty generators is refused for the first one, by the
    # file reader and by the command alike
    TWO_FAULTS = [
        ("x^2 + y", "x + + y", "line 2, col 1: inhomogeneous generator: terms of degrees 1 to 2"),
        ("x - x", "x $ y", "line 2, col 1: zero generator"),
        ("x + + y", "x - x", "line 2, col 5: unexpected '+'"),
    ]

    @pytest.mark.parametrize("first,second,message", TWO_FAULTS)
    def test_first_of_two_faults(self, first, second, message):
        with pytest.raises(ParseError) as err:
            parse_ideal_file(f"ring x y z\n{first}\n{second}\n")
        assert str(err.value) == message

    @pytest.mark.parametrize("first,second,message", TWO_FAULTS)
    def test_first_of_two_faults_through_the_command(self, capsys, tmp_path, first, second, message):
        path = tmp_path / "two_faults.ideal"
        path.write_text(f"ring x y z\n{first}\n{second}\n")
        assert main(["invariants", "--ideal", str(path)]) == 1
        assert capsys.readouterr() == ("", f"halphen: error: {message}\n")


class TestParsePoint:
    def test_parse(self):
        assert parse_point("1:0:0:0") == (1, 0, 0, 0)
        assert parse_point("[1/2:1:0]") == (Fraction(1, 2), 1, 0)
        with pytest.raises(ValueError):
            parse_point("1:q:0")

    # each coordinate is whatever Fraction reads; the expected tuples are
    # what the reader gave before it moved out of geometry
    @pytest.mark.parametrize(
        "text,coords",
        [
            ("1:0:0:0", (1, 0, 0, 0)),
            ("[1/2:1:0]", (Fraction(1, 2), 1, 0)),
            (" 1 : -2/3 : 0.25 ", (1, Fraction(-2, 3), Fraction(1, 4))),
            ("+3:.5:1.:0", (3, Fraction(1, 2), 1, 0)),
            ("1_0:0:1", (10, 0, 1)),
            ("\u0663:1:0", (3, 1, 0)),  # ARABIC-INDIC DIGIT THREE
        ],
    )
    def test_accepted(self, text, coords):
        got = parse_point(text)
        assert got == coords
        assert all(type(c) is Fraction for c in got)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("1:q:0", "coordinate 2 is not a number"),
            ("1:0:", "coordinate 3 is not a number"),
            ("", "coordinate 1 is not a number"),
            ("inf:0:1", "coordinate 1 is not a number"),
            ("1:0:2e3", "coordinate 3 uses exponent notation, which is not supported"),
            ("0:1E3000000:1", "coordinate 2 uses exponent notation, which is not supported"),
            ("1:1/0:0", "coordinate 2 has a zero denominator"),
        ],
    )
    def test_refused_by_position(self, text, message):
        with pytest.raises(ValueError) as err:
            parse_point(text)
        assert str(err.value) == f"bad point: {message}"

    # the same refusal text as a long literal in a polynomial; int() counts
    # digits without underscores
    @pytest.mark.parametrize(
        "coordinate,digits",
        [("1/" + "7" * 5000, 5000), ("1_" * 5000 + "1", 5001), ("0." + "3" * 5000, 5000)],
    )
    def test_literal_past_the_int_string_limit(self, coordinate, digits):
        with pytest.raises(ParseError) as literal:
            parse_polynomial("7" * digits + "*x", RING3)
        with pytest.raises(ValueError) as err:
            parse_point(f"1:{coordinate}:0")
        assert str(err.value) == f"bad point: coordinate 2 is {literal.value.message}"

    def test_underscores_within_the_limit(self):
        limit = sys.get_int_max_str_digits()
        assert parse_point("1_" * (limit - 1) + "1:0") == (int("1" * limit), 0)


class TestValidateIdeal:
    """Ideals built in code skip the file parser's checks; `IdealSpec`
    refuses them when it is made, so no oracle sees one."""

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
        with pytest.raises(ValueError) as err:
            oracle(IdealSpec(RING3, (parse_polynomial("x", RING3), generator)))
        assert str(err.value) == message
        # raised while the spec was made, before the oracle was called
        assert [entry.name for entry in err.traceback[1:]] == ["__init__"]


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
