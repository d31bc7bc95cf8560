import hashlib
import random
from fractions import Fraction
from itertools import combinations
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halphen import graded
from halphen.graded import (
    RankBudgetExceeded,
    binom,
    hilbert_function,
    hilbert_function_table,
    ideal_piece_dimension,
)
from halphen.linalg import exact_rank
from halphen.parsing import parse_ideal_file, parse_polynomial
from halphen.poly import IdealSpec, Polynomial, primitive

from conftest import RING3, RING4, dense_form, integer_rows, load_ideal, nonzero_rationals, random_rnc
from reference import enumerate_monomials


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

    def test_negative_degree_refused(self, twisted_cubic):
        with pytest.raises(ValueError, match="degree must be non-negative"):
            hilbert_function(twisted_cubic, -1)
        with pytest.raises(ValueError, match="m_max must be non-negative"):
            hilbert_function_table(twisted_cubic, -1)

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


def macaulay_hilbert(ideal, m):
    """H(m) from the rank of the full Macaulay matrix: every multiple u*f of
    degree m, with f's own coefficients, cleared by `integer_rows`, then
    `exact_rank`.  The reference for the row criterion of
    `hilbert_function_table`."""
    n = ideal.n_vars
    basis = enumerate_monomials(n, m)
    index = {mono: j for j, mono in enumerate(basis)}
    rows = [
        {index[tuple(map(add, u, mono))]: c for mono, c in f.terms.items()}
        for f in ideal.generators
        if f.total_degree() <= m
        for u in enumerate_monomials(n, m - f.total_degree())
    ]
    return len(basis) - exact_rank(integer_rows(rows))


def forms(ring, degree, coeffs=st.integers(-3, 3).filter(bool), max_terms=4):
    """Homogeneous forms of the given degree with one to `max_terms` terms."""
    return st.dictionaries(
        st.sampled_from(enumerate_monomials(len(ring), degree)),
        coeffs,
        min_size=1,
        max_size=max_terms,
    ).map(lambda terms: Polynomial(terms, ring))


def monomials(ring, degree):
    return st.sampled_from(enumerate_monomials(len(ring), degree)).map(
        lambda mono: Polynomial({mono: 1}, ring)
    )


rings = st.sampled_from([RING3, RING4])


@st.composite
def with_repeated_generator(draw):
    ring = draw(rings)
    gens = [draw(forms(ring, draw(st.integers(1, 3)))) for _ in range(draw(st.integers(1, 3)))]
    gens.insert(draw(st.integers(0, len(gens))), draw(st.sampled_from(gens)))
    return IdealSpec(ring, tuple(gens))


@st.composite
def with_monomial_multiple(draw):
    ring = draw(rings)
    f = draw(forms(ring, draw(st.integers(1, 2))))
    u = draw(monomials(ring, draw(st.integers(1, 2))))
    gens = [f, u * f] + [draw(forms(ring, 2)) for _ in range(draw(st.integers(0, 1)))]
    return IdealSpec(ring, tuple(draw(st.permutations(gens))))


@st.composite
def in_decreasing_degree(draw):
    ring = draw(rings)
    degrees = sorted(draw(st.lists(st.integers(1, 3), min_size=2, max_size=4)), reverse=True)
    return IdealSpec(ring, tuple(draw(forms(ring, d)) for d in degrees))


@st.composite
def not_saturated(draw):
    """(x_1*f, .., x_n*f) = f*(x_1..x_n), whose saturation is (f), plus
    monomials: ideals whose Hilbert function differs from their saturation's."""
    ring = draw(rings)
    f = draw(forms(ring, draw(st.integers(1, 2))))
    gens = [Polynomial.variable(i, ring) * f for i in range(len(ring))]
    for _ in range(draw(st.integers(0, 2))):
        gens.append(draw(monomials(ring, draw(st.integers(2, 3)))))
    return IdealSpec(ring, tuple(gens))


@st.composite
def with_syzygies(draw):
    """A linear form beside monomials and binomials of degree 2 or 3, in 3
    to 5 variables: ideals with syzygies that are not Koszul, so some rows
    reduce to zero and the table skips their multiples."""
    ring = draw(st.sampled_from([RING3, RING4, ("x", "y", "z", "w", "v")]))
    gens = [draw(forms(ring, 1, max_terms=3))]
    for _ in range(draw(st.integers(2, 3))):
        gens.append(draw(forms(ring, draw(st.integers(2, 3)), max_terms=2)))
    return IdealSpec(ring, tuple(gens))


@st.composite
def with_rational_coefficients(draw):
    ring = draw(rings)
    degrees = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    return IdealSpec(ring, tuple(draw(forms(ring, d, nonzero_rationals)) for d in degrees))


class TestRowCriterion:
    """Tables built with skipped rows against the full Macaulay rank."""

    @pytest.mark.parametrize(
        "family",
        [
            with_repeated_generator,
            with_monomial_multiple,
            in_decreasing_degree,
            not_saturated,
            with_rational_coefficients,
            with_syzygies,
        ],
    )
    # with_syzygies needs about this many draws to find, on every seed tried,
    # an ideal on which a block taken largest first gives a wrong table
    @settings(max_examples=100)
    @given(data=st.data())
    def test_table_matches_full_macaulay_rank(self, family, data):
        ideal = data.draw(family())
        m_max = 6 if ideal.n_vars == 3 else 5
        table = hilbert_function_table(ideal, m_max)
        assert table.values == {m: macaulay_hilbert(ideal, m) for m in range(m_max + 1)}

    def test_multiples_of_zero_rows_skipped_in_increasing_order(self):
        # rows of the monomial blocks reduce to zero modulo the linear form;
        # with the rows of a block taken largest first, skipping the
        # multiples of those rows gave H(6) = 12
        ideal = parse_ideal_file("ring x y z w\n3*x + y + 2*z\n2*x^2*z\n3*z^2*w\n")
        table = hilbert_function_table(ideal, 6)
        assert list(table.values.values()) == [1, 3, 6, 8, 9, 10, 11]
        assert table.values == {m: macaulay_hilbert(ideal, m) for m in range(7)}

    @pytest.mark.parametrize("n", range(3, 9))
    def test_rational_normal_curve_zero_rows(self, n, monkeypatch):
        ideal = random_rnc(random.Random(n), n)
        blocks = []  # rows that added no pivot, per exact_rank call

        def counting_rank(rows, *args):
            rank = exact_rank(rows, *args)
            blocks.append(len(rows) - rank)
            return rank

        monkeypatch.setattr(graded, "exact_rank", counting_rank)
        values = hilbert_function_table(ideal, 7).values
        # one block per quadric in each degree m = 2..7
        quadrics = binom(n, 2)
        assert len(blocks) == 6 * quadrics
        zero_rows = [sum(blocks[k : k + quadrics]) for k in range(0, len(blocks), quadrics)]
        # degree 3 skips no row: C(n, 2)(n + 1) rows, of rank
        # dim I_3 = C(n + 3, 3) - (3n + 1), leave the 2 C(n, 3) linear syzygies
        assert values[3] == 3 * n + 1
        expect = binom(n, 2) * (n + 1) - binom(n + 3, 3) + 3 * n + 1
        assert zero_rows[1] == expect == 2 * binom(n, 3)
        assert zero_rows[0] == 0
        assert zero_rows[3:] == [0, 0, 0]

    def test_non_saturated_monomial_ideal(self):
        # (x^2, xy) has saturation (x): H(m) = m + 2 for m >= 1, one more than m + 1
        ideal = IdealSpec(RING3, tuple(parse_polynomial(f, RING3) for f in ("x^2", "x*y")))
        table = hilbert_function_table(ideal, 6)
        assert table.values == {0: 1, **{m: m + 2 for m in range(1, 7)}}

    @pytest.mark.parametrize("a,b", [(2, 2), (2, 3), (3, 4)])
    def test_complete_intersection_builds_no_koszul_row(self, a, b, monkeypatch):
        rng = random.Random(10 * a + b)
        ideal = IdealSpec(RING4, (dense_form(rng, RING4, a), dense_form(rng, RING4, b)))
        built = []

        def counting_rank(rows, *args):
            rank = exact_rank(rows, *args)
            built.append((len(rows), rank))
            return rank

        monkeypatch.setattr(graded, "exact_rank", counting_rank)
        for m_max in range(a + b + 4):
            built.clear()
            values = hilbert_function_table(ideal, m_max).values
            expect_rows = sum(
                binom(m - a + 3, 3) + binom(m - b + 3, 3) - binom(m - a - b + 3, 3)
                for m in range(m_max + 1)
            )
            assert sum(rows for rows, _ in built) == expect_rows
            # the ranks of the blocks add up to dim I_m
            assert sum(rank for _, rank in built) == sum(
                binom(m + 3, 3) - values[m] for m in range(m_max + 1)
            )


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


def exact_rank_inputs(ideal, m_max, monkeypatch):
    """The rows of every `exact_rank` call a table makes, in call order."""
    calls = []

    def recording_rank(rows, *args):
        calls.append(rows)
        return exact_rank(rows, *args)

    monkeypatch.setattr(graded, "exact_rank", recording_rank)
    hilbert_function_table(ideal, m_max)
    return calls


def ci_34():
    rng = random.Random(7)
    return IdealSpec(RING4, (dense_form(rng, RING4, 3), dense_form(rng, RING4, 4)))


class TestPackedMonomials:
    """The packed encoding inside `hilbert_function_table` against tuples."""

    # sha256 of the rows handed to exact_rank, in call order, each row with
    # its entries in the order they were built; recorded when the blocks
    # first came in increasing u, with the multiples of zero rows skipped
    GOLDEN = {
        "twisted_cubic": (
            lambda: load_ideal("twisted_cubic"),
            6,
            "e8db3bc1b7d8ded65dae1be1cd5d5a245aee94fa8ff92423984f3a36c863f29d",
        ),
        "ci(3,4)": (
            ci_34,
            10,
            "02d8270d4ceb4192e6f0d953a45e780b66dc1ab926d1276ddb37a622b04e33c8",
        ),
        "rnc(6)": (
            lambda: random_rnc(random.Random(7), 6),
            6,
            "7d7c7e36d82e9d14f399ce452bd4ef636c49d918580bbc8b89f3d86503ae4e18",
        ),
    }

    @pytest.mark.parametrize("case", GOLDEN)
    def test_same_rows_as_tuple_columns(self, case, monkeypatch):
        make, m_max, digest = self.GOLDEN[case]
        ideal = make()
        calls = exact_rank_inputs(ideal, m_max, monkeypatch)
        n = ideal.n_vars
        gens = sorted(ideal.generators, key=Polynomial.total_degree)
        blocks = [(m, f) for m in range(m_max + 1) for f in gens if f.total_degree() <= m]
        assert len(calls) == len(blocks)
        for rows, (m, f) in zip(calls, blocks):
            # the Macaulay row of each u*f on tuple columns, by the position
            # of u in the degrevlex-descending enumerate_monomials
            index = {mono: j for j, mono in enumerate(enumerate_monomials(n, m))}
            terms = primitive(f.terms)[1]
            position = {
                frozenset((index[tuple(map(add, u, mono))], c) for mono, c in terms.items()): k
                for k, u in enumerate(enumerate_monomials(n, m - f.total_degree()))
            }
            found = [position.get(frozenset(row.items())) for row in rows]
            assert None not in found
            # u increases within the block
            assert all(a > b for a, b in zip(found, found[1:]))
        assert hashlib.sha256("\n".join(map(repr, calls)).encode()).hexdigest() == digest

    def test_pure_powers_of_degree_m_max(self):
        # x^3 has the largest exponent a code of degree <= 3 can hold
        ideal = IdealSpec(RING4, tuple(parse_polynomial(f"{v}^3", RING4) for v in RING4))
        table = hilbert_function_table(ideal, 3)
        assert table.values == {m: macaulay_hilbert(ideal, m) for m in range(4)}
        assert table.values == {0: 1, 1: 4, 2: 10, 3: 16}

    def test_sixty_variables(self):
        rng = random.Random(60)
        ring = tuple(f"x{i}" for i in range(60))
        x = [Polynomial.variable(i, ring) for i in range(60)]
        linear = x[0] + x[59].scale(3) - x[31]
        sparse = sum((x[rng.randrange(60)] * x[rng.randrange(60)] for _ in range(20)), x[1] * x[2])
        ideal = IdealSpec(ring, (x[59] * x[59], linear, sparse, x[0] * x[58]))
        table = hilbert_function_table(ideal, 2)
        assert table.values == {m: macaulay_hilbert(ideal, m) for m in range(3)}

    @pytest.mark.parametrize("n", range(1, 8))
    def test_codes_decode_to_enumerate_monomials(self, n):
        for m_max in range(8):
            base = m_max + 1
            weights, bases = graded._packed_bases(n, m_max)
            assert weights == [base ** (n - 1 - i) for i in range(n)]
            assert len(bases) == m_max + 1
            for m, codes in enumerate(bases):
                decoded = []
                for code in codes:
                    digits = []
                    for _ in range(n):
                        code, e = divmod(code, base)
                        digits.append(e)
                    assert code == 0
                    decoded.append(tuple(reversed(digits)))
                assert decoded == enumerate_monomials(n, m)
