import hashlib
import random
import sys
from fractions import Fraction
from itertools import combinations
from math import gcd
from operator import add
from pathlib import Path

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

from conftest import (
    FIXTURES,
    RING3,
    RING4,
    dense_form,
    integer_rows,
    load_ideal,
    nonzero_rationals,
    plain_rank,
    random_rnc,
    record_rank_calls,
)
from reference import enumerate_monomials

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from workloads import Rank  # noqa: E402


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

    # the tables the rank benchmark times, past stabilization
    @pytest.mark.parametrize("seed", [3, 4])
    @pytest.mark.parametrize("degrees,m_max", [((3, 4), 10), ((4, 4), 12), ((3, 3, 3), 8)])
    def test_complete_intersection_at_benchmark_sizes(self, degrees, m_max, seed):
        rng = random.Random(1000 * seed + sum(degrees))
        ideal = IdealSpec(RING4, tuple(dense_form(rng, RING4, d) for d in degrees))
        table = hilbert_function_table(ideal, m_max)
        assert table.values == {m: koszul_hilbert(degrees, m) for m in range(m_max + 1)}

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("n", [6, 7])
    def test_rational_normal_curve_at_benchmark_sizes(self, n, seed):
        ideal = random_rnc(random.Random(100 * seed + n), n)
        table = hilbert_function_table(ideal, 6)
        assert table.values == {m: n * m + 1 for m in range(7)}

    def test_twisted_cubic_to_high_degree(self, twisted_cubic):
        # binomial rows, each degree x_j times the previous one's pivots,
        # at a degree `halphen hilbert --max-degree 40` reaches
        table = hilbert_function_table(twisted_cubic, 40)
        assert table.values == {m: 3 * m + 1 for m in range(41)}


def macaulay_hilbert(ideal, m):
    """H(m) from the rank of the full Macaulay matrix: every multiple u*f of
    degree m, with f's own coefficients, cleared by `integer_rows`, then
    `plain_rank`.  The reference for the row criterion of
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
    return len(basis) - plain_rank(integer_rows(rows))


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
    reduce to zero and the table never extends them."""
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


def recorded_calls(ideal, m_max):
    """Every `exact_rank` call a table makes, in call order, as a
    `RankCall` (rows, leads, pivots, zero, added); each row is keyed from
    its leading column, which the recorder asserts."""
    with pytest.MonkeyPatch.context() as patch:
        calls = record_rank_calls(patch, graded)
        hilbert_function_table(ideal, m_max)
    return calls


def code_base(m_max):
    """The base of the packed codes: the smallest above m_max that is 2 mod 4."""
    return next(b for b in range(m_max + 1, m_max + 5) if b % 4 == 2)


def decode(code, base, n):
    """The exponent tuple of a packed code, x_0 the least significant digit."""
    digits = []
    for _ in range(n):
        code, e = divmod(code, base)
        digits.append(e)
    assert code == 0
    return tuple(digits)


def placed(row, lead, leading_first):
    """The row {lead + k: v}, in the order of `row`, or with its leading
    entry moved to the front."""
    out = {lead + k: v for k, v in row.items()}
    if leading_first:
        c = min(out)
        out = {c: out.pop(c)} | out
    return out


def tuple_blocks(ideal, m_max):
    """The blocks of a table on exponent tuples, each row checked against
    the rule that built it, as (m, f, us, rows, zero, added): the degree,
    the generator, the monomial u of each row, the rows as dicts exponent
    tuple -> coefficient, the indices of the rows that reduced to zero, and
    the pivot columns the block added, as exponent tuples.  Each row is the
    dict handed over with its lead added to every key, its entries in the
    dict's order; after a block's first degree its leading entry comes
    first, as when such a row was built as a leading entry and a tail.

    Each row is matched to its u by what was handed over, not by its
    entries, which two u of one block may share (one of them then reduces
    to zero).  In the first degree of f the lead is the code of u plus
    f's smallest code, and the row is the Macaulay row of u*f, with f's
    primitive integer coefficients.  In every later degree the row of u is
    the very stored row that (u/x_j)*f left in the previous degree's
    echelon form, x_j the last variable of u, with its pivot column plus
    B^j as its lead, and its entries are x_j times that row's.  The stored
    row of each nonzero row is the one at the key its block added for it:
    the added keys come in the order of the nonzero rows."""
    n = ideal.n_vars
    base = code_base(m_max)
    gens = sorted(ideal.generators, key=Polynomial.total_degree)
    blocks = [(m, i) for m in range(m_max + 1) for i, f in enumerate(gens) if f.total_degree() <= m]
    calls = recorded_calls(ideal, m_max)
    assert len(calls) == len(blocks)
    # i -> u -> the stored row of u*f_i in the previous degree, its pivot
    # column, and the row's entries on exponent tuples
    stored = {}
    out = []

    def code(u):
        return sum(e * base**k for k, e in enumerate(u))

    for (m, i), (handed, leads, pivots, zero, added) in zip(blocks, calls):
        f = gens[i]
        d = f.total_degree()
        monos = enumerate_monomials(n, m - d)  # degrevlex-descending
        if m == d:
            terms = primitive(f.terms)
            expect = {u: {tuple(map(add, u, mono)): c for mono, c in terms.items()} for u in monos}
            lo = min(map(code, terms))
            by_handover = {code(u) + lo: u for u in monos}
            us = [by_handover.get(c) for c in leads]
        else:
            expect, by_handover = {}, {}
            for u in monos:
                j = max(k for k, e in enumerate(u) if e)
                v = u[:j] + (u[j] - 1,) + u[j + 1 :]
                if v in stored[i]:
                    row, p, entries = stored[i][v]
                    expect[u] = {
                        mono[:j] + (mono[j] + 1,) + mono[j + 1 :]: c for mono, c in entries.items()
                    }
                    by_handover[id(row), p + base**j] = u
            assert len(by_handover) == len(expect)
            us = [by_handover.get((id(row), c)) for row, c in zip(handed, leads)]
        assert None not in us
        rows = [placed(row, c, m > d) for row, c in zip(handed, leads)]
        rows = [{decode(code, base, n): c for code, c in row.items()} for row in rows]
        assert rows == [expect[u] for u in us]
        # u increases within the block
        position = {u: k for k, u in enumerate(monos)}
        assert all(position[a] > position[b] for a, b in zip(us, us[1:]))
        nonzero = [u for t, u in enumerate(us) if t not in zero]
        assert len(nonzero) == len(added)
        stored[i] = {}
        for u, p in zip(nonzero, added):
            row = pivots[p]
            entries = placed(row, p, True)
            stored[i][u] = row, p, {decode(k, base, n): c for k, c in entries.items()}
        out.append((m, f, us, rows, zero, [decode(p, base, n) for p in added]))
    return out


def ci_34():
    rng = random.Random(7)
    return IdealSpec(RING4, (dense_form(rng, RING4, 3), dense_form(rng, RING4, 4)))


class TestRowReuse:
    """Rows after a block's first degree are x_j times the rows the previous
    degree stored: the rows kept, the zero rows and the pivots stay those
    the Macaulay rows u*f give."""

    # sha256 of (number of rows, indices of the zero rows) per exact_rank
    # call; ci(3,4) and rnc(6) recorded when every row was built from its
    # generator, the twisted cubic when blocks stopped carrying the u
    # known to be redundant, so that a row whose divisor by an earlier
    # variable reduced to zero is handed over and reduces to zero; the
    # other fixtures, to degree 6, while the table still carried the
    # previous degree's echelon form to find each stored row
    BLOCKS = {
        "twisted_cubic": "f5af829981e3b0e11c87fae56240277647d589445852d7e61bf6d5fdf717e300",
        "ci(3,4)": "235afd9a79b5bb138955893f18687f42cb3dcb03ab0760335ac8f9f8b1003fb1",
        "rnc(6)": "482e2350bd2fbca8956b7cf6d6203f998efcab011019f88bf3bd1c6007375586",
        "c0": "0ad18a6b3d5618966008177742415ec8a85105925f90262cb12aec95f378e5a7",
        "ct_1": "0ad18a6b3d5618966008177742415ec8a85105925f90262cb12aec95f378e5a7",
        "ct_half": "0ad18a6b3d5618966008177742415ec8a85105925f90262cb12aec95f378e5a7",
        "ct_neg2": "0ad18a6b3d5618966008177742415ec8a85105925f90262cb12aec95f378e5a7",
        "curve_E": "60f6531afe6d12abfba0229ef83b6c9e128fb159a4e92f0664b6c94261991044",
        "line_L": "b50b90c3bc4eebfc0d7492411aaa5b8d527bc05c67c3cf240ce1525f3a17e6b9",
        "plane_d1": "2db3394f2eb297745a22604614702281b2075c4bcbcbcb5dd834e4888383b00d",
        "plane_d2": "a7ac3e8e44718a89a9ebaf72512a2e1cb690ae6a0d76dcc31ee8f881abb1a796",
        "plane_d3": "8cdaeb1c42e94d61286d7563bc3546c5d3e395d30d1a70ec4a9bdfb01350fc75",
        "plane_d4": "9759bbbe766ae4b21e9a4178d5c182e0903c4fd03b64601c230cc091076c8dbf",
        "plane_d5": "c7033302be16bc47a33dce6c22e90b4d41765a074c123c9350bd736c619d68ed",
        "two_quadrics": "0ad18a6b3d5618966008177742415ec8a85105925f90262cb12aec95f378e5a7",
        "zero4": "a60cf9aa59f244ad7b18082482bc1cc5a347c27b09b03153f3f66b627c448056",
    }

    @staticmethod
    def case_ideal(case):
        """The ideal and m_max of a digest case: a `TestPackedMonomials.GOLDEN`
        case, or else the fixture of that name to degree 6."""
        if case in TestPackedMonomials.GOLDEN:
            make, m_max, _ = TestPackedMonomials.GOLDEN[case]
            return make(), m_max
        return load_ideal(case), 6

    @pytest.mark.parametrize("case", BLOCKS)
    def test_blocks_and_zero_rows_as_built_from_the_generators(self, case):
        calls = recorded_calls(*self.case_ideal(case))
        text = repr([(len(rows), zero) for rows, _, _, zero, _ in calls])
        assert hashlib.sha256(text.encode()).hexdigest() == self.BLOCKS[case]
        # every row handed over is primitive
        assert all(gcd(*row.values()) == 1 for rows, *_ in calls for row in rows)

    # sha256 of the pivot columns each exact_rank call added, in the order
    # it added them; recorded while each block still carried the set of u
    # whose rows were known to be redundant, and unchanged by which rows
    # that reduce to zero are handed over; the other fixtures, to degree
    # 6, as BLOCKS
    PIVOTS = {
        "twisted_cubic": "eaee82806cc0445cfd6e49db1056edf7edd527cea589412ef3ec2f196728dc1a",
        "ci(3,4)": "37b66c9012137b78bf667ab884878578aee9ca0bc47d054238a5fc9d817cd7dc",
        "rnc(6)": "23180fd1c924ccb8f6db8d1c30202b022940b18bacd5d87224b34ea3fbdefb57",
        "c0": "67ae2e7ef58d0ea71b8ac16a2f18351f049d74684f1684b081757f03a0272f33",
        "ct_1": "b4992201d0b72cbaee34144b5a4d1fc2945b13f6254dbbc84479e69b2bb979de",
        "ct_half": "b4992201d0b72cbaee34144b5a4d1fc2945b13f6254dbbc84479e69b2bb979de",
        "ct_neg2": "b4992201d0b72cbaee34144b5a4d1fc2945b13f6254dbbc84479e69b2bb979de",
        "curve_E": "25702a5c09f9d45854672e62709be94c693a3a885a1c718c2c80542dad49a283",
        "line_L": "3fcc7e8fa78f4b2996266263953123fa3d8339a325352bd0ddcc3e98186c5a9d",
        "plane_d1": "d1ba9cbfc9f57b7d6b4899aab29e5c7d97781efe8c6d013918a59b18a3835347",
        "plane_d2": "4aa27a650e859adfcbb83e4803943f804a313a7a4f2a94a3b5419652739ea0d9",
        "plane_d3": "5b9e1a23f04187fc35dcf51c82be968df9234bc93fc22b67b3153805c5d0f4d6",
        "plane_d4": "a6a57948b4c12628b93a2d66510370510a806a3475e960f394be7bb00535749d",
        "plane_d5": "23bf797036410516c1a901e4612a7df9a9fb6f05d0888207ca003d50734ac166",
        "two_quadrics": "3c9b9f8524e397c4b9dff1ff225047b9abc0c05671313c0c4c38d99f3daa4580",
        "zero4": "179a1e3963ef6891aa75eba8f2f468ad8f4291424f13b6a7023300b71208fc86",
    }

    @pytest.mark.parametrize("case", PIVOTS)
    def test_pivot_columns_as_built_from_the_generators(self, case):
        calls = recorded_calls(*self.case_ideal(case))
        text = repr([added for *_, added in calls])
        assert hashlib.sha256(text.encode()).hexdigest() == self.PIVOTS[case]

    @pytest.mark.parametrize(
        "family", [with_repeated_generator, with_monomial_multiple, not_saturated, with_syzygies]
    )
    @settings(max_examples=25)
    @given(data=st.data())
    def test_zero_rows_and_pivots_of_the_macaulay_rows(self, family, data):
        ideal = data.draw(family())
        assert_macaulay_zero_rows_and_pivots(tuple_blocks(ideal, 5 if ideal.n_vars == 3 else 4))

    def test_two_rows_of_one_block_with_the_same_entries(self):
        # in degree 5 the block of x*y^2 hands over the row x*y^4 twice:
        # for u = y^2, and for u = x^2, which then reduces to zero
        gens = ("x^2*y - y^3", "x^2*y - y^3", "x*y^2")
        ideal = IdealSpec(RING3, tuple(parse_polynomial(f, RING3) for f in gens))
        blocks = tuple_blocks(ideal, 5)
        m, f, us, rows, zero, _ = blocks[-1]
        assert (m, f) == (5, ideal.generators[2])
        y2, x2 = us.index((0, 2, 0)), us.index((2, 0, 0))
        assert rows[y2] == rows[x2] == {(1, 4, 0): 1}
        assert x2 in zero and y2 not in zero
        assert_macaulay_zero_rows_and_pivots(blocks)

    @pytest.mark.parametrize(
        "text,m_max",
        [
            # one variable: every u is a power of x_0, walked at j = 0 only
            ("ring x\nx^3\n", 6),
            # the constant 3 is F5-skipped in its first degree, so in every
            # later degree its block walks an empty column
            ("ring x y z\nx^2 - y*z\n5\n3\n", 3),
            # the quadrics step from their first degree, where v = 1, to
            # every x_j, while the cubic's block first appears at m_max
            ("ring x y z w\ny*z - x*w\nx*z - y^2\ny*w - z^2\nx^3 + w^3\n", 3),
            # the twisted cubic: in degree 3 the rows z*f and y*f of
            # f = y*z - x*w reduce to zero; in degree 4 the rows x*z*f and
            # x*y*f, walked from the kept row x*f, are handed over and
            # reduce to zero too, as their divisors z and y by the earlier
            # variable x did
            ("ring x y z w\ny^2 - z*x\ny*w - z^2\ny*z - x*w\n", 6),
        ],
        ids=["one-variable", "skipped-constant", "first-degree-step", "twisted-cubic"],
    )
    def test_walk_edges(self, text, m_max):
        ideal = parse_ideal_file(text)
        assert_macaulay_zero_rows_and_pivots(tuple_blocks(ideal, m_max))
        table = hilbert_function_table(ideal, m_max)
        assert table.values == {m: macaulay_hilbert(ideal, m) for m in range(m_max + 1)}


def assert_macaulay_zero_rows_and_pivots(blocks):
    """The Macaulay rows u*f of the same u, block after block into one
    echelon form per degree, reduce to zero at the same indices and add
    the same pivot columns as the rows a table handed over."""
    echelon = {}
    for m, f, us, rows, zero, added in blocks:
        n = len(f.ring)
        assert all(gcd(*row.values()) == 1 for row in rows)
        basis = enumerate_monomials(n, m)
        index = {mono: j for j, mono in enumerate(basis)}
        terms = primitive(f.terms)
        pivots = echelon.setdefault(m, {})
        before = len(pivots)
        want_zero = []
        plain_rank(
            [{index[tuple(map(add, u, mono))]: c for mono, c in terms.items()} for u in us],
            pivots,
            want_zero,
        )
        assert zero == want_zero
        assert [index[p] for p in added] == list(pivots)[before:]


class TestPackedMonomials:
    """The packed encoding inside `hilbert_function_table` against tuples."""

    # sha256 of the rows handed to exact_rank, in call order, each row on
    # the positions of enumerate_monomials with its entries in the order
    # they were built; ci(3,4) and rnc(6) recorded when the rows after a
    # block's first degree became x_j times the rows the previous degree
    # stored, the twisted cubic when blocks stopped carrying the u known
    # to be redundant
    GOLDEN = {
        "twisted_cubic": (
            lambda: load_ideal("twisted_cubic"),
            6,
            "59b68a5f9890cf1aafe4922ef64b9174136fd0b730e11ca67ac99d1a9ed78f95",
        ),
        "ci(3,4)": (
            ci_34,
            10,
            "40810b1973dede65e1cf5e0dd7f545b7e0ad9277ae00dcba84a8e3817d96417f",
        ),
        "rnc(6)": (
            lambda: random_rnc(random.Random(7), 6),
            6,
            "eb02e67acda31751a24fef1029d28cba68879f57f78e1fffc33642ad68b3ee9f",
        ),
    }

    @pytest.mark.parametrize("case", GOLDEN)
    def test_same_rows_as_tuple_columns(self, case):
        make, m_max, digest = self.GOLDEN[case]
        ideal = make()
        n = ideal.n_vars
        index = {
            m: {mono: j for j, mono in enumerate(enumerate_monomials(n, m))}
            for m in range(m_max + 1)
        }
        calls = [
            [{index[m][mono]: c for mono, c in row.items()} for row in rows]
            for m, _, _, rows, _, _ in tuple_blocks(ideal, m_max)
        ]
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
        # the pivot, the smallest code, is the largest monomial, and a
        # block's u come smallest first as the walk makes them in
        # descending code: both rest on codes ascending within a degree
        for m_max in range(8):
            base = code_base(m_max)
            assert m_max < base <= m_max + 4 and base % 4 == 2
            for m in range(m_max + 1):
                monos = enumerate_monomials(n, m)
                codes = [sum(e * base**k for k, e in enumerate(u)) for u in monos]
                assert all(a < b for a, b in zip(codes, codes[1:]))
                assert [decode(code, base, n) for code in codes] == monos


def traced_tables():
    """Each fixture's table to degree 6, and each table of the rank
    benchmark's seed-1 round 0, as a call."""
    for path in sorted(FIXTURES.glob("*.ideal")):
        ideal = parse_ideal_file(path.read_text())
        yield pytest.param(lambda ideal=ideal: hilbert_function_table(ideal, 6), id=path.stem)
    for op in Rank(1).round_ops(0):
        yield pytest.param(op.call, id=op.family)


@pytest.mark.parametrize("table", traced_tables())
def test_exact_rank_calls_as_the_benchmark_tracer_reads_them(table, monkeypatch):
    # bench/tracing.py counts the rows of each call as len(args[0]); the
    # recorder asserts that they come as a list, each row with min 0
    calls = record_rank_calls(monkeypatch, graded)
    table()
    assert calls


def pivots_stored_after_a_step(table):
    """Run `table`, assert that every pivot row it stored is keyed from its
    column, with nonzero entries, and primitive, and count the rows stored
    after a reduction step: those no call handed to the same echelon form."""
    with pytest.MonkeyPatch.context() as patch:
        calls = record_rank_calls(patch, graded)
        table()
    handed = {}
    for call in calls:
        handed.setdefault(id(call.pivots), (call.pivots, set()))[1].update(map(id, call.rows))
    count = 0
    for pivots, ids in handed.values():
        for row in pivots.values():
            assert min(row) == 0 and all(row.values())
            assert gcd(*row.values()) == 1
            count += id(row) not in ids
    return count


def test_every_stored_pivot_is_keyed_from_zero_and_primitive():
    # a row stored after a reduction step is a new dict, which must be
    # keyed from its pivot column as the rows handed over are; each table
    # of the rank benchmark's seed-1 round 0 stores such rows, and of the
    # fixtures to degree 6 two_quadrics does
    after_a_step = [
        pivots_stored_after_a_step(lambda: hilbert_function_table(load_ideal(path.stem), 6))
        for path in sorted(FIXTURES.glob("*.ideal"))
    ]
    assert any(after_a_step)
    assert all(pivots_stored_after_a_step(op.call) for op in Rank(1).round_ops(0))
