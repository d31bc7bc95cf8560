import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halphen.linalg import exact_rank

from conftest import integer_rows

ACCELERATOR_PRIME = 2_147_483_629  # largest prime below 2^31


def naive_rank(rows, n_cols):
    """Plain Gaussian elimination over Fraction: the reference oracle."""
    matrix = []
    for row in rows:
        matrix.append([Fraction(row.get(j, 0)) for j in range(n_cols)])
    rank = 0
    col = 0
    while matrix and col < n_cols:
        pivot = next((i for i in range(rank, len(matrix)) if matrix[i][col]), None)
        if pivot is None:
            col += 1
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        for i in range(rank + 1, len(matrix)):
            if matrix[i][col]:
                factor = matrix[i][col] / matrix[rank][col]
                matrix[i] = [a - factor * b for a, b in zip(matrix[i], matrix[rank])]
        rank += 1
        col += 1
    return rank


def modp_rank(rows, n_cols, p=ACCELERATOR_PRIME):
    """Rank over GF(p), by sparse elimination: a cross-check on `exact_rank`.
    Always <= the rational rank; equality holds for all but finitely many
    primes."""
    pivots = {}
    for raw in rows:
        row = {}
        for k, v in raw.items():
            if not 0 <= k < n_cols:
                raise ValueError(f"column {k} outside 0..{n_cols - 1}")
            v = Fraction(v)
            r = v.numerator * pow(v.denominator, -1, p) % p
            if r:
                row[k] = r
        while row:
            c = min(row)
            pivot = pivots.get(c)
            if pivot is None:
                inv = pow(row[c], -1, p)
                pivots[c] = {k: v * inv % p for k, v in row.items()}
                break
            a = row[c]
            for k, v in pivot.items():
                nv = (row.get(k, 0) - a * v) % p
                if nv:
                    row[k] = nv
                else:
                    del row[k]
    return len(pivots)


def random_sparse_rows(rng, n_rows, n_cols, density=0.4):
    rows = []
    for _ in range(n_rows):
        row = {}
        for j in range(n_cols):
            if rng.random() < density:
                row[j] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        rows.append(row)
    return rows


def test_known_small_ranks():
    assert exact_rank([]) == 0
    assert exact_rank([{}]) == 0
    assert exact_rank([{0: 1}, {0: 2}]) == 1
    assert exact_rank([{0: 1, 1: 1}, {0: 1, 1: -1}]) == 2
    assert exact_rank(integer_rows([{0: Fraction(1, 2)}, {1: 1}, {0: 3, 1: 5}])) == 2


def test_rational_cancellation():
    # rows dependent only after exact rational arithmetic
    rows = [
        {0: Fraction(1, 3), 1: Fraction(1, 7)},
        {0: Fraction(2, 3), 1: Fraction(2, 7)},
    ]
    assert exact_rank(integer_rows(rows)) == 1


def test_against_naive_oracle_randomized():
    rng = random.Random(20240811)
    for _ in range(60):
        n_rows = rng.randint(0, 8)
        n_cols = rng.randint(1, 8)
        rows = random_sparse_rows(rng, n_rows, n_cols)
        assert exact_rank(integer_rows(rows)) == naive_rank(rows, n_cols)


def test_modp_agrees_with_exact_randomized():
    rng = random.Random(987123)
    for _ in range(60):
        n_rows = rng.randint(0, 10)
        n_cols = rng.randint(1, 10)
        rows = random_sparse_rows(rng, n_rows, n_cols)
        assert modp_rank(rows, n_cols) == exact_rank(integer_rows(rows))


@settings(max_examples=60)
@given(
    st.lists(
        st.dictionaries(st.integers(0, 6), st.integers(-20, 20), max_size=7),
        max_size=8,
    )
)
def test_exact_matches_naive_property(rows):
    assert exact_rank(integer_rows(rows)) == naive_rank(rows, 7)


@settings(max_examples=60)
@given(
    st.lists(
        st.dictionaries(st.integers(0, 6), st.integers(-20, 20), max_size=7),
        max_size=8,
    ),
    st.integers(0, 8),
)
def test_extending_an_echelon_form_adds_the_rank_increase(rows, cut):
    pivots = {}
    first = exact_rank(integer_rows(rows[:cut]), pivots)
    assert first == naive_rank(rows[:cut], 7)
    rest = exact_rank(integer_rows(rows[cut:]), pivots)
    assert first + rest == naive_rank(rows, 7) == len(pivots)


def test_row_scaling_invariance():
    rng = random.Random(5)
    rows = integer_rows(random_sparse_rows(rng, 6, 6))
    scaled = [{k: -6 * v for k, v in row.items()} for row in rows]
    assert exact_rank(rows) == exact_rank(scaled)


BIG = 2**80


@st.composite
def big_integer_matrices(draw):
    """Integer rows with entries up to 2^80 that all share leading column 0,
    plus integer combinations of them: the pivots' leading entries are
    rarely +-1, so elimination has to scale rows and strip their content."""
    n_cols = draw(st.integers(2, 7))
    entry = st.integers(-BIG, BIG)
    rows = draw(
        st.lists(
            st.builds(
                lambda lead, rest: {**rest, 0: lead},
                entry.filter(bool),
                st.dictionaries(st.integers(1, n_cols - 1), entry, max_size=n_cols - 1),
            ),
            min_size=1,
            max_size=7,
        )
    )
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows) - 1))
        s, t = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        keys = rows[i].keys() | rows[j].keys()
        rows.append({k: s * rows[i].get(k, 0) + t * rows[j].get(k, 0) for k in keys})
    return rows, n_cols


@settings(max_examples=150)
@given(big_integer_matrices())
def test_exact_matches_naive_on_big_integer_rows(matrix):
    rows, n_cols = matrix
    assert exact_rank(integer_rows(rows)) == naive_rank(rows, n_cols)


def test_denominators_are_cleared_per_entry():
    # dependent over Q (the second row is 6 times the first), but not after
    # dropping the denominators
    assert exact_rank(integer_rows([{0: Fraction(1, 2), 1: Fraction(1, 3)}, {0: 3, 1: 2}])) == 1
    assert modp_rank([{0: Fraction(1, 2), 1: Fraction(1, 3)}, {0: 3, 1: 2}], 2) == 1


def test_input_rows_are_not_modified():
    rows = [{0: 6, 1: 4}, {0: 4, 1: 6, 2: 3}, {0: 2, 2: 3}]
    before = [dict(row) for row in rows]
    exact_rank(rows)
    assert rows == before


def test_modp_rejects_column_outside_matrix():
    with pytest.raises(ValueError, match="column 3"):
        modp_rank([{3: 1}], 3)
