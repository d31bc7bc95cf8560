import random
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halphen import graded, linalg
from halphen.graded import hilbert_function_table
from halphen.linalg import exact_rank
from halphen.parsing import parse_ideal_file

from conftest import integer_rows, plain_rank, record_rank_calls
from reference import sequential_echelon

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from workloads import ci_text  # noqa: E402

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
    assert plain_rank([]) == 0
    assert plain_rank([{}]) == 0
    assert plain_rank([{0: 1}, {0: 2}]) == 1
    assert plain_rank([{0: 1, 1: 1}, {0: 1, 1: -1}]) == 2
    assert plain_rank(integer_rows([{0: Fraction(1, 2)}, {1: 1}, {0: 3, 1: 5}])) == 2


def test_rational_cancellation():
    # rows dependent only after exact rational arithmetic
    rows = [
        {0: Fraction(1, 3), 1: Fraction(1, 7)},
        {0: Fraction(2, 3), 1: Fraction(2, 7)},
    ]
    assert plain_rank(integer_rows(rows)) == 1


def test_against_naive_oracle_randomized():
    rng = random.Random(20240811)
    for _ in range(60):
        n_rows = rng.randint(0, 8)
        n_cols = rng.randint(1, 8)
        rows = random_sparse_rows(rng, n_rows, n_cols)
        assert plain_rank(integer_rows(rows)) == naive_rank(rows, n_cols)


def test_modp_agrees_with_exact_randomized():
    rng = random.Random(987123)
    for _ in range(60):
        n_rows = rng.randint(0, 10)
        n_cols = rng.randint(1, 10)
        rows = random_sparse_rows(rng, n_rows, n_cols)
        assert modp_rank(rows, n_cols) == plain_rank(integer_rows(rows))


@settings(max_examples=60)
@given(
    st.lists(
        st.dictionaries(st.integers(0, 6), st.integers(-20, 20), max_size=7),
        max_size=8,
    )
)
def test_exact_matches_naive_property(rows):
    assert plain_rank(integer_rows(rows)) == naive_rank(rows, 7)


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
    first = plain_rank(integer_rows(rows[:cut]), pivots)
    assert first == naive_rank(rows[:cut], 7)
    rest = plain_rank(integer_rows(rows[cut:]), pivots)
    assert first + rest == naive_rank(rows, 7) == len(pivots)


@settings(max_examples=60)
@given(
    st.lists(
        st.dictionaries(st.integers(0, 6), st.integers(-20, 20), max_size=7),
        max_size=8,
    ),
    st.integers(0, 8),
)
def test_each_nonzero_row_adds_one_key_at_the_end_in_row_order(rows, cut):
    # graded reads the pivot column each row took off the order of the keys
    rows = integer_rows(rows)
    pivots = {}
    plain_rank(rows[:cut], pivots)
    # the reference: one row per call, on a copy of the echelon form
    one_by_one = dict(pivots)
    added, expect_zero = [], []
    for t, row in enumerate(rows[cut:]):
        before = set(one_by_one)
        if plain_rank([row], one_by_one):
            (key,) = set(one_by_one) - before
            added.append(key)
        else:
            expect_zero.append(t)
    keys = list(pivots)
    zero = []
    plain_rank(rows[cut:], pivots, zero)
    assert list(pivots) == keys + added
    assert zero == expect_zero


def test_row_scaling_invariance():
    rng = random.Random(5)
    rows = integer_rows(random_sparse_rows(rng, 6, 6))
    scaled = [{k: -6 * v for k, v in row.items()} for row in rows]
    assert plain_rank(rows) == plain_rank(scaled)


BIG = 2**80


@st.composite
def big_integer_matrices(draw):
    """Integer rows with entries up to 2^80 that all share leading column 0,
    plus integer combinations of them: the pivots' leading entries are
    rarely +-1, so elimination has to scale rows, and a row that becomes
    a pivot after a step mostly has content to remove."""
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
    assert plain_rank(integer_rows(rows)) == naive_rank(rows, n_cols)


def test_denominators_are_cleared_per_entry():
    # dependent over Q (the second row is 6 times the first), but not after
    # dropping the denominators
    assert plain_rank(integer_rows([{0: Fraction(1, 2), 1: Fraction(1, 3)}, {0: 3, 1: 2}])) == 1
    assert modp_rank([{0: Fraction(1, 2), 1: Fraction(1, 3)}, {0: 3, 1: 2}], 2) == 1


def test_input_rows_are_not_modified():
    rows = [{0: 6, 1: 4}, {0: 4, 1: 6, 2: 3}, {0: 2, 2: 3}]
    before = [dict(row) for row in rows]
    plain_rank(rows)
    assert rows == before


@settings(max_examples=100)
@given(big_integer_matrices(), st.integers(1, 7), st.integers(-3, 3).filter(bool))
def test_stored_pivots_are_never_modified(matrix, cut, s):
    # a pivot keeps the dict its row was stored or reduced in: extending the
    # echelon form, by fresh rows and by multiples of the rows already in
    # it, which all reduce against the old pivots, must leave every old
    # pivot as it was
    rows, n_cols = matrix
    first, rest = integer_rows(rows[:cut]), integer_rows(rows[cut:])
    pivots = {}
    plain_rank(first, pivots)
    before = {c: pivot_entries(pivots, c) for c in pivots}
    zero = []
    plain_rank(rest + [{k: s * v for k, v in row.items()} for row in first], pivots, zero)
    assert {c: pivot_entries(pivots, c) for c in before} == before
    assert zero[-len(first):] == list(range(len(rest), len(rest) + len(first)))
    assert len(pivots) == naive_rank(rows, n_cols)


def test_modp_rejects_column_outside_matrix():
    with pytest.raises(ValueError, match="column 3"):
        modp_rank([{3: 1}], 3)


def materialised(rows, leads):
    """Each row with its lead added to every key: column -> entry."""
    return [{k + c: v for k, v in row.items()} for row, c in zip(rows, leads)]


def pivot_entries(pivots, c):
    """The pivot at column c as (b, tail): its row on columns, the leading
    entry b at c and the other entries as a dict."""
    tail = materialised([pivots[c]], [c])[0]
    return tail.pop(c), tail


def monic(pivots):
    """Each pivot of `exact_rank` divided by its leading entry, as column ->
    the other entries."""
    out = {}
    for c in pivots:
        b, tail = pivot_entries(pivots, c)
        out[c] = {k: Fraction(v, b) for k, v in tail.items()}
    return out


@settings(max_examples=100)
@given(big_integer_matrices())
def test_pivots_equal_the_sequential_reference_on_big_integer_rows(matrix):
    # F5 reads the pivot columns; the pivots themselves are pinned here
    rows, _ = matrix
    pivots = {}
    plain_rank(integer_rows(rows), pivots)
    assert monic(pivots) == sequential_echelon(rows)


@settings(max_examples=60)
@given(st.randoms(use_true_random=False), st.integers(0, 10), st.integers(1, 10))
def test_pivots_equal_the_sequential_reference_on_sparse_rows(rng, n_rows, n_cols):
    rows = random_sparse_rows(rng, n_rows, n_cols)
    pivots = {}
    plain_rank(integer_rows(rows), pivots)
    assert monic(pivots) == sequential_echelon(rows)


def test_pivots_equal_the_sequential_reference_on_a_rank_table(monkeypatch):
    # every row of a ci(3,3,3) table to degree 8, as `graded` hands them
    # over, grouped by the echelon form of their degree
    calls = record_rank_calls(monkeypatch, graded)
    hilbert_function_table(parse_ideal_file(ci_text(random.Random(7), (3, 3, 3))), 8)
    by_degree = {}
    for rows, leads, pivots, *_ in calls:
        by_degree.setdefault(id(pivots), (pivots, []))[1].extend(materialised(rows, leads))
    assert len(by_degree) == 6  # degrees 3..8
    for pivots, rows in by_degree.values():
        assert monic(pivots) == sequential_echelon(rows)


@settings(max_examples=150)
@given(big_integer_matrices())
def test_stored_pivots_are_primitive(matrix):
    rows, _ = matrix
    pivots = {}
    plain_rank(integer_rows(rows), pivots)
    for c in pivots:
        b, tail = pivot_entries(pivots, c)
        assert gcd(b, *tail.values()) == 1


def test_a_row_with_a_fresh_leading_column_costs_no_gcd(monkeypatch):
    calls = []

    def counting_gcd(*args):
        calls.append(args)
        return gcd(*args)

    monkeypatch.setattr(linalg, "gcd", counting_gcd)
    assert plain_rank([{0: 2, 1: 3}, {1: 5, 2: 7}]) == 2
    assert calls == []


def test_an_empty_row_reduces_to_zero():
    zero = []
    assert plain_rank([{0: 1}, {}, {0: 2}], zero=zero) == 1
    assert zero == [1, 2]


@st.composite
def reused_rows(draw):
    """Sparse integer rows, some empty, each keyed from its leading column
    and taken from a small pool, so that one dict comes back with several
    leads, as `graded` hands its stored rows over; and the lead of each
    row, its pool row's smallest column in 0..5 plus a shift in 0..4 (0
    on an empty row, whose lead is ignored)."""
    pool = draw(
        st.lists(
            st.dictionaries(st.integers(0, 5), st.integers(-20, 20).filter(bool), max_size=5),
            min_size=1,
            max_size=5,
        )
    )
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=10))
    shifts = draw(st.lists(st.integers(0, 4), min_size=len(picks), max_size=len(picks)))
    keyed = [{k - min(row): v for k, v in row.items()} if row else row for row in pool]
    leads = [min(pool[k]) + s if pool[k] else 0 for k, s in zip(picks, shifts)]
    return [keyed[k] for k in picks], leads


@settings(max_examples=150)
@given(reused_rows(), reused_rows())
def test_reused_rows_give_the_echelon_form_of_their_materialised_rows(first, more):
    rows, leads = first
    flat = materialised(rows, leads)
    pivots, zero = {}, []
    flat_pivots, flat_zero = {}, []
    rank = exact_rank(rows, pivots, zero, leads)
    assert rank == plain_rank(flat, flat_pivots, flat_zero)
    assert zero == flat_zero
    assert list(pivots) == list(flat_pivots)
    assert {c: pivot_entries(pivots, c) for c in pivots} == {
        c: pivot_entries(flat_pivots, c) for c in flat_pivots
    }
    assert monic(pivots) == sequential_echelon(flat)
    # extending the echelon form leaves every stored row, and the rows
    # handed over, as they were
    rows2, leads2 = more
    flat2 = materialised(rows2, leads2)
    stored = {c: (row, dict(row)) for c, row in pivots.items()}
    inputs = [dict(row) for row in rows + rows2]
    exact_rank(rows2, pivots, [], leads2)
    plain_rank(flat2, flat_pivots)
    assert list(pivots) == list(flat_pivots)
    for c, (row, copy) in stored.items():
        assert pivots[c] is row and row == copy
    assert rows + rows2 == inputs
    assert monic(pivots) == sequential_echelon(flat + flat2)


def stored(pivots, rows):
    """The echelon form as (column, the index of the first input row that
    is the stored row itself, or None and the row's items for a row
    stored as a copy)."""
    out = []
    for c, row in pivots.items():
        t = next((t for t, raw in enumerate(rows) if raw is row), None)
        out.append((c, t, None if t is not None else sorted(row.items())))
    return out


@settings(max_examples=150)
@given(reused_rows(), reused_rows(), st.data())
def test_given_leads_change_nothing(first, more, data):
    # the second rows extend the first rows' echelon form, so that a lead
    # may also start a reduction; an empty row's lead is any int
    rows, leads = first
    base = {}
    exact_rank(rows, base, [], leads)
    rows2, leads2 = more
    leads = [c if row else data.draw(st.integers(-9, 9)) for row, c in zip(rows2, leads2)]
    pivots, zero = dict(base), []
    rank = exact_rank(rows2, pivots, zero, leads)
    assert list(pivots)[: len(base)] == list(base)
    # the same rows materialised, each keyed afresh from its min
    flat_pivots, flat_zero = dict(base), []
    assert plain_rank(materialised(rows2, leads), flat_pivots, flat_zero) == rank
    assert flat_zero == zero
    assert list(flat_pivots) == list(pivots)
    inputs = rows + rows2
    # rows and leads as one-shot iterators, read once each
    once_pivots, once_zero = dict(base), []
    assert exact_rank(iter(rows2), once_pivots, once_zero, iter(leads)) == rank
    assert once_zero == zero
    assert stored(once_pivots, inputs) == stored(pivots, inputs)
