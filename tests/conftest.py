from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import settings
from hypothesis import strategies as st

settings.register_profile("exact", deadline=None)
settings.load_profile("exact")

from halphen.linalg import exact_rank
from halphen.parsing import parse_ideal_file
from halphen.poly import IdealSpec, Polynomial, primitive

from reference import enumerate_monomials

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SCHEMAS = Path(__file__).resolve().parent.parent / "schemas"

RING3 = ("x", "y", "z")
RING4 = ("x", "y", "z", "w")

# literals longer than the interpreter's int-string limit (4300 digits by
# default): (text, column of the literal, its digit count)
LONG_LITERALS = [
    ("x^" + "9" * 5000 + " - y", 3, 5000),
    ("x^" + "0" * 5000 + "1 - y", 3, 5001),
    ("1" * 5001 + "*x - y", 1, 5001),
    ("x - 1/" + "7" * 5000 + "*y", 7, 5000),
]


def load_ideal(name):
    return parse_ideal_file((FIXTURES / f"{name}.ideal").read_text())


def integer_rows(rows):
    """Sparse rational rows as `exact_rank` takes them: each nonzero row
    cleared to primitive integers by `poly.primitive`, zero rows dropped.
    Clearing scales a row by a nonzero rational, so the rank is kept."""
    return [primitive(row) for row in rows if any(row.values())]


def plain_rank(rows, pivots=None, zero=None):
    """`exact_rank` of a plain matrix, rows column -> nonzero int: each
    row keyed from its `min`, which goes as its lead (0 on an empty row,
    whose lead is ignored).  A row whose `min` is 0 goes as it is, the
    caller's own dict.  Extends the echelon form `pivots` and the list
    `zero` when given, else fresh ones."""
    rows = list(rows)
    leads = [min(row, default=0) for row in rows]
    return exact_rank(
        [{k - c: v for k, v in row.items()} if c else row for row, c in zip(rows, leads)],
        {} if pivots is None else pivots,
        [] if zero is None else zero,
        leads,
    )


class RankCall(NamedTuple):
    """One `exact_rank` call: the rows and leads as handed over, the
    echelon form it extended (as it is now, not as it was), the list the
    indices of its zero rows went to, and the keys it added to the echelon
    form, in the order it added them."""

    rows: list
    leads: list
    pivots: dict
    zero: list
    added: list


def record_rank_calls(patch, module):
    """Route `module.exact_rank` through a recorder for the life of the
    monkeypatch `patch`, and return the list of `RankCall`s it fills, in
    call order.  Asserts, on every call, that the rows come as a list, as
    bench/tracing.py reads them; that each row is nonempty and keyed from
    its leading column, its smallest key 0, with one lead per row; and
    that the keys the echelon form had stay in front, in their order."""
    calls = []

    def recording_rank(rows, pivots, zero, leads):
        assert type(rows) is list
        assert [min(row) for row in rows] == [0] * len(leads)
        before = list(pivots)
        rank = exact_rank(rows, pivots, zero, leads)
        keys = list(pivots)
        assert keys[: len(before)] == before
        calls.append(RankCall(rows, leads, pivots, zero, keys[len(before) :]))
        return rank

    patch.setattr(module, "exact_rank", recording_rank)
    return calls


@pytest.fixture
def twisted_cubic():
    return load_ideal("twisted_cubic")


@pytest.fixture
def curve_e():
    return load_ideal("curve_E")


@pytest.fixture
def c0():
    return load_ideal("c0")


@pytest.fixture
def line_l():
    return load_ideal("line_L")


# -- hypothesis strategies ------------------------------------------------

small_rationals = st.fractions(
    min_value=Fraction(-6), max_value=Fraction(6), max_denominator=4
)
nonzero_rationals = small_rationals.filter(bool)


def exponents(n_vars, max_exp=3):
    return st.tuples(*[st.integers(0, max_exp)] * n_vars)


def polynomials(ring=RING3, max_terms=5, max_exp=3):
    return st.dictionaries(
        exponents(len(ring), max_exp), small_rationals, max_size=max_terms
    ).map(lambda terms: Polynomial(terms, ring))


def homogeneous_polynomials(ring=RING3, min_degree=1, max_degree=4):
    def build(args):
        degree, picks = args
        monos = enumerate_monomials(len(ring), degree)
        terms = {monos[i % len(monos)]: c for i, c in picks.items()}
        return Polynomial(terms, ring)

    return st.tuples(
        st.integers(min_degree, max_degree),
        st.dictionaries(st.integers(0, 30), small_rationals, min_size=1, max_size=5),
    ).map(build)


# -- seeded ideal families ----------------------------------------------------


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
