"""Acceptance suite: one test per criterion, exact comparisons only.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from halphen.classifier import (
    castelnuovo_bound,
    classify,
    gruson_peskine_bound,
    plane_bound,
    quadric_genera,
)
from halphen.geometry import ProjectivePoint, jacobian_rank_at, on_variety
from halphen.graded import binom, hilbert_function
from halphen.groebner import (
    HilbertPolynomial,
    buchberger,
    hilbert_polynomial,
    initial_ideal,
    series_numerator,
)
from halphen.invariants import invariants_of
from halphen.parsing import parse_polynomial
from halphen.poly import IdealSpec, Polynomial, format_polynomial

from conftest import RING3, RING4, load_ideal
from reference import enumerate_monomials, series_coefficients

ALL_FIXTURES = [
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


@contextmanager
def criterion(n, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n} ({description}): FAIL")
        raise
    print(f"ACCEPTANCE {n} ({description}): PASS")


def linear(b, a):
    return HilbertPolynomial((Fraction(b), Fraction(a)))


def test_criterion_1_golden_hilbert_polynomials():
    with criterion(1, "golden Hilbert polynomials, < 5 s"):
        start = time.monotonic()
        cases = [
            ("curve_E", linear(0, 3)),
            ("twisted_cubic", linear(1, 3)),
            ("c0", linear(0, 4)),  # the t = 0 member of the family
            ("ct_1", linear(0, 4)),
            ("ct_half", linear(0, 4)),
            ("ct_neg2", linear(0, 4)),
        ]
        for name, expect in cases:
            data = hilbert_polynomial(load_ideal(name))
            assert data.polynomial == expect, name
        assert time.monotonic() - start < 5.0


def test_criterion_2_degeneration():
    with criterion(2, "C0 degeneration, containment, singular point"):
        c0 = load_ideal("c0")
        cubic = load_ideal("twisted_cubic")
        line = load_ideal("line_L")

        inv = invariants_of(hilbert_polynomial(c0).polynomial)
        assert (inv.dimension, inv.degree, inv.genus) == (1, 4, 1)

        rng = random.Random(2024)
        for _ in range(20):
            t = Fraction(rng.randint(-30, 30), rng.randint(1, 11))
            p = ProjectivePoint((Fraction(1), t, t * t, t**3))
            assert on_variety(cubic, p)
            assert on_variety(c0, p)
        for _ in range(20):
            a, b = rng.randint(-20, 20), rng.randint(-20, 20)
            if a == 0 and b == 0:
                a = 1
            q = ProjectivePoint((Fraction(a), Fraction(0), Fraction(0), Fraction(b)))
            assert on_variety(line, q)
            assert on_variety(c0, q)

        p = ProjectivePoint((1, 0, 0, 0))
        assert jacobian_rank_at(c0, p) == 1  # singular: rank 1 < codim 2
        assert jacobian_rank_at(cubic, p) == 2  # smooth on the twisted cubic


def test_criterion_3_plane_closed_form():
    with criterion(3, "plane curves: binomial closed form and genus"):
        rng = random.Random(777)
        for d in range(1, 11):
            monos = enumerate_monomials(3, d)
            terms = {m: rng.randint(1, 50) for m in monos}
            f = Polynomial(terms, RING3)
            ideal = IdealSpec(RING3, (f,))
            for m in range(d + 4):
                expect = binom(m + 2, 2) - binom(m - d + 2, 2)
                assert hilbert_function(ideal, m) == expect, (d, m)
            inv = invariants_of(hilbert_polynomial(ideal).polynomial)
            assert inv.degree == d
            assert inv.genus == (d - 1) * (d - 2) // 2


def test_criterion_4_oracle_equivalence():
    with criterion(4, "rank oracle = series expansion, H = P past threshold"):
        for name in ALL_FIXTURES:
            spec = load_ideal(name)
            num = series_numerator(initial_ideal(buchberger(spec)), spec.n_vars)
            series = series_coefficients(num, 12)
            for m in range(13):
                assert hilbert_function(spec, m) == series[m], (name, m)
            data = hilbert_polynomial(spec)
            for m in range(data.stabilizes_from, data.stabilizes_from + 6):
                assert data.polynomial(m) == hilbert_function(spec, m), (name, m)


def test_criterion_5_bound_consistency():
    with criterion(5, "quadric max = Castelnuovo; nested bounds"):
        for d in range(2, 51):
            assert max(quadric_genera(d)) == castelnuovo_bound(d), d
        for d in range(3, 51):
            assert gruson_peskine_bound(d) <= castelnuovo_bound(d) <= plane_bound(d), d


def test_criterion_6_gap_examples():
    with criterion(6, "classification of the named (d, g) pairs"):
        for d, g in [(4, 2), (5, 3), (5, 4), (5, 5)]:
            assert not classify(d, g).exists_any, (d, g)
        for d, g in [(3, 0), (3, 1), (4, 1), (4, 3), (5, 6), (7, 5)]:
            assert classify(d, g).exists_any, (d, g)


def _random_polynomial(rng, ring, max_terms=5, max_exp=3):
    n = len(ring)
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.randint(0, max_exp) for _ in range(n))
        terms[mono] = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
    return Polynomial(terms, ring)


def _random_homogeneous(rng, ring, degree):
    monos = enumerate_monomials(len(ring), degree)
    terms = {m: Fraction(rng.randint(-9, 9)) for m in monos if rng.random() < 0.7}
    terms[rng.choice(monos)] = Fraction(rng.randint(1, 9))
    return Polynomial(terms, ring)


def test_criterion_7_property_suites():
    with criterion(7, "four property suites, 200+ cases each"):
        rng = random.Random(424242)

        # Euler relation on random homogeneous polynomials
        for _ in range(200):
            d = rng.randint(1, 5)
            p = _random_homogeneous(rng, RING3, d)
            total = Polynomial.zero(RING3)
            for i in range(3):
                total = total + Polynomial.variable(i, RING3) * p.partial_derivative(i)
            assert total == p.scale(d)

        # scaling invariance of point operations
        cubic = load_ideal("twisted_cubic")
        c0 = load_ideal("c0")
        for _ in range(200):
            t = Fraction(rng.randint(-15, 15), rng.randint(1, 7))
            lam = Fraction(rng.randint(1, 30), rng.randint(1, 30))
            base = (Fraction(1), t, t * t, t**3)
            p = ProjectivePoint(base)
            q = ProjectivePoint(tuple(lam * c for c in base))
            assert on_variety(cubic, p) and on_variety(cubic, q)
            assert jacobian_rank_at(cubic, p) == jacobian_rank_at(cubic, q)
            assert on_variety(c0, p) == on_variety(c0, q)

        # generator reorder/rescale invariance of Hilbert polynomials
        base_polys = {
            name: hilbert_polynomial(load_ideal(name)).polynomial
            for name in ["twisted_cubic", "c0", "ct_1", "two_quadrics", "curve_E"]
        }
        count = 0
        while count < 200:
            for name, expect in base_polys.items():
                spec = load_ideal(name)
                gens = list(spec.generators)
                rng.shuffle(gens)
                gens = [
                    g.scale(Fraction(rng.choice([1, 2, 3, 5, -1, -4]), rng.randint(1, 3)))
                    for g in gens
                ]
                got = hilbert_polynomial(IdealSpec(spec.ring_vars, tuple(gens)))
                assert got.polynomial == expect, name
                count += 1

        # parser round-trip
        for _ in range(200):
            ring = rng.choice([RING3, RING4])
            p = _random_polynomial(rng, ring)
            assert parse_polynomial(format_polynomial(p), ring) == p
