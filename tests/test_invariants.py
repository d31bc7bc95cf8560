from fractions import Fraction

import pytest

from halphen.groebner import HilbertPolynomial, hilbert_polynomial
from halphen.invariants import invariants_of
from halphen.parsing import parse_polynomial
from halphen.poly import IdealSpec

from conftest import RING3, load_ideal
from reference import plane_genus


def P(*coeffs):
    return HilbertPolynomial(tuple(Fraction(c) for c in coeffs))


def plane_hilbert_polynomial(d):
    """The Hilbert polynomial of the Fermat curve of degree d in the plane."""
    f = parse_polynomial(f"x^{d} + y^{d} + z^{d}", RING3)
    return hilbert_polynomial(IdealSpec(RING3, (f,))).polynomial


class TestInvariantsOf:
    def test_twisted_cubic_polynomial(self):
        inv = invariants_of(P(1, 3))
        assert (inv.dimension, inv.degree, inv.genus) == (1, 3, 0)

    def test_degree_four_genus_one(self):
        inv = invariants_of(P(0, 4))
        assert (inv.dimension, inv.degree, inv.genus) == (1, 4, 1)

    def test_plane_cubic_in_space(self):
        inv = invariants_of(P(0, 3))
        assert (inv.dimension, inv.degree, inv.genus) == (1, 3, 1)

    def test_dimension_zero(self):
        inv = invariants_of(P(5))
        assert (inv.dimension, inv.degree, inv.genus) == (0, 5, None)

    def test_surface_has_no_genus(self):
        # P(m) = m^2/2 + 3m/2 + 1: a plane in P^3, degree 1
        inv = invariants_of(P(1, Fraction(3, 2), Fraction(1, 2)))
        assert inv.dimension == 2
        assert inv.degree == 1
        assert inv.genus is None

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            invariants_of(P())

    def test_non_integer_linear_rejected(self):
        with pytest.raises(ValueError, match="non-integer"):
            invariants_of(P(0, Fraction(3, 2)))


class TestPlaneClosedForms:
    @pytest.mark.parametrize("d,g", [(1, 0), (3, 1), (6, 10)])
    def test_plane_genus_values(self, d, g):
        assert plane_genus(d) == g

    @pytest.mark.parametrize(
        "d,coeffs", [(1, (1, 1)), (3, (0, 3)), (4, (-2, 4))]
    )
    def test_plane_hilbert_polynomial_values(self, d, coeffs):
        assert plane_hilbert_polynomial(d) == P(*coeffs)

    @pytest.mark.parametrize("d", range(1, 11))
    def test_genus_identity(self, d):
        P_d = plane_hilbert_polynomial(d)
        inv = invariants_of(P_d)
        assert inv.degree == d
        assert inv.genus == plane_genus(d) == 1 - P_d(0)

    def test_no_plane_curve_of_genus_two(self):
        assert all(plane_genus(d) != 2 for d in range(1, 10_001))


class TestFullPipeline:
    @pytest.mark.parametrize(
        "name,d,g",
        [
            ("curve_E", 3, 1),
            ("twisted_cubic", 3, 0),
            ("c0", 4, 1),
            ("ct_1", 4, 1),
            ("ct_half", 4, 1),
            ("ct_neg2", 4, 1),
        ],
    )
    def test_fixture_invariants(self, name, d, g):
        inv = invariants_of(hilbert_polynomial(load_ideal(name)).polynomial)
        assert (inv.dimension, inv.degree, inv.genus) == (1, d, g)
