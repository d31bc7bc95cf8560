import random
from fractions import Fraction

import pytest

from halphen import geometry
from halphen.geometry import (
    ProjectivePoint,
    SingularPointError,
    jacobian_rank_at,
    on_variety,
    tangent_line,
)
from halphen.groebner import hilbert_polynomial
from halphen.invariants import invariants_of
from halphen.parsing import parse_ideal_file, parse_polynomial
from halphen.poly import IdealSpec, primitive

from conftest import FIXTURES, RING3, RING4, record_rank_calls


def pt(*coords):
    return ProjectivePoint(coords)


def cubic_point(t):
    """Rational point [1 : t : t^2 : t^3] on the twisted cubic."""
    return ProjectivePoint((Fraction(1), t, t * t, t**3))


def line_point(a, b):
    return ProjectivePoint((a, Fraction(0), Fraction(0), b))


class TestProjectivePoint:
    def test_scaling_equality(self):
        assert pt(1, 0, 0, 0) == pt(7, 0, 0, 0)
        assert pt(1, 2, 3) == pt(Fraction(1, 2), 1, Fraction(3, 2))
        assert pt(1, 0, 0) != pt(0, 1, 0)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            pt(0, 0, 0)


class TestOnVariety:
    def test_c0_contains_p(self, c0):
        assert on_variety(c0, pt(1, 0, 0, 0))

    def test_twisted_cubic_contains_far_point(self, twisted_cubic):
        assert on_variety(twisted_cubic, pt(0, 0, 0, 1))

    def test_line_excludes(self, line_l):
        assert not on_variety(line_l, pt(0, 1, 0, 0))

    def test_dimension_mismatch(self, c0):
        with pytest.raises(ValueError, match="coordinates"):
            on_variety(c0, pt(1, 0, 0))

    def test_scaling_invariance_random(self, twisted_cubic):
        rng = random.Random(3)
        for _ in range(25):
            t = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            p = cubic_point(t)
            lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            scaled = ProjectivePoint([lam * c for c in p.coords])
            assert on_variety(twisted_cubic, p)
            assert on_variety(twisted_cubic, scaled)


class TestJacobianRank:
    def test_twisted_cubic_smooth_point(self, twisted_cubic):
        assert jacobian_rank_at(twisted_cubic, pt(1, 0, 0, 0)) == 2

    def test_c0_singular_point(self, c0):
        assert jacobian_rank_at(c0, pt(1, 0, 0, 0)) == 1

    def test_hyperplane(self):
        spec = IdealSpec(RING3, (parse_polynomial("x", RING3),))
        assert jacobian_rank_at(spec, pt(0, 1, 0)) == 1

    def test_point_off_variety_rejected(self, c0):
        with pytest.raises(ValueError, match="not on the variety"):
            jacobian_rank_at(c0, pt(1, 1, 0, 0))

    def test_scaling_invariance(self, c0):
        rng = random.Random(11)
        for _ in range(20):
            lam = Fraction(rng.randint(1, 12), rng.randint(1, 12))
            scaled = ProjectivePoint([lam * c for c in (1, 0, 0, 0)])
            assert jacobian_rank_at(c0, scaled) == 1

    def test_rows_go_with_min_zero_and_their_first_index_as_lead(self, monkeypatch):
        # at every point the CLI battery of tests/test_cli.py runs smooth-at
        # on, each fixture's first and last coordinate point, as far as it
        # lies on the variety; the recorder asserts that the rows come as a
        # list, each with min 0
        calls = record_rank_calls(monkeypatch, geometry)
        for path in sorted(FIXTURES.glob("*.ideal")):
            ideal = parse_ideal_file(path.read_text())
            n = ideal.n_vars
            for i in (0, n - 1):
                p = pt(*(int(j == i) for j in range(n)))
                if on_variety(ideal, p):
                    jacobian_rank_at(ideal, p)
                    rows, leads, pivots, zero, added = calls[-1]
                    # a fresh echelon form and zero list
                    assert added == list(pivots) and len(zero) == len(rows) - len(added)
                    # on columns, the rows are the primitive nonzero gradients
                    gradients = [
                        {j: g.partial_derivative(j).evaluate(p.coords) for j in range(n)}
                        for g in ideal.generators
                    ]
                    expect = [primitive(row) for row in gradients if any(row.values())]
                    placed = [{c + k: v for k, v in row.items()} for row, c in zip(rows, leads)]
                    assert placed == expect
        assert len(calls) == 10


class TestSmoothness:
    # the rank that `smooth-at` compares with the codimension, at smooth
    # points of a plane curve (codimension 1) and of a space curve (2)
    @staticmethod
    def codimension(ideal):
        # read off the Hilbert polynomial, as `smooth-at` reads it
        dimension = invariants_of(hilbert_polynomial(ideal).polynomial).dimension
        return ideal.n_vars - 1 - dimension

    def test_c0_singular_at_p(self, c0):
        assert self.codimension(c0) == 2
        assert jacobian_rank_at(c0, pt(1, 0, 0, 0)) != self.codimension(c0)

    def test_twisted_cubic_smooth_at_p(self, twisted_cubic):
        assert self.codimension(twisted_cubic) == 2
        assert jacobian_rank_at(twisted_cubic, pt(1, 0, 0, 0)) == self.codimension(twisted_cubic)

    def test_plane_cubic_smooth_point(self):
        f = parse_polynomial("z*y^2 - x^3 + x*z^2 + z^3", RING3)
        spec = IdealSpec(RING3, (f,))
        assert jacobian_rank_at(spec, pt(0, 1, 0)) == 1

    def test_twisted_cubic_smooth_everywhere_sampled(self, twisted_cubic):
        for k in range(-10, 10):
            assert jacobian_rank_at(twisted_cubic, cubic_point(Fraction(k, 3))) == 2


class TestTangentLine:
    def test_plane_cubic_tangent(self):
        f = parse_polynomial("z*y^2 - x^3 + x*z^2 + z^3", RING3)
        line = tangent_line(f, pt(0, 1, 0))
        assert line.coefficients == (0, 0, 1)  # the line z = 0

    def test_conic_tangent(self):
        f = parse_polynomial("x^2 + y^2 - z^2", RING3)
        line = tangent_line(f, pt(1, 0, 1))
        assert line.coefficients == (1, 0, -1)  # x - z = 0

    def test_singular_point_rejected(self):
        # two lines x*y meet at [0:0:1], where the gradient vanishes
        f = parse_polynomial("x*y", RING3)
        with pytest.raises(SingularPointError):
            tangent_line(f, pt(0, 0, 1))

    @pytest.mark.parametrize(
        "f,p,message",
        [
            (parse_polynomial("x^2 - y*w", RING4), pt(0, 0, 1, 0), "three variables"),
            (parse_polynomial("x^2 - y", RING3), pt(0, 0, 1), "homogeneous polynomial"),
            (parse_polynomial("x^2 - y*z", RING3), pt(0, 0, 1, 0), "point in the plane"),
        ],
    )
    def test_shape_checks(self, f, p, message):
        with pytest.raises(ValueError, match=message):
            tangent_line(f, p)

    def test_point_off_curve_rejected(self):
        f = parse_polynomial("x^2 + y^2 - z^2", RING3)
        with pytest.raises(ValueError, match="not on the curve"):
            tangent_line(f, pt(1, 1, 1))

    def test_tangent_passes_through_point(self):
        rng = random.Random(23)
        f = parse_polynomial("x^2 + y^2 - z^2", RING3)
        for _ in range(20):
            # rational parametrization of the conic
            u = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            p = ProjectivePoint((1 - u * u, 2 * u, 1 + u * u))
            line = tangent_line(f, p)
            assert sum(c * x for c, x in zip(line.coefficients, p.coords)) == 0


class TestDecompositionWitness:
    """C_0 = C union L; the singular points of C_0 are exactly C meet L."""

    def test_c_and_l_inside_c0(self, twisted_cubic, line_l, c0):
        rng = random.Random(41)
        for _ in range(20):
            t = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
            p = cubic_point(t)
            assert on_variety(twisted_cubic, p)
            assert on_variety(c0, p)
        for _ in range(20):
            a, b = rng.randint(-9, 9), rng.randint(-9, 9)
            if a == 0 and b == 0:
                a = 1
            q = line_point(Fraction(a), Fraction(b))
            assert on_variety(line_l, q)
            assert on_variety(c0, q)

    def test_singular_samples_lie_on_both_components(self, twisted_cubic, line_l, c0):
        samples = [cubic_point(Fraction(k, 2)) for k in range(-8, 9)]
        samples += [pt(0, 0, 0, 1)]
        samples += [line_point(Fraction(a), Fraction(b)) for a, b in [(1, 0), (0, 1), (1, 1), (2, -3)]]
        singular = [p for p in samples if jacobian_rank_at(c0, p) < 2]
        assert singular  # [1:0:0:0] and [0:0:0:1] are in the samples
        for p in singular:
            assert on_variety(twisted_cubic, p)
            assert on_variety(line_l, p)
