import pytest

from halphen.classifier import classify
from halphen.parsing import parse_polynomial
from halphen.poly import IdealSpec

from witnesses import RING, certify, diagonal_ci

# (s, t) with t >= s; each certificate takes well under 0.1 s.  (3, 5) and
# (4, 6) also certify, but take several times longer.
WITNESSES = (
    [(1, t) for t in range(3, 7)]
    + [(2, t) for t in range(2, 7)]
    + [(3, 3), (3, 4), (4, 4), (4, 5), (5, 5), (5, 6), (6, 6)]
)


def _regime_flag(verdict, s):
    if s == 1:
        return verdict.exists_plane
    if s == 2:
        return verdict.exists_on_quadric
    return verdict.exists_off_quadric


@pytest.mark.parametrize("s,t", WITNESSES, ids=[f"ci({s},{t})" for s, t in WITNESSES])
def test_diagonal_complete_intersection_reaches_halphen_bound(s, t):
    cert = certify(diagonal_ci(s, t), s, t)
    assert cert.certified, cert
    assert (cert.d, cert.g) == (s * t, s * t * (s + t - 4) // 2 + 1)
    verdict = classify(cert.d, cert.g)
    assert verdict.exists_any
    assert _regime_flag(verdict, s)


def test_four_lines_are_not_certified():
    # (xy, zw) is a (2, 2) complete intersection of the right degree and
    # genus on no plane, but its four lines meet in four singular points
    ideal = IdealSpec(RING, (parse_polynomial("x*y", RING), parse_polynomial("z*w", RING)))
    cert = certify(ideal, 2, 2)
    assert (cert.d, cert.g, cert.genus_is_bound, cert.on_no_surface_below_s) == (4, 1, True, True)
    assert not cert.smooth
    assert not cert.certified


def test_wrong_regime_is_not_certified():
    # a smooth plane quartic claimed as a (2, 2) curve: genus 3, not
    # G(4, 2) = 1, and it lies on a plane
    cert = certify(diagonal_ci(1, 4), 2, 2)
    assert cert.smooth
    assert not cert.genus_is_bound
    assert not cert.on_no_surface_below_s
    assert not cert.certified
