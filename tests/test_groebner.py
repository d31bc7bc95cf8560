import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import accumulate, combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from halphen import groebner
from halphen.graded import binom, hilbert_function
from halphen.groebner import (
    EmptyProjectiveSet,
    GroebnerBasis,
    GroebnerCheckFailed,
    HilbertPolynomial,
    MonomialIdeal,
    buchberger,
    hilbert_polynomial,
    initial_ideal,
    leading_monomial,
    normal_form,
    series_numerator,
    _assert_groebner,
)
from halphen.parsing import parse_polynomial
from halphen.poly import (
    DEFAULT_ORDER,
    IdealSpec,
    MonomialOrder,
    Polynomial,
    RingMismatch,
    monomial_lcm,
    monomial_mul,
)

from conftest import (
    FIXTURES,
    RING3,
    RING4,
    dense_form,
    exponents,
    homogeneous_polynomials,
    load_ideal,
    polynomials,
    random_rnc,
)
from reference import (
    all_pairs_groebner,
    enumerate_monomials,
    monomial_divides,
    series_coefficients,
    textbook_remainder,
)

SRC = Path(__file__).resolve().parent.parent / "src"

FIXTURE_NAMES = [
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


@st.composite
def monomial_ideals(draw):
    """(generators, n_vars): up to six monomials in one to three variables.
    In one or two variables an exponent may be 64 to 70, which widens the
    packed fields; three variables keep small exponents so that the direct
    count stays cheap."""
    n = draw(st.integers(1, 3))
    exponent = st.integers(0, 3) if n == 3 else st.integers(0, 3) | st.integers(64, 70)
    return tuple(draw(st.lists(st.tuples(*[exponent] * n), max_size=6))), n


class TestHilbertPolynomialStr:
    @pytest.mark.parametrize(
        "coeffs, text",
        [
            ((), "0"),
            ((5,), "5"),
            ((0, 1), "m"),
            ((2, -1), "-m + 2"),
            ((-2, 4), "4*m - 2"),
            ((1, Fraction(3, 2), Fraction(1, 2)), "1/2*m^2 + 3/2*m + 1"),
        ],
    )
    def test_rendering(self, coeffs, text):
        assert str(HilbertPolynomial(tuple(map(Fraction, coeffs)))) == text


class TestBuchberger:
    def test_principal_ideal_is_its_own_basis(self):
        f = parse_polynomial("z*y^2 - x^3 + x*z^2 + z^3", RING3)
        gb = buchberger(IdealSpec(RING3, (f,)))
        assert len(gb.elements) == 1
        # same ideal element, made monic
        assert gb.elements[0] == f.scale(Fraction(-1))

    def test_monomial_ideal_unchanged(self):
        spec = IdealSpec(
            RING3,
            (parse_polynomial("x", RING3), parse_polynomial("y", RING3)),
        )
        gb = buchberger(spec)
        assert {leading_monomial(g, gb.order) for g in gb.elements} == {
            (1, 0, 0),
            (0, 1, 0),
        }

    def test_original_generators_reduce_to_zero(self, twisted_cubic):
        gb = buchberger(twisted_cubic)
        for g in twisted_cubic.generators:
            assert normal_form(g, gb.elements, gb.order).is_zero

    def test_reduced_leading_monomials_minimal(self, twisted_cubic):
        gb = buchberger(twisted_cubic)
        lms = [leading_monomial(g, gb.order) for g in gb.elements]
        for i, a in enumerate(lms):
            for j, b in enumerate(lms):
                if i != j:
                    assert not monomial_divides(a, b)

    def test_basis_elements_monic(self, twisted_cubic):
        gb = buchberger(twisted_cubic)
        for g in gb.elements:
            assert g.terms[leading_monomial(g, gb.order)] == 1


def basis_sha256(gb):
    """sha256 of a reduced basis: its elements in order, each with its terms
    in dict order and its coefficients as text."""
    text = repr([[(m, str(c)) for m, c in g.terms.items()] for g in gb.elements])
    return hashlib.sha256(text.encode()).hexdigest()


def series_instance(name):
    """The seeded instance of a `series` benchmark family used by the goldens:
    "ci(a,b,...)" is dense forms of those degrees in P^3 drawn with seed 7,
    "rnc(n)" the rational normal curve in P^n as in `random_rnc(Random(n), n)`."""
    kind, arg = name.rstrip(")").split("(")
    if kind == "rnc":
        return random_rnc(random.Random(int(arg)), int(arg))
    rng = random.Random(7)
    return IdealSpec(RING4, tuple(dense_form(rng, RING4, int(d)) for d in arg.split(",")))


class TestBasisGoldens:
    """Reduced bases pinned byte for byte, term order included, on every
    fixture and on seeded instances of the `series` families.  Every case
    runs under degrevlex; the dense complete intersections whose deglex or
    lex bases take seconds to minutes are left out under those orders."""

    # sha256 by `basis_sha256`, recorded at commit 52e9955, before the
    # kernel packed its monomials
    GOLDEN = {
        ("twisted_cubic", "degrevlex"): "14bc302fcd380e52517a546e7c6b3163117a4491472b91519677ab24952d0cfd",
        ("twisted_cubic", "deglex"): "1c42ec2439bcafd8e49433eb656eca79bf2926e01403c14ca25996aa9393580d",
        ("twisted_cubic", "lex"): "1c42ec2439bcafd8e49433eb656eca79bf2926e01403c14ca25996aa9393580d",
        ("curve_E", "degrevlex"): "917d549d10ffb8d044ac9e4463c13204c4c1ef1cd34db3d25a39b9c9cc3a1036",
        ("curve_E", "deglex"): "7fcde9256c78dd0dff72014745367bcbf118a6d25a8c4e3cac0c25c1530c5df4",
        ("curve_E", "lex"): "7fcde9256c78dd0dff72014745367bcbf118a6d25a8c4e3cac0c25c1530c5df4",
        ("c0", "degrevlex"): "f66c86ddf6b83468c9282015cd3ad5c1f0e08c0cc18706c7a9a4e4c5cde650ce",
        ("c0", "deglex"): "1da4ea0d5c73a4497d14df73557235e74101463de957d03f8906b0f9ddafe3ee",
        ("c0", "lex"): "1da4ea0d5c73a4497d14df73557235e74101463de957d03f8906b0f9ddafe3ee",
        ("ct_1", "degrevlex"): "eb2dc7bfe60eb50c09762895c8b77d3229b6b0f6a673147e2cd093cf4f0371ce",
        ("ct_1", "deglex"): "e1a9c4c726db65347219c39e013cd4df546f7bf434bbce24156821ae8dc9f21b",
        ("ct_1", "lex"): "23e1e4e7cd1f684e53d1cf30a08531982a452c391934e849ee52b524883852d6",
        ("ct_half", "degrevlex"): "2acd49f3ce0c6af38c953c7085567b82d3181f6af712d41bde769541a2dcd13b",
        ("ct_half", "deglex"): "cc744e1b1d556b84514a69586a5c1f509ac5bca185841d44667c770a8504a0e7",
        ("ct_half", "lex"): "b04e5f745ba65472c97a29392bd517638dc8c1485650da90f3c29b97929f4b4b",
        ("ct_neg2", "degrevlex"): "eb104ff0292e307d3fd2f3838ef40275d9edcd3ab2e11736a9ecf6149e90f8e4",
        ("ct_neg2", "deglex"): "17cff66edd79b4790f1fc471510cc204dfe361fef176547ab19d2cd4a13dbad5",
        ("ct_neg2", "lex"): "6fe881b4e7323bc4c2699f8408bf65e2ddab587e3e4eb6995c6c998504ab13ce",
        ("two_quadrics", "degrevlex"): "a1156fc3f0a950edec0b05d57d47a1279fe2a594bba2f81526bd2c8159711bc8",
        ("two_quadrics", "deglex"): "df9e74021992f2a1a26e189b8c1e3a7009ca3f362ff7bf89454d3e719f8378ab",
        ("two_quadrics", "lex"): "90e27139f85b9277d19c67fcfe3dc316dc6404e1d4218b3853d50ea8842e0856",
        ("line_L", "degrevlex"): "e74ad5b4b7955adb6c9f1870b8c2920c2b94b3d348fedd773f75b8d58bd5c64e",
        ("line_L", "deglex"): "e74ad5b4b7955adb6c9f1870b8c2920c2b94b3d348fedd773f75b8d58bd5c64e",
        ("line_L", "lex"): "e74ad5b4b7955adb6c9f1870b8c2920c2b94b3d348fedd773f75b8d58bd5c64e",
        ("plane_d1", "degrevlex"): "cfeac5e659120767db45e970ded22d6c002e604cb4deb7a7445b3eedaea560f6",
        ("plane_d1", "deglex"): "cfeac5e659120767db45e970ded22d6c002e604cb4deb7a7445b3eedaea560f6",
        ("plane_d1", "lex"): "cfeac5e659120767db45e970ded22d6c002e604cb4deb7a7445b3eedaea560f6",
        ("plane_d2", "degrevlex"): "47357b0cedcb9f5534e4b678213264cecbc268bb8b1c08d14124f539ca765add",
        ("plane_d2", "deglex"): "47357b0cedcb9f5534e4b678213264cecbc268bb8b1c08d14124f539ca765add",
        ("plane_d2", "lex"): "47357b0cedcb9f5534e4b678213264cecbc268bb8b1c08d14124f539ca765add",
        ("plane_d3", "degrevlex"): "15637e3bd8bbd348e381a02abe6c8cb4b34f5ff79267357dc142e71cc68056bd",
        ("plane_d3", "deglex"): "15637e3bd8bbd348e381a02abe6c8cb4b34f5ff79267357dc142e71cc68056bd",
        ("plane_d3", "lex"): "15637e3bd8bbd348e381a02abe6c8cb4b34f5ff79267357dc142e71cc68056bd",
        ("plane_d4", "degrevlex"): "6394bd833bb622814b7c5386b26d19ccd369bd27f5ec1b7093aed18740597c6b",
        ("plane_d4", "deglex"): "6394bd833bb622814b7c5386b26d19ccd369bd27f5ec1b7093aed18740597c6b",
        ("plane_d4", "lex"): "6394bd833bb622814b7c5386b26d19ccd369bd27f5ec1b7093aed18740597c6b",
        ("plane_d5", "degrevlex"): "da0e3eba77b7e6abf8eb5b62ea634c2abefdee1cf0d9771c8408335c675ca02b",
        ("plane_d5", "deglex"): "da0e3eba77b7e6abf8eb5b62ea634c2abefdee1cf0d9771c8408335c675ca02b",
        ("plane_d5", "lex"): "da0e3eba77b7e6abf8eb5b62ea634c2abefdee1cf0d9771c8408335c675ca02b",
        ("zero4", "degrevlex"): "b6aa01d70df6d9fbc72a97a99d05915ff26f8cce100e19f686c0fe366422ffdd",
        ("zero4", "deglex"): "b6aa01d70df6d9fbc72a97a99d05915ff26f8cce100e19f686c0fe366422ffdd",
        ("zero4", "lex"): "b6aa01d70df6d9fbc72a97a99d05915ff26f8cce100e19f686c0fe366422ffdd",
        ("ci(2,3)", "degrevlex"): "e2f3aedf7ee9d41801f7913628e5eb0981a8456fd69a7b24db4beb0e7afcecef",
        ("ci(3,3)", "degrevlex"): "967aa3ef767ae5b2af56ac11c1b6f80e63b68dcdeb231d0188f0433de27ad9f6",
        ("ci(3,4)", "degrevlex"): "72831aa70eff93b5a29378f3b07d0202f71569b159af993fd39d8854806ce723",
        ("ci(4,4)", "degrevlex"): "1c36cd6797d4babce4f889b086d0c95d9ea65b91f77cdd39f60783a652276537",
        ("ci(4,5)", "degrevlex"): "99f62206efbdd11432565ec91f74e48895c2e7ec7a383dfd621cb73871e014f5",
        ("ci(2,2,2)", "degrevlex"): "f429b0ae9aaf5ac7761ede1a3e9ab295ab474216f2dfad79ef6e8aa15395ab12",
        ("ci(2,2,3)", "degrevlex"): "d212281584ffdc65be7918768d531eb892f8d1275209c477b02715e67d5318c4",
        ("ci(3,3,3)", "degrevlex"): "43365218a5e5a53e3af36c2d3e306f52d66dd6d1923f42ca6ddac9021cae9530",
        ("ci(2,3)", "deglex"): "5e3402c41793708cbe693361499d18b8e41c19cd6f26adc0b5fa86c5deeffe46",
        ("ci(2,3)", "lex"): "9a5a3aad9e289513d432c63e7e37be611fa8d47fc7a0bf4b2b6e6bf12805f719",
        ("ci(2,2,2)", "deglex"): "eeb00ae9b0af55358bf18131dbb3d52d76f48e11d14c970c84c73754570a8ba3",
        ("ci(2,2,2)", "lex"): "9d099793dd5cf875748ef95bb069f39f76ab91cc6948329267456dce8901511c",
        ("ci(2,2,3)", "deglex"): "22fbf354dbd02a70751b3df119bd3ae41b179eedc674c2e116ba91048cab1674",
        ("ci(2,2,3)", "lex"): "b9f00339a94882f0c69fc1a7f2e16c14640bca5f60a80bc14649830049a83f6c",
        ("ci(3,3)", "deglex"): "754ad7c542495161687f2ba4572606ec0a733449a1389e5479f104be34bf8410",
        ("rnc(4)", "degrevlex"): "0e2ed720583029eec3e28d49a7a8092cf0b5f50682bf0891f6bb7990609c06db",
        ("rnc(4)", "deglex"): "660ff76155b653104d70ada8441047af153731409b02503ed337027bc04264cf",
        ("rnc(4)", "lex"): "660ff76155b653104d70ada8441047af153731409b02503ed337027bc04264cf",
        ("rnc(5)", "degrevlex"): "02b3b3fa193eede5af538b100df6a257bafe3ca65c609a712b9fe8c220deed30",
        ("rnc(5)", "deglex"): "ead72c238d0509652cf9d241ecb3bd40097680abb42cfc6ee6d0462b602de1e1",
        ("rnc(5)", "lex"): "ead72c238d0509652cf9d241ecb3bd40097680abb42cfc6ee6d0462b602de1e1",
        ("rnc(6)", "degrevlex"): "d97d8dd83f06cc7cae0662cb240469169c954cc0271ef0638298b57ca6e9293c",
        ("rnc(6)", "deglex"): "f6efea08ace18ba49225205d279b0eeaf9d027f33a6aff5a536017dc2514779a",
        ("rnc(6)", "lex"): "f6efea08ace18ba49225205d279b0eeaf9d027f33a6aff5a536017dc2514779a",
        ("rnc(7)", "degrevlex"): "8859cc78f3144159e99bc61fe8e9da1060ab1a72b7f85ba48b81376f64236bd1",
        ("rnc(7)", "deglex"): "0e06af718d9ffb5a2dc3cdaf86456fb3a8eda89428ba507947bab1debdd122a3",
        ("rnc(7)", "lex"): "0e06af718d9ffb5a2dc3cdaf86456fb3a8eda89428ba507947bab1debdd122a3",
        ("rnc(8)", "degrevlex"): "40ae72556313ce98bd6ef46f6cd3dac38e50f778f16f094ad5354e3d6af9cd78",
        ("rnc(8)", "deglex"): "efdf6a0ce056d789ac7f6f07610e1140af4d8913ef2f42c1a8d687bfe6e97bfe",
        ("rnc(8)", "lex"): "efdf6a0ce056d789ac7f6f07610e1140af4d8913ef2f42c1a8d687bfe6e97bfe",
    }

    @pytest.mark.parametrize("case", GOLDEN)
    def test_reduced_basis_is_unchanged(self, case):
        name, order = case
        spec = load_ideal(name) if name in FIXTURE_NAMES else series_instance(name)
        assert basis_sha256(buchberger(spec, MonomialOrder[order])) == self.GOLDEN[case]

    # The all-pairs reference divides in Fractions: on the deglex basis of
    # ci(3,3), whose coefficients run to 622 bits, it takes about 10 s, as
    # long as half of the rest of the suite, so that one case is left out.
    @pytest.mark.parametrize("case", [c for c in GOLDEN if c != ("ci(3,3)", "deglex")])
    def test_every_s_polynomial_reduces_to_zero(self, case):
        name, order = case
        spec = load_ideal(name) if name in FIXTURE_NAMES else series_instance(name)
        gb = buchberger(spec, MonomialOrder[order])
        assert all_pairs_groebner([g.terms for g in gb.elements], gb.order)


def series_sha256(spec, order):
    """sha256 of the initial ideal of the reduced basis, its generators
    sorted, and of the numerator of its Hilbert series."""
    mi = initial_ideal(buchberger(spec, order))
    num = series_numerator(mi, spec.n_vars)
    text = repr((sorted(mi.minimal_generators), num.coeffs))
    return hashlib.sha256(text.encode()).hexdigest()


class TestSeriesGoldens:
    """The initial ideal and the Hilbert series numerator pinned on every
    case of `TestBasisGoldens`.  The generators are hashed sorted: their
    order within a degree is not part of the result."""

    # sha256 by `series_sha256`, recorded at commit 641cdb7, before the
    # series path packed its monomials
    GOLDEN = {
        ("twisted_cubic", "degrevlex"): "1d462fa84d0d1292a0fdeaecae902a714b6f45b897f5fbd9a2c1cb5a059ad348",
        ("twisted_cubic", "deglex"): "da4c82b5082b3eb5c90e9c351bb780ac4c2d62100ca716e452518a571cf50267",
        ("twisted_cubic", "lex"): "da4c82b5082b3eb5c90e9c351bb780ac4c2d62100ca716e452518a571cf50267",
        ("curve_E", "degrevlex"): "f9c234035ef3d52698d597e933d8ce1526827899a10fc6274f7f5acf75ea50cb",
        ("curve_E", "deglex"): "f9c234035ef3d52698d597e933d8ce1526827899a10fc6274f7f5acf75ea50cb",
        ("curve_E", "lex"): "f9c234035ef3d52698d597e933d8ce1526827899a10fc6274f7f5acf75ea50cb",
        ("c0", "degrevlex"): "f6fe715cedd6ed91245530ff9f699f624e1ca8d69c70c39d91975dc3f7af17b3",
        ("c0", "deglex"): "f19bc2c3aceb2b6e0537a15a31618b725246ec797290141efc5cfc4454c75ffc",
        ("c0", "lex"): "f19bc2c3aceb2b6e0537a15a31618b725246ec797290141efc5cfc4454c75ffc",
        ("ct_1", "degrevlex"): "dec298264eea2750a8ed2b00cea2b5be9daec5cf25a9f136ea60bc413b80daf4",
        ("ct_1", "deglex"): "02b81266562bb191963834b9e5b2c16e1d91b0f61995cd3363cbf599390d1759",
        ("ct_1", "lex"): "02b81266562bb191963834b9e5b2c16e1d91b0f61995cd3363cbf599390d1759",
        ("ct_half", "degrevlex"): "dec298264eea2750a8ed2b00cea2b5be9daec5cf25a9f136ea60bc413b80daf4",
        ("ct_half", "deglex"): "02b81266562bb191963834b9e5b2c16e1d91b0f61995cd3363cbf599390d1759",
        ("ct_half", "lex"): "02b81266562bb191963834b9e5b2c16e1d91b0f61995cd3363cbf599390d1759",
        ("ct_neg2", "degrevlex"): "dec298264eea2750a8ed2b00cea2b5be9daec5cf25a9f136ea60bc413b80daf4",
        ("ct_neg2", "deglex"): "02b81266562bb191963834b9e5b2c16e1d91b0f61995cd3363cbf599390d1759",
        ("ct_neg2", "lex"): "02b81266562bb191963834b9e5b2c16e1d91b0f61995cd3363cbf599390d1759",
        ("two_quadrics", "degrevlex"): "67cdca1c60fb6abc355f5feda0f1518882c50a31b7d96e33eef10427fdc09cc6",
        ("two_quadrics", "deglex"): "db973a869b6f26b1787ebf2de849e97fd78a8829e7ef3130ab00cd519e1ef470",
        ("two_quadrics", "lex"): "db973a869b6f26b1787ebf2de849e97fd78a8829e7ef3130ab00cd519e1ef470",
        ("line_L", "degrevlex"): "653651c4235eeef0f1aa69cbe9a1504d5e3c8706d0773277a0db47e9cb7bde63",
        ("line_L", "deglex"): "653651c4235eeef0f1aa69cbe9a1504d5e3c8706d0773277a0db47e9cb7bde63",
        ("line_L", "lex"): "653651c4235eeef0f1aa69cbe9a1504d5e3c8706d0773277a0db47e9cb7bde63",
        ("plane_d1", "degrevlex"): "76d6bc43a39ace6d1eb20b753597bf95773bbfe7411ee609e163a41c4280d421",
        ("plane_d1", "deglex"): "76d6bc43a39ace6d1eb20b753597bf95773bbfe7411ee609e163a41c4280d421",
        ("plane_d1", "lex"): "76d6bc43a39ace6d1eb20b753597bf95773bbfe7411ee609e163a41c4280d421",
        ("plane_d2", "degrevlex"): "4532e66643bc05390abe72fe1a277d7f5621ce02ae2c35cd529a7e4473a18071",
        ("plane_d2", "deglex"): "4532e66643bc05390abe72fe1a277d7f5621ce02ae2c35cd529a7e4473a18071",
        ("plane_d2", "lex"): "4532e66643bc05390abe72fe1a277d7f5621ce02ae2c35cd529a7e4473a18071",
        ("plane_d3", "degrevlex"): "6cbb419f9bb5df73bcbd6b8f07c0256b1db840cd4dba9e356671887824d22d8e",
        ("plane_d3", "deglex"): "6cbb419f9bb5df73bcbd6b8f07c0256b1db840cd4dba9e356671887824d22d8e",
        ("plane_d3", "lex"): "6cbb419f9bb5df73bcbd6b8f07c0256b1db840cd4dba9e356671887824d22d8e",
        ("plane_d4", "degrevlex"): "324e1592f6af513a7d961c2cd362740b8b08f27fc23fc6928dc6720d83c800a2",
        ("plane_d4", "deglex"): "324e1592f6af513a7d961c2cd362740b8b08f27fc23fc6928dc6720d83c800a2",
        ("plane_d4", "lex"): "324e1592f6af513a7d961c2cd362740b8b08f27fc23fc6928dc6720d83c800a2",
        ("plane_d5", "degrevlex"): "1157f1e2fa3fd9404e028b467c956291dba820374be99305fe48862b73a99de2",
        ("plane_d5", "deglex"): "1157f1e2fa3fd9404e028b467c956291dba820374be99305fe48862b73a99de2",
        ("plane_d5", "lex"): "1157f1e2fa3fd9404e028b467c956291dba820374be99305fe48862b73a99de2",
        ("zero4", "degrevlex"): "73cb6013df57154ec75597d1cf36ef66d79f0b303df830a1f1b2e906249b447c",
        ("zero4", "deglex"): "73cb6013df57154ec75597d1cf36ef66d79f0b303df830a1f1b2e906249b447c",
        ("zero4", "lex"): "73cb6013df57154ec75597d1cf36ef66d79f0b303df830a1f1b2e906249b447c",
        ("ci(2,3)", "degrevlex"): "eb146ee640eef2ca873046899a6f5ef432683e712c47bfdd55f2c63665d61ac7",
        ("ci(3,3)", "degrevlex"): "787d1a4362c2e79e420f12ef9ab399a8a663a8218d1669fd63ee8e9123bdcaee",
        ("ci(3,4)", "degrevlex"): "0807ce6e644f7995d545d2519dc990498d8c47366e2c6e174a4aa98a77bd4782",
        ("ci(4,4)", "degrevlex"): "3356d52126c918c790dd2d9590957ab84235cadad62fa9f344166919286e03dc",
        ("ci(4,5)", "degrevlex"): "7440b321923f88558ddb28719c14518bb4bd1e5d82bcd4b29bb4770e5cb68748",
        ("ci(2,2,2)", "degrevlex"): "bab66b649c9d27d52bf20cc26be1eec71bd4e235e69a6e7cfe22aa4cde9776b1",
        ("ci(2,2,3)", "degrevlex"): "48189051bc964fbf8278c8d5994599c164034ba4389b8e816fa368144e7a41b5",
        ("ci(3,3,3)", "degrevlex"): "d6c3f19e80ab11a9ec1d0f1e08f3e08b38efdc7f744704b5a6abd4ac2a1348c5",
        ("ci(2,3)", "deglex"): "8c5f770850aabcf2d0fc1514d5e72140789bf38fbc760c4b6a0b2b39fa69c6ce",
        ("ci(2,3)", "lex"): "8c5f770850aabcf2d0fc1514d5e72140789bf38fbc760c4b6a0b2b39fa69c6ce",
        ("ci(2,2,2)", "deglex"): "f957b8167558e88c7cbdc775379ecd11f9e9d89ed1270b84e17779aabdbe22c5",
        ("ci(2,2,2)", "lex"): "f957b8167558e88c7cbdc775379ecd11f9e9d89ed1270b84e17779aabdbe22c5",
        ("ci(2,2,3)", "deglex"): "e973bf3707c8b404b0fcd32df2cf97e6895519dcafce2c2024d34c48a2b8a2c9",
        ("ci(2,2,3)", "lex"): "e973bf3707c8b404b0fcd32df2cf97e6895519dcafce2c2024d34c48a2b8a2c9",
        ("ci(3,3)", "deglex"): "b370714aeac02125e9625ca8b8a44c1f0d94ab6adcc7706a18d511302dcddb77",
        ("rnc(4)", "degrevlex"): "9d44a9c5ced09d299b721ec6480f112257c02d7c1296f1a91583cfa925cc3b5a",
        ("rnc(4)", "deglex"): "0bb5c76b60face59eb1ec71044a0745aa9570e5d56ac2314cc751c020414f2d4",
        ("rnc(4)", "lex"): "0bb5c76b60face59eb1ec71044a0745aa9570e5d56ac2314cc751c020414f2d4",
        ("rnc(5)", "degrevlex"): "9898f18697a5f9451bcbf15d3eac9649a993dc2c72ae0b4b0d8ef8a45ac08e30",
        ("rnc(5)", "deglex"): "0277a8001199bee1dfbabcdcfd96427e62abd957d0d3c916c0c4695060f6a0dd",
        ("rnc(5)", "lex"): "0277a8001199bee1dfbabcdcfd96427e62abd957d0d3c916c0c4695060f6a0dd",
        ("rnc(6)", "degrevlex"): "89d31ada0ed79c387af74750dc9b382455043e4fb8f45c75bfa3461480f272db",
        ("rnc(6)", "deglex"): "1467cc955b1c819245b4b9b97fda3c5249610d063880c3de2df0b1005b0f0a28",
        ("rnc(6)", "lex"): "1467cc955b1c819245b4b9b97fda3c5249610d063880c3de2df0b1005b0f0a28",
        ("rnc(7)", "degrevlex"): "6f471ac55ec6932f7cb7c0ea77452cfaa6ea3107ee7c01346bf42dc65de57d0b",
        ("rnc(7)", "deglex"): "ae2c9841812875dff5a3357a175d5cffdeeafea1f401e7a9c71bb3385a975ccd",
        ("rnc(7)", "lex"): "ae2c9841812875dff5a3357a175d5cffdeeafea1f401e7a9c71bb3385a975ccd",
        ("rnc(8)", "degrevlex"): "d0ab13a7aa0ac277d42bd5d2385c4d37b1816b6b4bae6ad31ccf9764ada43876",
        ("rnc(8)", "deglex"): "11e5d0c6f407c3ebce28f6aae806fc706f53aa7b53138c91e4ce3364e539cda8",
        ("rnc(8)", "lex"): "11e5d0c6f407c3ebce28f6aae806fc706f53aa7b53138c91e4ce3364e539cda8",
    }

    @pytest.mark.parametrize("case", GOLDEN)
    def test_initial_ideal_and_numerator_are_unchanged(self, case):
        name, order = case
        spec = load_ideal(name) if name in FIXTURE_NAMES else series_instance(name)
        assert series_sha256(spec, MonomialOrder[order]) == self.GOLDEN[case]


def _reference_normal_form(f, basis, order):
    """`textbook_remainder` on `Polynomial`s."""
    return Polynomial(textbook_remainder(f.terms, [g.terms for g in basis], order), f.ring)


class TestNormalForm:
    @pytest.mark.parametrize("order", list(MonomialOrder))
    @given(
        f=polynomials(max_terms=6),
        basis=st.lists(polynomials(max_terms=3).filter(bool), min_size=1, max_size=3),
    )
    def test_exact_remainder_matches_textbook_division(self, order, f, basis):
        assert normal_form(f, basis, order) == _reference_normal_form(f, basis, order)

    def test_ring_mismatch(self):
        f = parse_polynomial("x^2", RING3)
        with pytest.raises(RingMismatch):
            normal_form(f, [parse_polynomial("x", RING4)], DEFAULT_ORDER)

    def test_keeps_rational_coefficients(self):
        f = parse_polynomial("x^2 + 1/3*y^2", RING3)
        g = parse_polynomial("2*x - 5*z", RING3)
        # x^2 = (x/2 + 5z/4)(2x - 5z) + 25/4 z^2
        expect = parse_polynomial("1/3*y^2 + 25/4*z^2", RING3)
        assert normal_form(f, [g], DEFAULT_ORDER) == expect


class TestPacking:
    """Packed monomials against exponent tuples under every order."""

    @pytest.mark.parametrize("order", list(MonomialOrder))
    @given(a=exponents(4), b=exponents(4))
    def test_matches_tuples(self, order, a, b):
        packing = groebner._Packing(4, order, 12)
        pa, pb = packing.pack(a), packing.pack(b)
        assert packing.unpack(pa) == a
        assert packing.unpack(pa + pb) == monomial_mul(a, b)
        assert packing.unpack(packing.lcm(pa, pb)) == monomial_lcm(a, b)
        assert (not (pb - pa) & packing.guard) == monomial_divides(a, b)
        # a bigger monomial has the bigger `ascend` key and the smaller `flip` key
        assert (pa ^ packing.ascend < pb ^ packing.ascend) == (order.key(a) < order.key(b))
        assert (pa ^ packing.flip > pb ^ packing.flip) == (order.key(a) < order.key(b))
        top = packing.field_max(pa, pb)
        assert packing.unpack(top) == tuple(map(max, a, b))
        assert packing.unpack(top - pa) == tuple(y - x if y > x else 0 for x, y in zip(a, b))


WIDENED_UNDER_O = """
import sys
from halphen.groebner import normal_form
from halphen.parsing import parse_polynomial
from halphen.poly import MonomialOrder

ring = ("x", "y", "z")
f = parse_polynomial("x^40", ring)
r = normal_form(f, [parse_polynomial("x - y^40", ring)], MonomialOrder.lex)
print(r.terms == {(0, 1600, 0): 1})
print("optimize", sys.flags.optimize)
"""


class TestFieldWidening:
    """Monomials that outgrow the fields the kernel started with: it starts
    again on wider fields, and the answer stays exact."""

    @staticmethod
    def packing_limits(monkeypatch):
        """The `limit` of every packing made from now on, in order."""
        limits = []
        original = groebner._Packing

        def recording(*args):
            packing = original(*args)
            limits.append(packing.limit)
            return packing

        monkeypatch.setattr(groebner, "_Packing", recording)
        return limits

    def test_lex_normal_form_outgrows_the_width(self, monkeypatch):
        f = parse_polynomial("x^40", RING3)
        basis = [parse_polynomial("x - y^40", RING3)]
        limits = self.packing_limits(monkeypatch)
        got = normal_form(f, basis, MonomialOrder.lex)
        assert got == _reference_normal_form(f, basis, MonomialOrder.lex)
        assert got == Polynomial.monomial((0, 1600, 0), RING3)
        assert limits[0] <= 1600 < limits[-1]

    @pytest.mark.parametrize("k", [6, 10])
    def test_lex_basis_outgrows_the_width(self, k, monkeypatch):
        # each S-pair of (x^k, x z^(k-1) - y^k) trades an x for y^k, so the
        # pair lcms climb to degree k^2, past the fields sized by degree k
        lead = parse_polynomial(f"x*z^{k - 1} - y^{k}", RING3)
        ideal = IdealSpec(RING3, (parse_polynomial(f"x^{k}", RING3), lead))
        limits = self.packing_limits(monkeypatch)
        gb = buchberger(ideal, MonomialOrder.lex)
        powers = {Polynomial.monomial((k - j, j * k, 0), RING3) for j in range(k + 1)}
        assert set(gb.elements) == powers | {lead}
        assert len(gb.elements) == k + 2
        assert limits[0] < k * k

    def test_monomials_past_the_fields_raise(self):
        # fields sized for degree 1 hold degrees below 8
        packing = groebner._Packing(3, MonomialOrder.lex, 1)
        x7, y7, z = (packing.pack(m) for m in [(7, 0, 0), (0, 7, 0), (0, 0, 1)])
        with pytest.raises(groebner._Overflow):
            packing.lcm(x7, y7)
        # the S-polynomial of x - y^7 and z has the term z * y^7, of degree 8
        f = groebner._Element({packing.pack((1, 0, 0)): 1, y7: -1}, packing)
        g = groebner._Element({z: 1}, packing)
        with pytest.raises(groebner._Overflow):
            groebner._s_terms(f, g, packing.lcm(f.lm, g.lm), packing)

    def test_widening_runs_under_python_O(self):
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", WIDENED_UNDER_O],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.stdout.split("\n")[:2] == ["True", "optimize 1"], proc.stderr


NON_BASIS = ("x*y - z^2", "x^2 - y*z")
NON_BASIS_IDEAL = "ring x y z\n" + "\n".join(NON_BASIS) + "\n"

# Each half of the final check fails once in-process and once through
# `cli.main`: the generators of `NON_BASIS_IDEAL` as their own basis, which
# is not a Groebner basis, and the twisted cubic given the reduced basis of
# curve_E, a Groebner basis of another ideal.
CHECK_UNDER_O = """
import sys
from halphen import cli, groebner
from halphen.parsing import parse_ideal_file
from halphen.poly import DEFAULT_ORDER

non_basis_path, cubic_path, curve_e_path = sys.argv[1:]

def load(path):
    with open(path) as f:
        return parse_ideal_file(f.read())

non_basis = load(non_basis_path)
cases = [
    (non_basis_path, groebner.GroebnerBasis(DEFAULT_ORDER, non_basis.generators)),
    (cubic_path, groebner.buchberger(load(curve_e_path))),
]
for path, bad in cases:
    try:
        groebner._assert_groebner(bad, load(path))
    except groebner.GroebnerCheckFailed as exc:
        print("raised", exc)
    groebner._reduce_basis = lambda *args: bad
    print("exit", cli.main(["invariants", "--ideal", path]))
print("optimize", sys.flags.optimize)
"""


FORMS = homogeneous_polynomials(max_degree=3).filter(bool)


def rnc_minors(n):
    """The 2x2 minors of [[x0 .. x(n-1)], [x1 .. xn]], the rational normal
    curve in P^n in its own coordinates, with no seed."""
    ring = tuple(f"x{i}" for i in range(n + 1))
    x = [Polynomial.variable(i, ring) for i in range(n + 1)]
    minors = [x[i] * x[j + 1] - x[j] * x[i + 1] for i in range(n) for j in range(i + 1, n)]
    return IdealSpec(ring, tuple(minors))


def mutant_cases():
    """(ideal, reduced basis) for the bases whose mutants the final check
    must reject."""
    specs = [rnc_minors(6)] + [series_instance(f"ci({d})") for d in ["2,2,2", "3,3,3", "4,4"]]
    return [(spec, buchberger(spec)) for spec in specs]


def tail_mutants(gb):
    """The basis with one tail coefficient raised by 1, for every tail term;
    a coefficient -1 becomes 0, so that term drops out."""
    out = []
    for i, g in enumerate(gb.elements):
        lm = leading_monomial(g, gb.order)
        for m in g.terms:
            if m != lm:
                terms = dict(g.terms)
                terms[m] += 1
                out.append(gb.elements[:i] + (Polynomial(terms, g.ring),) + gb.elements[i + 1 :])
    return out


def check_message(gb, ideal):
    """The message of the final check on the basis, or None if it passes."""
    try:
        _assert_groebner(gb, ideal)
    except GroebnerCheckFailed as exc:
        return str(exc)
    return None


class TestFinalCheck:
    S_FAILED = "S-polynomial did not reduce to zero"
    GENERATOR_FAILED = "input generator did not reduce to zero"

    def test_non_basis_is_rejected(self):
        gens = tuple(parse_polynomial(t, RING3) for t in NON_BASIS)
        bad = GroebnerBasis(DEFAULT_ORDER, gens)
        with pytest.raises(GroebnerCheckFailed, match=self.S_FAILED):
            _assert_groebner(bad, IdealSpec(RING3, gens))

    def test_basis_of_another_ideal_fails_only_the_generator_half(self, twisted_cubic, curve_e):
        other = buchberger(curve_e)
        assert all_pairs_groebner([g.terms for g in other.elements], other.order)
        assert check_message(other, curve_e) is None
        assert check_message(other, twisted_cubic) == self.GENERATOR_FAILED

    def test_drop_one_mutants_are_rejected(self):
        """Dropping any element leaves a set that is not a Groebner basis,
        and the S-pair half alone sees it, as the all-pairs check does."""
        count = 0
        for spec, gb in mutant_cases():
            for i in range(len(gb.elements)):
                elements = gb.elements[:i] + gb.elements[i + 1 :]
                bad = GroebnerBasis(gb.order, elements)
                assert check_message(bad, spec) == self.S_FAILED
                assert not all_pairs_groebner([g.terms for g in elements], gb.order)
                count += 1
        assert count == 37

    def test_tail_coefficient_mutants_are_rejected(self):
        """The S-pair half rejects each, so the all-pairs check, which
        reduces a superset of its pairs, does too."""
        count = 0
        for spec, gb in mutant_cases():
            for elements in tail_mutants(gb):
                assert check_message(GroebnerBasis(gb.order, elements), spec) == self.S_FAILED
                count += 1
        # 550 raised coefficients stay nonzero; 19 that were -1 drop out
        assert count == 569

    def test_fields_hold_the_generators_degree(self, monkeypatch):
        # the basis {x} has degree 1, the generator x*y^20 degree 21
        x, big = (parse_polynomial(t, RING3) for t in ["x", "x*y^20"])
        limits = TestFieldWidening.packing_limits(monkeypatch)
        ideal = IdealSpec(RING3, (x, big))
        assert check_message(GroebnerBasis(DEFAULT_ORDER, (x,)), ideal) is None
        assert limits[0] > 21

    @pytest.mark.parametrize(
        "lms, kept",
        [
            # pairwise coprime: nothing to reduce
            ([(2, 0, 0), (0, 3, 0), (0, 0, 1)], []),
            # xy divides lcm(x^2 y, x y^2) = x^2 y^2, and lcm(x^2 y, xy) and
            # lcm(x y^2, xy) divide it properly: (0, 1) is dropped
            ([(2, 1, 0), (1, 2, 0), (1, 1, 0)], [(0, 2), (1, 2)]),
            # xyz divides lcm(xy, yz) = xyz but not properly: all are kept
            ([(1, 1, 0), (0, 1, 1), (1, 1, 1)], [(0, 1), (0, 2), (1, 2)]),
        ],
    )
    def test_pairs_dropped_by_each_criterion(self, lms, kept):
        packing = groebner._Packing(3, DEFAULT_ORDER, 3)
        pairs = groebner._syzygy_pairs([packing.pack(m) for m in lms], packing)
        assert [(i, j) for i, j, _ in pairs] == kept
        assert all(packing.unpack(m) == monomial_lcm(lms[i], lms[j]) for i, j, m in pairs)

    @pytest.mark.parametrize("n, pairs, coprime, kept", [(6, 105, 55, 50), (7, 210, 120, 90)])
    def test_pairs_kept_on_rational_normal_curves(self, n, pairs, coprime, kept):
        gb = buchberger(rnc_minors(n))
        lms = [leading_monomial(g, gb.order) for g in gb.elements]
        assert len(list(combinations(lms, 2))) == pairs
        assert sum(not any(map(min, a, b)) for a, b in combinations(lms, 2)) == coprime
        packing = groebner._Packing(n + 1, gb.order, 2)
        assert len(groebner._syzygy_pairs([packing.pack(m) for m in lms], packing)) == kept

    @pytest.mark.parametrize("order", list(MonomialOrder))
    @settings(max_examples=60, derandomize=True)
    @given(gens=st.lists(FORMS, min_size=2, max_size=4))
    def test_kept_pairs_decide_like_all_pairs(self, order, gens):
        """Given its own generators as a basis, the check fails exactly when
        the test-side all-pairs check does, and then by its S-pair half:
        the pairs it skips never decide."""
        gens = tuple(gens)
        message = check_message(GroebnerBasis(order, gens), IdealSpec(RING3, gens))
        if all_pairs_groebner([g.terms for g in gens], order):
            assert message is None
        else:
            assert message == self.S_FAILED

    def test_check_runs_under_python_O(self, tmp_path):
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        non_basis = tmp_path / "non_basis.ideal"
        non_basis.write_text(NON_BASIS_IDEAL)
        fixtures = [str(FIXTURES / f"{name}.ideal") for name in ["twisted_cubic", "curve_E"]]
        proc = subprocess.run(
            [sys.executable, "-O", "-c", CHECK_UNDER_O, str(non_basis), *fixtures],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.stdout.split("\n")[:5] == [
            f"raised {self.S_FAILED}",
            "exit 1",
            f"raised {self.GENERATOR_FAILED}",
            "exit 1",
            "optimize 1",
        ], proc.stderr
        assert proc.stderr == (
            f"halphen: error: {self.S_FAILED}\nhalphen: error: {self.GENERATOR_FAILED}\n"
        )


class TestAllPairsReference:
    """Every S-polynomial of a computed basis, with no pair skipped, and
    every generator leave no remainder under the test-side division."""

    @pytest.mark.parametrize("order", list(MonomialOrder))
    @settings(max_examples=30, derandomize=True)
    @given(gens=st.lists(FORMS, min_size=2, max_size=3))
    def test_random_homogeneous_ideals(self, order, gens):
        gb = buchberger(IdealSpec(RING3, tuple(gens)), order)
        basis = [g.terms for g in gb.elements]
        assert all_pairs_groebner(basis, order)
        assert not any(textbook_remainder(g.terms, basis, order) for g in gens)


class TestInitialIdeal:
    def test_monomial_generators(self):
        spec = IdealSpec(
            RING3,
            (parse_polynomial("x", RING3), parse_polynomial("y", RING3)),
        )
        mi = initial_ideal(buchberger(spec))
        assert set(mi.minimal_generators) == {(1, 0, 0), (0, 1, 0)}

    def test_principal_cubic(self):
        f = parse_polynomial("x^3 + y^2*z", RING3)
        mi = initial_ideal(buchberger(IdealSpec(RING3, (f,))))
        assert mi.minimal_generators == ((3, 0, 0),)

    def test_minimality(self, twisted_cubic):
        mi = initial_ideal(buchberger(twisted_cubic))
        gens = mi.minimal_generators
        for i, a in enumerate(gens):
            for j, b in enumerate(gens):
                if i != j:
                    assert not monomial_divides(a, b)


class TestSeriesNumerator:
    def test_empty_ideal(self):
        num = series_numerator(MonomialIdeal(()), 3)
        assert num.coeffs == (1,)
        assert series_coefficients(num, 3) == [1, 3, 6, 10]

    def test_principal_power(self):
        num = series_numerator(MonomialIdeal(((3, 0, 0),)), 3)
        assert num.coeffs == (1, 0, 0, -1)
        got = series_coefficients(num, 8)
        assert got == [binom(m + 2, 2) - binom(m - 1, 2) for m in range(9)]

    def test_coordinate_line_in_plane(self):
        num = series_numerator(MonomialIdeal(((1, 0, 0), (0, 1, 0))), 3)
        assert num.coeffs == (1, -2, 1)  # (1 - t)^2
        assert series_coefficients(num, 5) == [1] * 6

    def test_contains_one(self):
        num = series_numerator(MonomialIdeal(((0, 0, 0),)), 3)
        assert series_coefficients(num, 4) == [0] * 5

    def test_mixed_ideal_against_direct_count(self):
        # dim of R_m / mi counted by brute enumeration
        gens = [(2, 1, 0), (0, 0, 3), (1, 0, 2)]
        num = series_numerator(MonomialIdeal(tuple(gens)), 3)
        series = series_coefficients(num, 8)
        for m in range(9):
            alive = [
                u
                for u in enumerate_monomials(3, m)
                if not any(monomial_divides(g, u) for g in gens)
            ]
            assert series[m] == len(alive)

    @given(case=monomial_ideals())
    @example(case=((), 3))
    @example(case=(((1, 2, 0), (0, 1, 1), (1, 2, 0)), 3))
    @example(case=(((2, 1, 0), (1, 0, 0), (1, 1, 1)), 3))
    @example(case=(((2, 1, 0), (0, 0, 0)), 3))
    @example(case=(((0, 0), (0, 0)), 2))
    @example(case=(((70, 0), (3, 65), (0, 66), (64, 66)), 2))
    def test_any_generators_against_direct_count(self, case):
        """Generators that repeat, divide one another or include 1, and
        exponents past 63, against a count of the standard monomials of
        every degree up to that of the lcm of the generators, which bounds
        the degree of the numerator."""
        gens, n = case
        num = series_numerator(MonomialIdeal(gens), n)
        upto = sum(max(e) for e in zip(*gens)) if gens else 0
        counts = [
            sum(not any(monomial_divides(g, u) for g in gens) for u in enumerate_monomials(n, m))
            for m in range(upto + 1)
        ]
        assert len(num.coeffs) <= upto + 1
        assert series_coefficients(num, upto) == counts
        if (0,) * n in gens:
            assert num.coeffs == (0,)


class TestStandardMonomialCount:
    """`series_coefficients` against the number of monomials of each degree
    outside the initial ideal, counted one by one: a check that shares
    nothing with the pivot recursion of the series or with the rank oracle."""

    @staticmethod
    def assert_counts_match(spec, upto):
        mi = initial_ideal(buchberger(spec))
        counts = [
            sum(
                not any(monomial_divides(g, u) for g in mi.minimal_generators)
                for u in enumerate_monomials(spec.n_vars, m)
            )
            for m in range(upto + 1)
        ]
        assert series_coefficients(series_numerator(mi, spec.n_vars), upto) == counts

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixtures(self, name):
        self.assert_counts_match(load_ideal(name), 10)

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("degrees", [(2, 3), (3, 3), (2, 2, 2), (2, 3, 4)])
    def test_complete_intersections(self, degrees, seed):
        rng = random.Random(100 * seed + sum(degrees))
        ideal = IdealSpec(RING4, tuple(dense_form(rng, RING4, d) for d in degrees))
        self.assert_counts_match(ideal, 10)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_rational_normal_curves(self, n):
        self.assert_counts_match(random_rnc(random.Random(n), n), 7)


class TestHilbertPolynomial:
    @pytest.mark.parametrize(
        "name,coeffs",
        [
            ("curve_E", (0, 3)),
            ("twisted_cubic", (1, 3)),
            ("ct_1", (0, 4)),
            ("ct_half", (0, 4)),
            ("ct_neg2", (0, 4)),
            ("c0", (0, 4)),
        ],
    )
    def test_golden_polynomials(self, name, coeffs):
        data = hilbert_polynomial(load_ideal(name))
        assert data.polynomial == HilbertPolynomial(tuple(map(Fraction, coeffs)))

    def test_constant_generator_rejected(self):
        spec = IdealSpec(RING3, (parse_polynomial("5", RING3),))
        with pytest.raises(EmptyProjectiveSet):
            hilbert_polynomial(spec)

    def test_integer_valued_on_window(self):
        for name in FIXTURE_NAMES:
            P = hilbert_polynomial(load_ideal(name)).polynomial
            for m in range(-3, 10):
                assert P(m).denominator == 1

    def test_principal_closed_form(self):
        # P(m) = dm - (d-1)(d-2)/2 + 1 for a plane curve of degree d
        for d in range(1, 6):
            data = hilbert_polynomial(load_ideal(f"plane_d{d}"))
            assert data.polynomial == HilbertPolynomial(
                (Fraction(1 - (d - 1) * (d - 2) // 2), Fraction(d))
            )

    def test_reorder_and_rescale_invariance(self, twisted_cubic):
        base = hilbert_polynomial(twisted_cubic).polynomial
        rng = random.Random(31)
        for _ in range(5):
            gens = list(twisted_cubic.generators)
            rng.shuffle(gens)
            gens = [g.scale(rng.choice([2, -1, Fraction(1, 3), 7])) for g in gens]
            shuffled = IdealSpec(RING4, tuple(gens))
            assert hilbert_polynomial(shuffled).polynomial == base


class TestCrossModuleConsistency:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_macaulay_consistency(self, name):
        spec = load_ideal(name)
        num = series_numerator(initial_ideal(buchberger(spec)), spec.n_vars)
        series = series_coefficients(num, 8)
        for m in range(9):
            assert hilbert_function(spec, m) == series[m]

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_polynomial_matches_function_past_threshold(self, name):
        spec = load_ideal(name)
        data = hilbert_polynomial(spec)
        m0 = data.stabilizes_from
        for m in range(m0, m0 + 6):
            assert data.polynomial(m) == hilbert_function(spec, m)

    @staticmethod
    def assert_polynomial_is_binomial_sum(data, n_vars):
        """P(m) = sum_j q_j * C(m - j + s - 1, s - 1) past the threshold, where
        s - 1 = deg P and q = numerator / (1 - t)^(n - s)."""
        s = len(data.polynomial.coeffs)
        q = list(data.numerator.coeffs)
        for _ in range(n_vars - s):
            assert sum(q) == 0  # (1 - t) divides q
            q = list(accumulate(q))[:-1]
        m0 = data.stabilizes_from
        for m in range(m0, m0 + max(6, s)):
            expect = sum(c * binom(m - j + s - 1, s - 1) for j, c in enumerate(q))
            assert data.polynomial(m) == expect

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_polynomial_is_binomial_sum_of_numerator(self, name):
        spec = load_ideal(name)
        self.assert_polynomial_is_binomial_sum(hilbert_polynomial(spec), spec.n_vars)

    def test_polynomial_is_binomial_sum_in_200_variables(self):
        ring = tuple(f"x{i}" for i in range(200))
        gens = (parse_polynomial("x0 - 2*x1 + x199", ring), parse_polynomial("3*x7 + x150", ring))
        data = hilbert_polynomial(IdealSpec(ring, gens))
        assert len(data.polynomial.coeffs) == 198
        self.assert_polynomial_is_binomial_sum(data, 200)
        # the plane P^197: P(m) = C(m + 197, 197)
        assert all(data.polynomial(m) == binom(m + 197, 197) for m in range(-3, 4))

    @staticmethod
    def hypersurface(n_vars, d):
        ring = tuple(f"x{i}" for i in range(n_vars))
        return hilbert_polynomial(IdealSpec(ring, (parse_polynomial(f"x0^{d}", ring),)))

    @pytest.mark.parametrize("n_vars, d", [(3, 40), (20, 30), (60, 60), (200, 30)])
    def test_hypersurface_matches_series_from_threshold(self, n_vars, d):
        # numerator (1 - t^d) = (1 - t)(1 + t + ... + t^(d-1)): d nonzero
        # coefficients left after the one factor (1 - t)
        data = self.hypersurface(n_vars, d)
        m0 = data.stabilizes_from
        assert m0 == max(0, d - n_vars + 1)
        H = series_coefficients(data.numerator, m0 + 5)
        assert all(data.polynomial(m) == H[m] for m in range(m0, m0 + 6))
        if m0 > 0:
            assert data.polynomial(m0 - 1) != H[m0 - 1]
        self.assert_polynomial_is_binomial_sum(data, n_vars)

    def test_hypersurface_of_degree_100_in_1500_variables(self):
        data = self.hypersurface(1500, 100)
        for m in range(4):
            assert data.polynomial(m) == binom(m + 1499, 1499) - binom(m + 1399, 1499)

    def test_threshold_is_tight_for_plane_quintic(self):
        # H(m) < P(m) strictly below the reported threshold
        spec = load_ideal("plane_d5")
        data = hilbert_polynomial(spec)
        assert data.stabilizes_from > 0
        m = data.stabilizes_from - 1
        assert data.polynomial(m) != hilbert_function(spec, m)
