import hashlib
import json
import os
import subprocess
import sys

import pytest

jsonschema = pytest.importorskip("jsonschema")

from halphen import classifier, graded, groebner
from halphen.cli import main
from halphen.parsing import (
    DEGREE_BUDGET,
    VARIABLE_BUDGET,
    ParseError,
    parse_ideal_file,
)
from halphen.poly import DEFAULT_ORDER

from conftest import FIXTURES, LONG_LITERALS, SCHEMAS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validate(payload, schema_name):
    schema = json.loads((SCHEMAS / f"{schema_name}-v1.schema.json").read_text())
    jsonschema.validate(payload, schema)


def fixture(name):
    return str(FIXTURES / f"{name}.ideal")


class TestInvariantsCommand:
    def test_twisted_cubic(self, capsys):
        code, out, err = run(capsys, "invariants", "--ideal", fixture("twisted_cubic"))
        assert code == 0 and err == ""
        payload = json.loads(out)
        validate(payload, "invariants")
        assert payload["hilbert_polynomial"] == "3*m + 1"
        assert payload["degree"] == 3
        assert payload["genus"] == 0
        assert payload["dimension"] == 1

    def test_plane_in_p3_has_no_genus(self, capsys):
        code, out, _ = run(capsys, "invariants", "--ideal", fixture("zero4"))
        payload = json.loads(out)
        validate(payload, "invariants")
        assert payload["dimension"] == 2
        assert "genus" not in payload

    def test_irrelevant_ideal_is_empty(self, tmp_path, capsys):
        # (x, y, z) has a zero Hilbert polynomial: V(I) is empty in P^2
        path = tmp_path / "irrelevant.ideal"
        path.write_text("ring x y z\nx\ny\nz\n")
        code, out, err = run(capsys, "invariants", "--ideal", str(path))
        assert (code, out) == (1, "")
        assert err == "halphen: error: zero Hilbert polynomial: empty projective set\n"

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "invariants", "--ideal", "no_such.ideal")
        assert code == 1
        assert "error" in err

    def test_degree_over_budget_is_refused(self, tmp_path, capsys):
        huge = tmp_path / "huge.ideal"
        huge.write_text("ring x y z\nx^99999999 - y^99999999\n")
        code, out, err = run(capsys, "invariants", "--ideal", str(huge))
        assert code == 1 and out == ""
        assert err == (
            "halphen: error: line 2, col 3: a term of degree 99999999; "
            f"the degree budget is {DEGREE_BUDGET}\n"
        )

    @pytest.mark.parametrize("text,col,digits", LONG_LITERALS)
    def test_long_literal_is_refused(self, tmp_path, capsys, text, col, digits):
        path = tmp_path / "long.ideal"
        path.write_text(f"ring x y z\n{text}\n")
        code, out, err = run(capsys, "invariants", "--ideal", str(path))
        assert code == 1 and out == ""
        assert err == (
            f"halphen: error: line 2, col {col}: a literal of {digits} digits; "
            f"the limit is {sys.get_int_max_str_digits()} digits\n"
        )

    def test_coefficient_too_long_to_print(self, tmp_path, capsys):
        # P(m) of x0^2 in 330 variables has 685-digit denominators, over the
        # smallest int-string limit the interpreter accepts
        path = tmp_path / "wide.ideal"
        path.write_text("ring " + " ".join(f"x{i}" for i in range(330)) + "\nx0^2\n")
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = run(capsys, "invariants", "--ideal", str(path))
        finally:
            sys.set_int_max_str_digits(saved)
        assert (code, out) == (1, "")
        assert err == (
            "halphen: error: a Hilbert polynomial coefficient is too long to print: "
            "over 640 digits\n"
        )

    def test_label_variable_is_refused(self, tmp_path, capsys):
        # it once dropped the generator "label - x" and answered 2*m + 1
        path = tmp_path / "label.ideal"
        path.write_text("ring label x y\nlabel - x\nx*y - y^2\n")
        code, out, err = run(capsys, "invariants", "--ideal", str(path))
        assert (code, out) == (1, "")
        assert err == "halphen: error: line 1, col 1: 'label' is reserved and cannot name a variable\n"

    def test_malformed_ideal(self, tmp_path, capsys):
        bad = tmp_path / "bad.ideal"
        bad.write_text("ring x y z\nx^2 + y\n")
        code, _, err = run(capsys, "invariants", "--ideal", str(bad))
        assert code == 1
        assert "inhomogeneous" in err

    # the line number locates the generator; its text is not echoed
    def test_long_inhomogeneous_generator_is_not_echoed(self, tmp_path, capsys):
        path = tmp_path / "long.ideal"
        path.write_text("ring x y z\n" + " + ".join(["x*y"] * 40_000) + " + z\n")
        code, out, err = run(capsys, "invariants", "--ideal", str(path))
        assert (code, out) == (1, "")
        assert err == "halphen: error: line 2, col 1: inhomogeneous generator: terms of degrees 1 to 2\n"
        assert len(err.encode()) <= 1000


class TestHilbertCommand:
    def test_csv_values(self, capsys):
        code, out, _ = run(
            capsys, "hilbert", "--ideal", fixture("zero4"), "--max-degree", "2"
        )
        assert code == 0
        assert out == "m,hilbert_function\n0,1\n1,3\n2,6\n"

    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys,
            "hilbert",
            "--ideal",
            fixture("twisted_cubic"),
            "--max-degree",
            "4",
            "--format",
            "json",
        )
        payload = json.loads(out)
        validate(payload, "hilbert")
        assert payload["values"] == {"0": 1, "1": 4, "2": 7, "3": 10, "4": 13}

    def test_default_max_degree_reaches_polynomial_regime(self, capsys):
        code, out, _ = run(capsys, "hilbert", "--ideal", fixture("twisted_cubic"))
        rows = out.strip().splitlines()[1:]
        assert len(rows) >= 7  # max(6, m0 + 2) + 1 values

    def test_negative_max_degree_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["hilbert", "--ideal", fixture("twisted_cubic"), "--max-degree", "-3"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: halphen hilbert")
        assert "--max-degree: must be non-negative, got -3" in err


class TestGroebnerCheckFailure:
    def test_failed_final_check_is_domain_error(self, tmp_path, capsys, monkeypatch):
        # the generators, their own ideal, given back as its basis: not a
        # Groebner basis
        path = tmp_path / "non_basis.ideal"
        path.write_text("ring x y z\nx*y - z^2\nx^2 - y*z\n")
        bad = groebner.GroebnerBasis(DEFAULT_ORDER, parse_ideal_file(path.read_text()).generators)
        monkeypatch.setattr(groebner, "_reduce_basis", lambda *args: bad)
        code, out, err = run(capsys, "invariants", "--ideal", str(path))
        assert code == 1 and out == ""
        assert err == "halphen: error: S-polynomial did not reduce to zero\n"

    def test_basis_of_another_ideal_is_domain_error(self, capsys, monkeypatch):
        other = groebner.buchberger(parse_ideal_file((FIXTURES / "curve_E.ideal").read_text()))
        monkeypatch.setattr(groebner, "_reduce_basis", lambda *args: other)
        code, out, err = run(capsys, "invariants", "--ideal", fixture("twisted_cubic"))
        assert code == 1 and out == ""
        assert err == "halphen: error: input generator did not reduce to zero\n"


class TestClassifyCommand:
    def test_gap_pair_json(self, capsys):
        code, out, _ = run(capsys, "classify", "4", "2", "--json")
        assert code == 0
        payload = json.loads(out)
        validate(payload, "classify")
        assert payload["exists_any"] is False
        assert payload["bounds"]["gruson_peskine_bound"] == "5/3"

    def test_existing_pair_text(self, capsys):
        code, out, _ = run(capsys, "classify", "3", "0")
        assert code == 0
        assert "exists" in out and "does not" not in out

    def test_text_names_the_gruson_peskine_range(self, capsys):
        code, out, _ = run(capsys, "classify", "6", "4")
        assert code == 0
        assert out == (
            "a smooth curve of degree 6 and genus 4 in P^3 exists\n"
            "  plane curve:        no (g = 10 required)\n"
            "  on a quadric:       yes (Castelnuovo bound 4)\n"
            "  in the Gruson-Peskine range: yes (Gruson-Peskine bound 4)\n"
        )

    def test_huge_degree_answers(self, capsys):
        code, out, _ = run(capsys, "classify", "1000000000", "5", "--json")
        assert code == 0
        payload = json.loads(out)
        validate(payload, "classify")
        assert payload["exists_off_quadric"] and not payload["exists_on_quadric"]

    # sha256 of the text and the --json output, recorded at commit 5b98b7e
    # for one pair per category plus a huge degree; the bounds and flags
    # printed must not move when the classifier is reorganised.
    GOLDEN_SHA256 = {
        (6, 4): (  # gp-region
            "b06c2ca9e13c55096cae5ebb852cdc42e04232d3f518491a0f820cbeb630dcfd",
            "87dc9eec95ff5ff897594a22c22f24cb13e64bf26caff7237bbe3a6b44ebe3b6",
        ),
        (7, 6): (  # quadric
            "44bb5de214b5466b3c49adf83624021c96c7e5e5cedebbb3c2d94dd7cdea6316",
            "85dc2ca428784494b2768286eac7e0240c3f6bd2f0714670ad1ac427b7d5745b",
        ),
        (5, 6): (  # plane-only
            "99e6cf7c3ccbb290cedd9323c0f3ac46140f6ad5174adb70ce204c468733df7c",
            "67e6b0852bcca250d9794f58a5838032a98b6919b0214d897091bedc0e64868b",
        ),
        (4, 2): (  # nonexistent
            "edef27f5c05a39db5d515958b26f725fd9ae5dfd9cfad432aa54d8a1543625f8",
            "24db5ea608d0c25b653b7fefee9c8a290dec95e195dc5521c5ce5c1ac6d921ff",
        ),
        (1000000000, 5): (
            "ff8e414162e8b0d1e43e444dafafa1a165738e99a62698e66405716754775481",
            "5a07e98096e233409f4d3e24b1f3f06acbfe87bbecddaabd9829a5f960ec01e4",
        ),
    }

    @pytest.mark.parametrize("pair", sorted(GOLDEN_SHA256))
    def test_golden_sha256(self, capsys, pair):
        digests = []
        for extra in ((), ("--json",)):
            code, out, err = run(capsys, "classify", *map(str, pair), *extra)
            assert (code, err) == (0, "")
            digests.append(hashlib.sha256(out.encode()).hexdigest())
        assert tuple(digests) == self.GOLDEN_SHA256[pair]

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "three", "0"])
        assert exc.value.code == 2


class TestRegionCommand:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "region", "--dmax", "5")
        assert code == 0
        assert out.startswith("d,g,exists_plane")
        assert "5,4,false,false,false,false,nonexistent" in out

    def test_svg(self, capsys):
        code, out, _ = run(capsys, "region", "--dmax", "4", "--format", "svg")
        assert code == 0
        assert out.startswith("<svg ")

    # the stream is checked before its first chunk: no header or preamble
    # reaches stdout ahead of the error
    @pytest.mark.parametrize(
        "fmt, dmax, message",
        [
            pytest.param(
                fmt,
                "1000000",
                "region d_max = 1000000 has 166666166668000000 rows; the budget is 500000",
                id=fmt,
            )
            for fmt in ("csv", "svg")
        ]
        + [
            pytest.param(fmt, dmax, "d_max must be positive", id=f"{fmt}-dmax{dmax}")
            for dmax in ("0", "-3")
            for fmt in ("csv", "svg")
        ],
    )
    def test_budget_is_domain_error(self, capsys, fmt, dmax, message):
        code, out, err = run(capsys, "region", "--dmax", dmax, "--format", fmt)
        assert code == 1 and out == ""
        assert err == f"halphen: error: {message}\n"

    @pytest.mark.parametrize("fmt", ["csv", "svg"])
    @pytest.mark.parametrize("d_max", [1, 2, 12, 40])
    def test_stream_equals_library_string(self, capsys, fmt, d_max):
        render = classifier.region_svg if fmt == "svg" else classifier.region_csv
        code, out, err = run(capsys, "region", "--dmax", str(d_max), "--format", fmt)
        assert (code, err) == (0, "")
        assert out == render(d_max)

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
    def test_memory_flat_in_dmax(self):
        # a fresh child writes the dmax-120 SVG (29 MB) to /dev/null and
        # reports the peak RSS of its own address space: about 18 MB when
        # the CLI streams, 157 MB when it held the whole table and text.
        # VmHWM, not ru_maxrss: Linux carries the RSS of the spawning
        # process (this test runner) across exec into the child's ru_maxrss.
        code = (
            "import os, sys\n"
            "from halphen.cli import main\n"
            "with open(os.devnull, 'w') as sink:\n"
            "    sys.stdout, stdout = sink, sys.stdout\n"
            "    status = main(['region', '--dmax', '120', '--format', 'svg'])\n"
            "    sys.stdout = stdout\n"
            "with open('/proc/self/status') as f:\n"
            "    hwm = next(line.split()[1] for line in f if line.startswith('VmHWM:'))\n"
            "print(status, hwm)\n"
        )
        path = [str(FIXTURES.parent / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert (result.returncode, result.stderr) == (0, "")
        status, kib = map(int, result.stdout.split())
        assert status == 0
        assert kib < 64 * 1024


class TestSmoothAtCommand:
    def test_singular_point_on_c0(self, capsys):
        code, out, _ = run(
            capsys, "smooth-at", "--ideal", fixture("c0"), "--point", "1:0:0:0"
        )
        assert code == 0
        payload = json.loads(out)
        validate(payload, "smooth-at")
        assert payload["smooth"] is False
        assert payload["jacobian_rank"] == 1
        assert payload["codimension"] == 2

    def test_smooth_point_on_twisted_cubic(self, capsys):
        code, out, _ = run(
            capsys,
            "smooth-at",
            "--ideal",
            fixture("twisted_cubic"),
            "--point",
            "1:0:0:0",
        )
        payload = json.loads(out)
        assert payload["smooth"] is True
        assert payload["jacobian_rank"] == 2

    def test_point_off_variety(self, capsys):
        code, _, err = run(
            capsys, "smooth-at", "--ideal", fixture("c0"), "--point", "1:1:0:0"
        )
        assert code == 1
        assert "not on the variety" in err

    def test_zero_denominator_in_point(self, capsys):
        code, out, err = run(
            capsys, "smooth-at", "--ideal", fixture("c0"), "--point", "1/0:1:1:1"
        )
        assert (code, out) == (1, "")
        assert err == "halphen: error: bad point: coordinate 1 has a zero denominator\n"

    def test_all_zero_point(self, capsys):
        code, out, err = run(
            capsys, "smooth-at", "--ideal", fixture("twisted_cubic"), "--point", "0:0:0:0"
        )
        assert (code, out) == (1, "")
        assert err == "halphen: error: projective point needs a nonzero coordinate\n"

    def test_exponent_notation_in_point(self, capsys):
        # Fraction("1e3000000") alone would build a 3-million-digit integer
        point = "1e3000000:0:0:0"
        code, out, err = run(
            capsys, "smooth-at", "--ideal", fixture("twisted_cubic"), "--point", point
        )
        assert (code, out) == (1, "")
        assert err == (
            "halphen: error: bad point: coordinate 1 uses exponent notation, which is not supported\n"
        )

    # a long coordinate within the digit limit is named, not echoed
    @pytest.mark.parametrize(
        "point, why",
        [
            ("1" * 4000 + "q:0:0:0", "is not a number"),
            ("1" * 4000 + "e:0:0:0", "uses exponent notation, which is not supported"),
        ],
        ids=["not-a-number", "exponent"],
    )
    def test_long_bad_coordinate_is_not_echoed(self, capsys, point, why):
        code, out, err = run(
            capsys, "smooth-at", "--ideal", fixture("twisted_cubic"), "--point", point
        )
        assert (code, out) == (1, "")
        assert err == f"halphen: error: bad point: coordinate 1 {why}\n"
        assert len(err.encode()) <= 1000

    def test_coordinate_past_the_int_string_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        point = "0:1/" + "1" * (limit + 100) + ":0:0"
        code, out, err = run(
            capsys, "smooth-at", "--ideal", fixture("twisted_cubic"), "--point", point
        )
        assert (code, out) == (1, "")
        assert err == (
            f"halphen: error: bad point: coordinate 2 is a literal of {limit + 100} digits;"
            f" the limit is {limit} digits\n"
        )
        assert len(err) <= 1000


class TestTangentCommand:
    def test_plane_cubic(self, capsys):
        code, out, _ = run(
            capsys,
            "tangent",
            "--poly",
            "z*y^2 - x^3 + x*z^2 + z^3",
            "--point",
            "0:1:0",
        )
        assert code == 0
        payload = json.loads(out)
        validate(payload, "tangent")
        assert payload["line"] == "z = 0"

    def test_singular_point_is_domain_error(self, capsys):
        code, _, err = run(capsys, "tangent", "--poly", "x*y", "--point", "0:0:1")
        assert code == 1
        assert "tangent line undefined" in err

    def test_exponent_notation_in_point(self, capsys):
        point = "0:1E3000000:1"
        code, out, err = run(capsys, "tangent", "--poly", "x^2 + y^2 - z^2", "--point", point)
        assert (code, out) == (1, "")
        assert err == (
            "halphen: error: bad point: coordinate 2 uses exponent notation, which is not supported\n"
        )

    # --ring is checked like an ideal file's ring line, with the same message
    # but no line and column, which a flag does not have
    @pytest.mark.parametrize("ring", ["x x y", "x 1y z", ""])
    def test_bad_ring_is_domain_error(self, capsys, ring):
        with pytest.raises(ParseError) as exc:
            parse_ideal_file(f"ring {ring}\nx\n")
        code, out, err = run(
            capsys, "tangent", "--poly", "x^2 - x*y", "--ring", ring, "--point", "1:0:1"
        )
        assert (code, out) == (1, "")
        assert err == f"halphen: error: --ring: {exc.value.message}\n"

    # argparse reads a separate value that starts with "-" as an option
    def test_negative_point_needs_the_equals_form(self, capsys):
        poly = ("--poly", "x^2 + y^2 - z^2")
        code, out, err = run(capsys, "tangent", *poly, "--point=-3/5:4/5:1")
        assert (code, err) == (0, "")
        assert json.loads(out)["line"] == "x - 4/3*y + 5/3*z = 0"
        with pytest.raises(SystemExit) as exc:
            main(["tangent", *poly, "--point", "-3/5:4/5:1"])
        assert exc.value.code == 2
        assert "--point: expected one argument" in capsys.readouterr().err


class TestGeometryGoldens:
    # exit code and sha256 of stdout and stderr, recorded at commit 0ec8350;
    # the bytes must not move when the polynomial arithmetic is reorganised.
    EMPTY = hashlib.sha256(b"").hexdigest()
    GOLDEN_SHA256 = {
        ("tangent", "--poly", "y^2*z - x^3 - x*z^2", "--point", "0:0:1"): (  # README cubic
            0, "adf5e5b27f115f88cb242914a597c4bf1bacb9ac1cc49983cf9ac69784c85add", EMPTY
        ),
        ("tangent", "--poly", "x^2 + y^2 - z^2", "--point", "3/5:4/5:1"): (  # rational line
            0, "215df6b72a03db49028f851418a5ab00accaa99b4cbeeff51a673daa6b6f8a76", EMPTY
        ),
        ("tangent", "--poly", "x*y", "--point", "0:0:1"): (  # singular point
            1, EMPTY, "454f84b8df33022fa255e9fdef2a45cdd8159caaab6b33673a178e7400433a39"
        ),
        ("smooth-at", "--ideal", fixture("twisted_cubic"), "--point", "1:0:0:0"): (
            0, "66e963ad5adfd6d653658eae8a4973e92ec734677833b388810dfa77a7569e25", EMPTY
        ),
        ("smooth-at", "--ideal", fixture("c0"), "--point", "1:0:0:0"): (
            0, "96952214294bbac01f899e40e3646373f4a8741f3a0dfa0ab26d9ff110cf3a59", EMPTY
        ),
    }

    @pytest.mark.parametrize("argv", sorted(GOLDEN_SHA256))
    def test_golden_sha256(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in (out, err))
        assert (code, *digests) == self.GOLDEN_SHA256[argv]


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("invariants", "--ideal", fixture("curve_E")),
            ("hilbert", "--ideal", fixture("c0"), "--max-degree", "5", "--format", "json"),
            ("classify", "7", "5", "--json"),
            ("region", "--dmax", "6"),
            ("region", "--dmax", "5", "--format", "svg"),
            ("smooth-at", "--ideal", fixture("c0"), "--point", "1:0:0:0"),
            ("tangent", "--poly", "x^2 + y^2 - z^2", "--point", "1:0:1"),
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second
        assert first[0] == 0


class TestInputTooLarge:
    def test_many_variables_without_recursion_error(self, tmp_path, capsys):
        ring = " ".join(f"x{i}" for i in range(1100))
        path = tmp_path / "wide.ideal"
        path.write_text(f"ring {ring}\nx0\n")
        code, out, err = run(capsys, "hilbert", "--ideal", str(path), "--max-degree", "1")
        assert (code, out, err) == (0, "m,hilbert_function\n0,1\n1,1099\n", "")

    def test_variable_budget_is_domain_error(self, tmp_path, capsys):
        n = VARIABLE_BUDGET + 1
        ring = " ".join(f"x{i}" for i in range(n))
        path = tmp_path / "wider.ideal"
        path.write_text(f"ring {ring}\nx0^2 + x1*x{n - 1}\n")
        code, out, err = run(capsys, "invariants", "--ideal", str(path))
        assert (code, out) == (1, "")
        assert err == (
            f"halphen: error: line 1, col 1: a ring of {n} variables; "
            f"the variable budget is {VARIABLE_BUDGET}\n"
        )
        code, out, err = run(
            capsys, "tangent", "--poly", "x0^2 - x0*x1", "--ring", ring, "--point", "1:0:1"
        )
        assert (code, out) == (1, "")
        assert err == (
            f"halphen: error: --ring: a ring of {n} variables; "
            f"the variable budget is {VARIABLE_BUDGET}\n"
        )

    def test_piece_budget_is_domain_error(self, capsys):
        code, out, err = run(
            capsys, "hilbert", "--ideal", fixture("twisted_cubic"), "--max-degree", "10000"
        )
        assert code == 1 and out == ""
        assert err.startswith("halphen: error: graded piece m = 10000 has ")
        assert err.endswith("the budget is 100000\n")

    def test_pair_budget_is_domain_error(self, capsys, monkeypatch):
        monkeypatch.setattr(groebner, "PAIR_BUDGET", 0)
        code, out, err = run(capsys, "invariants", "--ideal", fixture("twisted_cubic"))
        assert (code, out, err) == (1, "", "halphen: error: pair budget exceeded\n")

    @pytest.mark.parametrize(
        "exc, text",
        [(RecursionError, "recursion limit exceeded"), (MemoryError, "out of memory")],
    )
    def test_resource_exhaustion_is_domain_error(self, capsys, monkeypatch, exc, text):
        def exhausted(*args):
            raise exc

        monkeypatch.setattr(graded, "hilbert_function_table", exhausted)
        code, out, err = run(
            capsys, "hilbert", "--ideal", fixture("twisted_cubic"), "--max-degree", "3"
        )
        assert code == 1 and out == ""
        assert err == f"halphen: error: input too large: {text}\n"

    # only the listed exceptions exit 1; a bug keeps its traceback
    def test_unlisted_runtime_error_propagates(self, capsys, monkeypatch):
        def bug(*args):
            raise RuntimeError("bug")

        monkeypatch.setattr(graded, "hilbert_function_table", bug)
        with pytest.raises(RuntimeError, match="^bug$"):
            main(["hilbert", "--ideal", fixture("twisted_cubic"), "--max-degree", "3"])


# Layers the (d, g) classifier must run without.  pathlib, re and enum are
# left out: a site-packages .pth file may import them before any user code.
NOT_CLASSIFIER = (
    "halphen.groebner",
    "halphen.graded",
    "halphen.linalg",
    "halphen.geometry",
    "halphen.invariants",
    "halphen.parsing",
    "dataclasses",
)

# Every package module but poly itself.
NOT_POLY = tuple(
    f"halphen.{path.stem}"
    for path in sorted((FIXTURES.parent / "src" / "halphen").glob("*.py"))
    if path.stem not in ("__init__", "poly")
)


@pytest.mark.parametrize(
    "statement, absent",
    [
        ("import halphen", ("halphen.",)),
        ("import halphen.cli", ()),
        ("import halphen.cli; halphen.cli.main(['classify', '6', '4'])", NOT_CLASSIFIER),
        ("import halphen.cli; halphen.cli.main(['region', '--dmax', '3'])", NOT_CLASSIFIER),
        (
            "import halphen.cli; halphen.cli.main("
            "['tangent', '--poly', 'x^2 + y^2 - z^2', '--point', '1:0:1'])",
            ("halphen.groebner", "halphen.graded"),
        ),
        (
            "import halphen.cli; halphen.cli.main("
            f"['invariants', '--ideal', {str(FIXTURES / 'twisted_cubic.ideal')!r}])",
            ("halphen.graded", "halphen.linalg", "halphen.geometry", "halphen.classifier"),
        ),
        # the ring and its ideals stand alone, and the oracles read no text
        ("import halphen.poly; repr(halphen.poly.Polynomial.constant(1, 'x'))", NOT_POLY),
        ("import halphen.graded, halphen.groebner, halphen.geometry", ("halphen.parsing",)),
    ],
    ids=["package", "cli", "classify", "region", "tangent", "invariants", "poly", "oracles"],
)
def test_import_boundaries(statement, absent):
    """A fresh interpreter runs the statement and then lists the loaded
    modules that start with numpy or any of the absent prefixes."""
    prefixes = ("numpy", *absent)
    code = f"{statement}\nimport sys\nprint(sorted(m for m in sys.modules if m.startswith({prefixes!r})))"
    path = [str(FIXTURES.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.splitlines()[-1] == "[]"
