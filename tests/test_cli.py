import contextlib
import errno
import hashlib
import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

jsonschema = pytest.importorskip("jsonschema")

from halphen import classifier, cli, graded, groebner
from halphen.cli import main
from halphen.parsing import (
    DEGREE_BUDGET,
    VARIABLE_BUDGET,
    ParseError,
    parse_ideal_file,
)

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


def child_env():
    """The environment of a child interpreter that imports halphen from this
    source tree."""
    path = [str(FIXTURES.parent / "src"), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


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

    def test_constant_generator_is_empty(self, tmp_path, capsys):
        # (3) is the unit ideal: its Hilbert polynomial is zero as well
        path = tmp_path / "unit.ideal"
        path.write_text("ring x y z\n3\n")
        code, out, err = run(capsys, "invariants", "--ideal", str(path))
        assert (code, out) == (1, "")
        assert err == "halphen: error: zero Hilbert polynomial: empty projective set\n"

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "invariants", "--ideal", "no_such.ideal")
        assert (code, out) == (1, "")
        assert err == "halphen: error: cannot read 'no_such.ideal': No such file or directory\n"

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

    # without --max-degree both oracles run, and every value of the rank
    # table must equal the expansion of the series numerator
    def test_rank_off_by_one_is_refused(self, capsys, monkeypatch):
        table = graded.hilbert_function_table

        def off_by_one(spec, m_max):
            values = dict(table(spec, m_max).values)
            values[3] += 1
            return graded.HilbertFunctionTable(values)

        monkeypatch.setattr(graded, "hilbert_function_table", off_by_one)
        code, out, err = run(capsys, "hilbert", "--ideal", fixture("twisted_cubic"))
        assert (code, out) == (1, "")
        assert err == "halphen: error: H(3) is 11 by Macaulay rank but 10 by the Hilbert series\n"

    def test_series_off_by_one_is_refused(self, capsys, monkeypatch):
        series = groebner.hilbert_polynomial

        def off_by_one(spec):
            data = series(spec)
            num = data.numerator
            coeffs = (num.coeffs[0] + 1, *num.coeffs[1:])
            shifted = groebner.HilbertSeriesNumerator(coeffs, num.n_vars)
            return groebner.HilbertData(data.polynomial, data.stabilizes_from, shifted)

        monkeypatch.setattr(groebner, "hilbert_polynomial", off_by_one)
        code, out, err = run(capsys, "hilbert", "--ideal", fixture("twisted_cubic"))
        assert (code, out) == (1, "")
        assert err == "halphen: error: H(0) is 1 by Macaulay rank but 2 by the Hilbert series\n"

    def test_mismatch_is_a_named_value_error(self):
        # one variable: the series 1/(1-t) has H(m) = 1 for every m
        num = groebner.HilbertSeriesNumerator((1,), 1)
        cli._cross_check({0: 1, 1: 1, 2: 1}, num)
        with pytest.raises(cli.OracleMismatch) as exc:
            cli._cross_check({0: 1, 1: 2}, num)
        assert isinstance(exc.value, ValueError)

    # with --max-degree the series path does not run, so there is nothing
    # to compare
    def test_max_degree_runs_the_rank_path_alone(self, capsys, monkeypatch):
        def never(spec):
            raise AssertionError("the series path ran")

        monkeypatch.setattr(groebner, "hilbert_polynomial", never)
        code, out, _ = run(
            capsys, "hilbert", "--ideal", fixture("twisted_cubic"), "--max-degree", "2"
        )
        assert (code, out) == (0, "m,hilbert_function\n0,1\n1,4\n2,7\n")

    def test_constant_generator_has_zero_table(self, tmp_path, capsys):
        """Both oracles answer the unit ideal: P = 0 from m = 0, so the
        series path picks m_max = 6, the table the rank path prints alone."""
        path = tmp_path / "unit.ideal"
        path.write_text("ring x y z\n3\n")
        code, out, err = run(capsys, "hilbert", "--ideal", str(path))
        assert (code, err) == (0, "")
        assert out == "m,hilbert_function\n" + "".join(f"{m},0\n" for m in range(7))
        assert run(capsys, "hilbert", "--ideal", str(path), "--max-degree", "6") == (0, out, "")

    def test_negative_max_degree_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["hilbert", "--ideal", fixture("twisted_cubic"), "--max-degree", "-3"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: halphen hilbert")
        assert "--max-degree: must be non-negative, got -3" in err


def packed(elements):
    """A stand-in for `groebner._reduce_basis` that hands the certificate
    the given polynomials, packed by the run, instead of the loop's basis."""
    return lambda basis, packing: [groebner._integer_terms(g, packing) for g in elements]


class TestGroebnerCheckFailure:
    def test_failed_final_check_is_domain_error(self, tmp_path, capsys, monkeypatch):
        # the generators, their own ideal, given back as its basis: not a
        # Groebner basis
        path = tmp_path / "non_basis.ideal"
        path.write_text("ring x y z\nx*y - z^2\nx^2 - y*z\n")
        bad = parse_ideal_file(path.read_text()).generators
        monkeypatch.setattr(groebner, "_reduce_basis", packed(bad))
        code, out, err = run(capsys, "invariants", "--ideal", str(path))
        assert code == 1 and out == ""
        assert err == "halphen: error: S-polynomial did not reduce to zero\n"

    def test_basis_of_another_ideal_is_domain_error(self, capsys, monkeypatch):
        other = groebner.buchberger(parse_ideal_file((FIXTURES / "curve_E.ideal").read_text()))
        monkeypatch.setattr(groebner, "_reduce_basis", packed(other.elements))
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
    # the library string is the join of the stream's chunks
    @pytest.mark.parametrize("d_max", [1, 2, 3, 12, 30, 40, 60, 80])
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
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), timeout=120
        )
        assert (result.returncode, result.stderr) == (0, "")
        status, kib = map(int, result.stdout.split())
        assert status == 0
        assert kib < 64 * 1024


class TestWriteFailure:
    """A write of the output that fails is refused like a domain error, by
    a child interpreter: exit 1, one line of stderr and no traceback, from
    the interpreter's last flush of stdout either."""

    def child(self, *argv, stdout):
        return subprocess.Popen(
            [sys.executable, "-m", "halphen.cli", *argv],
            stdout=stdout,
            stderr=subprocess.PIPE,
            env=child_env(),
        )

    def assert_refused(self, proc, err, errno_):
        assert proc.returncode == 1
        assert b"Traceback" not in err and len(err) <= 1000
        assert err.decode() == f"halphen: error: cannot write output: {os.strerror(errno_)}\n"

    # the table is 6 MB, more than a pipe holds, so the child is still
    # writing when the reader closes its end
    def test_closed_pipe(self):
        with self.child("region", "--dmax", "100", stdout=subprocess.PIPE) as proc:
            assert proc.stdout.readline().startswith(b"d,g,exists_plane,")
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        self.assert_refused(proc, err, errno.EPIPE)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device(self):
        with open("/dev/full", "w") as full, self.child("classify", "6", "4", stdout=full) as proc:
            _, err = proc.communicate(timeout=120)
        self.assert_refused(proc, err, errno.ENOSPC)


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

    # (y, xz, xw^2) is the line x = y = 0 plus a length-2 point at 1:0:0:0,
    # whose local ring k[w]/(w^2) is not regular; smooth-at compares the
    # Jacobian rank there with the global codimension, which the local
    # dimension does not match, and answers "smooth": true
    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 1 and CHANGES.md FOUND line 89: smooth-at uses the global codimension",
    )
    def test_non_reduced_isolated_point_is_not_smooth(self, tmp_path, capsys):
        path = tmp_path / "line_and_double_point.ideal"
        path.write_text("ring x y z w\ny\nx*z\nx*w^2\n")
        code, out, _ = run(capsys, "smooth-at", "--ideal", str(path), "--point", "1:0:0:0")
        assert '"smooth": true' not in out

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
    # The singular point's stderr was re-recorded when the message stopped
    # echoing the point.
    EMPTY = hashlib.sha256(b"").hexdigest()
    GOLDEN_SHA256 = {
        ("tangent", "--poly", "y^2*z - x^3 - x*z^2", "--point", "0:0:1"): (  # README cubic
            0, "adf5e5b27f115f88cb242914a597c4bf1bacb9ac1cc49983cf9ac69784c85add", EMPTY
        ),
        ("tangent", "--poly", "x^2 + y^2 - z^2", "--point", "3/5:4/5:1"): (  # rational line
            0, "215df6b72a03db49028f851418a5ab00accaa99b4cbeeff51a673daa6b6f8a76", EMPTY
        ),
        ("tangent", "--poly", "x*y", "--point", "0:0:1"): (  # singular point
            1, EMPTY, "c3356072931a42fa1e25630f1f726161648ddc5248ab10dbe068ea7db7410301"
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


def battery():
    """84 commands as (group, argv): each fixture through invariants,
    hilbert as CSV and JSON, and smooth-at at its first and last
    coordinate point; then classify, region and tangent."""
    for path in sorted(FIXTURES.glob("*.ideal")):
        n = 3 if path.stem.startswith("plane") else 4
        ideal = ("--ideal", str(path))
        yield path.stem, ("invariants", *ideal)
        yield path.stem, ("hilbert", *ideal)
        yield path.stem, ("hilbert", *ideal, "--format", "json")
        for i in (0, n - 1):
            point = ":".join("1" if j == i else "0" for j in range(n))
            yield path.stem, ("smooth-at", *ideal, "--point", point)
    for argv in (("6", "4"), ("6", "4", "--json"), ("4", "2", "--json"), ("7", "6"), ("1000000000", "5", "--json")):
        yield "classify", ("classify", *argv)
    yield "region", ("region", "--dmax", "8")
    yield "region", ("region", "--dmax", "6", "--format", "svg")
    for argv in (
        ("--poly", "y^2*z - x^3 - x*z^2", "--point", "0:0:1"),
        ("--poly", "x^2 + y^2 - z^2", "--point", "3/5:4/5:1"),
        ("--poly", "x^2 + y^2 - z^2", "--point=-3/5:4/5:1"),
        ("--poly", "z*y^2 - x^3 + x*z^2 + z^3", "--point", "0:1:0"),
        ("--poly", "a^2 - b*c", "--ring", "a b c", "--point", "0:1:0"),
        ("--poly", "x*y", "--point", "0:0:1"),
        ("--poly", "x*y", "--point", "1:1:1"),
    ):
        yield "tangent", ("tangent", *argv)


def battery_digests(capsys):
    """Per group: the exit codes, and the sha256 of the stdouts joined by NUL."""
    codes, outs = {}, {}
    for group, argv in battery():
        code, out, _ = run(capsys, *argv)
        codes.setdefault(group, []).append(code)
        outs.setdefault(group, []).append(out)
    return {
        group: ("".join(map(str, codes[group])), hashlib.sha256("\0".join(outs[group]).encode()).hexdigest())
        for group in codes
    }


class TestBattery:
    # per group of battery(): the exit codes and the stdout sha256, recorded
    # at commit 62c95cd; moving where the CLI writes its output must not
    # move a byte of it
    GOLDEN = {
        'c0': ('00000', 'daad330c4f077ecd93bc70c32c490e7ed478adc2792d2693ea03128054519bc3'),
        'ct_1': ('00010', 'e34092913cf4da0dc5ccb9289ce409d7e502a2eade223aa81f8b01d1d1b49dea'),
        'ct_half': ('00010', '446c6f008620a4fa75226310aebd50068387f07c8be771c641cabefd9cc77ebb'),
        'ct_neg2': ('00010', 'fe0b429087cdfa6dda749e4eac03663ad4a28f814746e32ae8a36323eb058533'),
        'curve_E': ('00011', 'ff7c8982afc140d5c1e8f51d923180cc060ec357917e2bc51ffcfb6afbd769c8'),
        'line_L': ('00000', '9f633a6b0d5de017ed74e2f3cf29d1e92f6bfc3ccb5ee636fc75a0e43106fa11'),
        'plane_d1': ('00011', 'b9d32abd5eac0dee66c3c3422aca11968cabb38ffadfc267b75ed890548f994b'),
        'plane_d2': ('00011', '1bb720b07a97b9f9e1418e53f709749672b92ef938bf08bc1bb06d029fb1e7c1'),
        'plane_d3': ('00011', 'dd6ec92097a230b66efabe38266a62867a40c738c805c148d97a9b44edfc9c9a'),
        'plane_d4': ('00011', '10597f53437f6222f11c5767d14ff96de92c951769286c90ddb592d9a93021d9'),
        'plane_d5': ('00011', '3896f384a5d678cfc53467675786c7e8f2a9c5c44a27e2cf3d4041b075502ceb'),
        'twisted_cubic': ('00000', 'd52de2da4409598eae929557872a33161dff344f97aec93dd78c992e39c3267c'),
        'two_quadrics': ('00011', '7326ae3d5b52a34658ff87cc895abb851c394dd629cbf088435c79528d22f500'),
        'zero4': ('00001', 'cb369c8705850916d2d34da8ab41cae8a07f94fdd5625dd5e854f759cf9846e9'),
        'classify': ('00000', 'd1971ef8f712c8b16cbd60a54887f0806237cac24ea78184ef81a63186954dfb'),
        'region': ('00', '939fdecbddde4e50e88f2a752c1a40f1b86f316393dbe8da8cfa3591201b9ca2'),
        'tangent': ('0000011', 'dd76f4a32e8a0ba726da88e1c425260ef00ee6c2c5bb83f6baa343af32ae2015'),
    }

    def test_stdout_pinned(self, capsys):
        assert battery_digests(capsys) == self.GOLDEN


class TestBoundedRefusals:
    """A refusal names what is wrong without echoing the input: each exits
    1, or 2 for a usage error, with a stderr of at most 1 kB and no
    traceback."""

    N = "7" * 4300  # a coordinate at the default int-string limit

    def refuse(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert "Traceback" not in err and len(err.encode()) <= 1000
        return err

    def usage(self, *argv):
        # a StringIO, unlike capsys, takes the lone surrogate that a byte of
        # argv that is not UTF-8 becomes; sys.stderr writes it as \udcxx
        err = io.StringIO()
        with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        text = err.getvalue()
        assert "Traceback" not in text and len(text.encode(errors="backslashreplace")) <= 1000
        return text

    def test_long_missing_path_is_shown_once(self, capsys):
        err = self.refuse(capsys, "invariants", "--ideal", "a" * 100_000)
        assert err.startswith(f"halphen: error: cannot read {'a' * 32!r}... (100000 characters): ")
        assert err.count("a" * 32) == 1

    # a budget refusal prints the numbers it compares; the text is cut
    @pytest.mark.parametrize(
        "argv, head",
        [
            (["region", "--dmax", "9" * 300], "region d_max = 999"),
            (
                ["hilbert", "--ideal", fixture("twisted_cubic"), "--max-degree", "9" * 1000],
                "graded piece m = 999",
            ),
            # counts past the int-string limit: named by the budget's own
            # message, not by Python's conversion error
            (["region", "--dmax", "9" * 2000], "region d_max = 999"),
            (
                ["hilbert", "--ideal", fixture("twisted_cubic"), "--max-degree", "9" * 4000],
                "graded piece m = 999",
            ),
        ],
        ids=["region-dmax", "hilbert-max-degree", "region-digit-limit", "hilbert-digit-limit"],
    )
    def test_long_budget_numbers(self, capsys, argv, head):
        err = self.refuse(capsys, *argv)
        assert err.startswith(f"halphen: error: {head}") and err.endswith(" characters)\n")

    # G(d, 1) of a 2501-digit degree has 5001 digits
    @pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
    def test_long_degree_bounds(self, capsys, fmt):
        err = self.refuse(capsys, "classify", "7" * 2501, "0", *fmt)
        limit = sys.get_int_max_str_digits()
        assert err == f"halphen: error: a bound is too long to print: over {limit} digits\n"

    def test_long_exponent_over_the_degree_budget(self, tmp_path, capsys):
        path = tmp_path / "exponent.ideal"
        path.write_text("ring x y z\nx^" + "9" * 1000 + " - y\n")
        err = self.refuse(capsys, "invariants", "--ideal", str(path))
        assert err.startswith("halphen: error: line 2, col 3: a term of degree 999")

    @pytest.mark.parametrize(
        "argv, tail",
        [
            (["classify", "x" * 100_000, "1"], "argument d: invalid int value: 'xxx"),
            (["hilbert", "--ideal", "i", "--format", "x" * 100_000], "argument --format: invalid choice: 'x"),
            (["classify", "6", "4", "x" * 100_000], "unrecognized arguments: xxx"),
            (["classify", "6", "4", "\udcff" * 1000], "unrecognized arguments: \udcff"),
            (["x" * 100_000], "argument command: invalid choice: 'xxx"),
            (["hilbert", "--ideal", "i", "--max-degree", "9" * 5000], "argument --max-degree: invalid int value"),
        ],
        ids=["classify-int", "format-choice", "unrecognized", "undecodable", "subcommand", "max-degree-int"],
    )
    def test_long_usage_errors(self, argv, tail):
        err = self.usage(*argv)
        assert f"error: {tail}" in err and err.endswith(" characters)\n")

    def test_unknown_long_variable(self, tmp_path, capsys):
        path = tmp_path / "name.ideal"
        path.write_text("ring x y z\nx - " + "t" * 100_000 + "\n")
        err = self.refuse(capsys, "invariants", "--ideal", str(path))
        assert err == f"halphen: error: line 2, col 5: unknown variable {'t' * 32!r}... (100000 characters)\n"

    def test_long_bad_name_on_a_ring_line(self, tmp_path, capsys):
        path = tmp_path / "ring.ideal"
        path.write_text("ring x y 1" + "y" * 99_999 + "\nx\n")
        err = self.refuse(capsys, "invariants", "--ideal", str(path))
        assert err == f"halphen: error: line 1, col 1: bad variable name {'1' + 'y' * 31!r}... (100000 characters)\n"

    def test_long_bad_name_in_ring_flag(self, capsys):
        ring = "x y 1" + "y" * 99_999
        err = self.refuse(capsys, "tangent", "--poly", "x*y", "--ring", ring, "--point", "0:0:1")
        assert err == f"halphen: error: --ring: bad variable name {'1' + 'y' * 31!r}... (100000 characters)\n"

    def test_long_point_off_the_variety(self, capsys):
        point = f"{self.N}:{self.N}:{self.N}:1"
        err = self.refuse(capsys, "smooth-at", "--ideal", fixture("twisted_cubic"), "--point", point)
        assert err == "halphen: error: the point is not on the variety\n"

    def test_long_point_off_the_curve(self, capsys):
        err = self.refuse(capsys, "tangent", "--poly", "x^2 + y^2 - z^2", "--point", f"{self.N}:{self.N}:1")
        assert err == "halphen: error: the point is not on the curve\n"

    def test_long_singular_point(self, capsys):
        err = self.refuse(capsys, "tangent", "--poly", "x*y", "--point", f"0:0:{self.N}")
        assert err == "halphen: error: the gradient vanishes at the point: tangent line undefined\n"

    # membership is checked before any Groebner work
    def test_membership_before_buchberger(self, capsys, monkeypatch):
        def unreachable(*args):
            raise RuntimeError("hilbert_polynomial ran before the membership check")

        monkeypatch.setattr(groebner, "hilbert_polynomial", unreachable)
        err = self.refuse(capsys, "smooth-at", "--ideal", fixture("twisted_cubic"), "--point", "1:1:0:0")
        assert err == "halphen: error: the point is not on the variety\n"


# The argument half of a CLI fuzz property: argv for every subcommand,
# drawn from valid values, negative ints, digit strings past the
# int-string limit, junk, fixture paths and missing or long paths.
# Valid degrees stay small, so every example answers in milliseconds.
JUNK = st.text(max_size=12) | st.builds(
    lambda c, n: c * n, st.characters(), st.integers(200, 100_000)
)
DIGITS = st.builds(
    lambda head, n: head + "9" * n, st.sampled_from("123456789"), st.integers(299, 5999)
)


def mostly(valid, *other):
    """valid in three draws of four, one of the others in the rest."""
    return st.sampled_from((valid,) * (3 * len(other)) + other).flatmap(lambda s: s)


def numbers(valid_max):
    return mostly(st.integers(0, valid_max).map(str), st.integers(-10**6, -1).map(str), DIGITS, JUNK)


FIXTURE_PATHS = st.sampled_from(sorted(str(p) for p in FIXTURES.glob("*.ideal")))
PATHS = mostly(FIXTURE_PATHS, st.just("no_such.ideal"), st.just("p" * 5000), JUNK)
POINTS = mostly(
    st.sampled_from(["1:0:0:0", "0:0:0:1", "0:0:1", "0:1:0", "1:0:1", "-1/2:0:1", "0:0:0"]), DIGITS, JUNK
)
POLYS = mostly(st.sampled_from(["x^2 + y^2 - z^2", "y^2*z - x^3", "x*y", "-x^3 + y^2*z"]), JUNK)
COMMANDS = ["hilbert", "invariants", "classify", "region", "smooth-at", "tangent"]


@st.composite
def cli_argv(draw):
    def opt(*argv):
        return list(argv) if draw(st.booleans()) else []

    command = draw(mostly(st.sampled_from(COMMANDS), JUNK))
    if command == "hilbert":
        formats = mostly(st.sampled_from(["csv", "json"]), JUNK)
        argv = ["--ideal", draw(PATHS), *opt("--max-degree", draw(numbers(12)))]
        argv += opt("--format", draw(formats))
    elif command == "invariants":
        argv = ["--ideal", draw(PATHS)]
    elif command == "classify":
        argv = [draw(numbers(60)), draw(numbers(60)), *opt("--json")]
    elif command == "region":
        formats = mostly(st.sampled_from(["csv", "svg"]), JUNK)
        argv = ["--dmax", draw(numbers(30)), *opt("--format", draw(formats))]
    elif command == "smooth-at":
        argv = ["--ideal", draw(PATHS), f"--point={draw(POINTS)}"]
    elif command == "tangent":
        argv = [f"--poly={draw(POLYS)}", f"--point={draw(POINTS)}"]
    else:
        argv = []
    # an argument no subcommand takes, in one draw of four
    extra = draw(mostly(st.just([]), JUNK.map(lambda j: [j])))
    return [command, *argv, *extra]


@settings(max_examples=100, derandomize=True)
@given(argv=cli_argv())
def test_every_argv_answers_or_refuses_briefly(argv):
    """Any exception but SystemExit fails the test with its traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue() and len(err.getvalue().encode()) <= 1000


def test_every_refusal_class_is_a_value_error():
    """main exits 1 on ValueError alone, so an exception class of the
    package that is not one would end a refusal in a traceback.  _Overflow
    never leaves groebner: _widening catches it and starts again."""
    import halphen

    found = []
    for info in pkgutil.iter_modules(halphen.__path__):
        module = importlib.import_module(f"halphen.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__ == module.__name__:
                found.append(obj)
    assert groebner.GroebnerBudgetExceeded in found and classifier.RegionBudgetExceeded in found
    strays = [cls for cls in found if not issubclass(cls, ValueError)]
    assert strays == [groebner._Overflow]


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
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), timeout=60
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.splitlines()[-1] == "[]"
