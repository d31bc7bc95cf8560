"""Seeded inputs, operations and closed-form answer checks for the four
benchmark workloads.

Every answer is checked against a formula computed here, never by the
code under test:

- a complete intersection of degrees d_1..d_k in P^3 has the Koszul
  Hilbert function H(m) = sum over subsets S of (-1)^|S| C(m - d_S + 3, 3);
- the rational normal curve rnc(n) in P^n has H(m) = P(m) = n*m + 1;
- a zero-dimensional ci(a, b, c) has P = abc;
- the (d, g) region for d <= dmax has sum_d ((d-1)(d-2)/2 + 1) rows;
- CLI JSON output validates against the repository's `schemas/`.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, factorial
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# An operation that takes longer than this counts as failed.
OP_LIMIT_S = 60.0

# Each workload's ROUND_S is the time of one round at reference host speed
# (see run.py) on the commit that defined the benchmark.  It only sizes a
# run: a run of --seconds S does round(S / ROUND_S) rounds, so that every
# run of a workload holds the same operations and the same sample count,
# whatever the host's speed at the time.

P3 = ("x", "y", "z", "w")
COEFF_RANGE = (-5, 5)


class WrongAnswer(Exception):
    """An output that disagrees with its closed form."""


@dataclass
class Op:
    """One benchmark operation.  `call` does the work that is timed;
    `check` raises on a wrong answer; `digest` gives the bytes whose
    sha256 lets two commits be compared output for output."""

    family: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    digest: Callable[[Any], bytes]
    # what the operation is given: ideal text, table size or command line
    input: str
    # name of the span around the whole call in a traced run
    span: str = "op"


def require(ok: bool, message: str) -> None:
    if not ok:
        raise WrongAnswer(message)


# -- closed forms -----------------------------------------------------------


def dim_graded(n_vars: int, k: int) -> int:
    """dim k[x_1..x_n]_k: C(k + n - 1, n - 1), and 0 in negative degree."""
    return comb(k + n_vars - 1, n_vars - 1) if k >= 0 else 0


def koszul_hilbert(degrees, m: int, n_vars: int = 4) -> int:
    """Hilbert function of a complete intersection, from its Koszul resolution."""
    return sum(
        (-1) ** r * dim_graded(n_vars, m - sum(s))
        for r in range(len(degrees) + 1)
        for s in combinations(degrees, r)
    )


def koszul_polynomial(degrees, m: int, n_vars: int = 4) -> Fraction:
    """Hilbert polynomial of a complete intersection: the Koszul sum with each
    binomial C(k + n - 1, n - 1) read as a polynomial in k."""

    def binomial_poly(k: int) -> Fraction:
        num = 1
        for i in range(1, n_vars):
            num *= k + i
        return Fraction(num, factorial(n_vars - 1))

    return sum(
        (-1) ** r * binomial_poly(m - sum(s))
        for r in range(len(degrees) + 1)
        for s in combinations(degrees, r)
    )


def ci_curve_genus(a: int, b: int) -> int:
    """Arithmetic genus of a complete intersection curve of type (a, b) in P^3."""
    return 1 + a * b * (a + b - 4) // 2


def region_rows(dmax: int) -> int:
    return sum((d - 1) * (d - 2) // 2 + 1 for d in range(1, dmax + 1))


def poly_value(coeffs, m: int) -> Fraction:
    """Value at m of a polynomial given by ascending coefficients."""
    return sum((Fraction(c) * m**i for i, c in enumerate(coeffs)), Fraction(0))


# -- ideal texts --------------------------------------------------------------


def _monomial_text(exponents, names) -> str:
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, exponents) if e)


def _exponents(n_vars: int, degree: int):
    # the benchmark's own enumeration, so that inputs stay the same whatever
    # the program does to its monomial order
    if n_vars == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in _exponents(n_vars - 1, degree - first):
            yield (first,) + rest


def random_form(rng: random.Random, degree: int, names=P3) -> str:
    """A dense form of the given degree with coefficients drawn from COEFF_RANGE."""
    terms = []
    for e in _exponents(len(names), degree):
        c = rng.randint(*COEFF_RANGE)
        if c:
            terms.append((c, _monomial_text(e, names)))
    if not terms:
        terms.append((1, _monomial_text((degree,) + (0,) * (len(names) - 1), names)))
    text = ""
    for c, mono in terms:
        sign = "-" if c < 0 else "+"
        body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
        text += f" {sign} {body}" if text else (f"-{body}" if c < 0 else body)
    return text


def ci_text(rng: random.Random, degrees) -> str:
    gens = "\n".join(random_form(rng, d) for d in degrees)
    return f"ring {' '.join(P3)}\n{gens}\n"


def rnc_text(n: int) -> str:
    """2x2 minors of [[x0 .. x(n-1)], [x1 .. xn]]: the rational normal curve in P^n."""
    names = [f"x{i}" for i in range(n + 1)]
    gens = [
        f"{names[i]}*{names[j + 1]} - {names[j]}*{names[i + 1]}"
        for i, j in combinations(range(n), 2)
    ]
    return f"ring {' '.join(names)}\n" + "\n".join(gens) + "\n"


def family_text(rng: random.Random, family) -> str:
    kind, arg = family
    return ci_text(rng, arg) if kind == "ci" else rnc_text(arg)


def family_name(family) -> str:
    kind, arg = family
    return f"ci({','.join(map(str, arg))})" if kind == "ci" else f"rnc({arg})"


def closed_hilbert(family) -> Callable[[int], int]:
    kind, arg = family
    if kind == "ci":
        return lambda m: koszul_hilbert(arg, m)
    return lambda m: arg * m + 1


def closed_polynomial(family) -> Callable[[int], Fraction]:
    kind, arg = family
    if kind == "ci":
        return lambda m: koszul_polynomial(arg, m)
    return lambda m: Fraction(arg * m + 1)


def closed_invariants(family) -> tuple:
    """(dimension, degree, genus) with genus None outside dimension 1."""
    kind, arg = family
    if kind == "rnc":
        return (1, arg, 0)
    if len(arg) == 2:
        return (1, arg[0] * arg[1], ci_curve_genus(*arg))
    return (0, arg[0] * arg[1] * arg[2], None)


# -- workloads ----------------------------------------------------------------


def round_rng(seed: int, workload: str, k) -> random.Random:
    # string seeds are hashed with sha512, so the stream does not depend on
    # PYTHONHASHSEED
    return random.Random(f"{seed}:{workload}:{k}")


class Series:
    """In-process: parse, Hilbert polynomial by Buchberger, invariants."""

    name = "series"
    FAMILIES = (
        [("ci", d) for d in [(2, 3), (3, 3), (3, 4), (4, 4), (4, 5)]]
        + [("ci", d) for d in [(2, 2, 2), (2, 2, 3), (3, 3, 3)]]
        + [("rnc", n) for n in range(4, 9)]
    )
    # Each family appears twice per round, and the five cheapest and rnc(7)
    # four times, so that a run of two rounds holds enough samples for a p75
    # tail, and its median falls on rnc(6) and its p75 on rnc(7), whose
    # inputs are the same for every seed, rather than between two random
    # complete intersections, whose cost moves with their coefficients by up
    # to 2x from one instance to the next.
    COPIES = 2
    DOUBLED = [("rnc", 4), ("rnc", 5), ("ci", (2, 3)), ("ci", (2, 2, 2)), ("rnc", 6), ("rnc", 7)]
    ROUND_S = 10.7

    def __init__(self, seed: int):
        self.seed = seed

    def op(self, family, text: str) -> Op:
        from halphen import groebner, invariants, parsing

        expect_p = closed_polynomial(family)
        expect_inv = closed_invariants(family)

        def call():
            spec = parsing.parse_ideal_file(text)
            data = groebner.hilbert_polynomial(spec)
            return data, invariants.invariants_of(data.polynomial)

        def check(out):
            data, inv = out
            for m in range(5):
                got = poly_value(data.polynomial.coeffs, m)
                require(got == expect_p(m), f"P({m}) = {got}, closed form {expect_p(m)}")
            got_inv = (inv.dimension, inv.degree, inv.genus)
            require(got_inv == expect_inv, f"invariants {got_inv}, closed form {expect_inv}")

        def digest(out):
            data, inv = out
            return json.dumps(
                [
                    [str(c) for c in data.polynomial.coeffs],
                    data.stabilizes_from,
                    list(data.numerator.coeffs),
                    [inv.dimension, inv.degree, inv.genus],
                ]
            ).encode()

        return Op(family_name(family), call, check, digest, text)

    def round_ops(self, k: int) -> list[Op]:
        rng = round_rng(self.seed, self.name, k)
        families = (self.FAMILIES + self.DOUBLED) * self.COPIES
        ops = [self.op(f, family_text(rng, f)) for f in families]
        rng.shuffle(ops)
        return ops

    def warmup_op(self) -> Op:
        return self.op(("rnc", 4), rnc_text(4))

    def coverage_ops(self) -> list[Op]:
        f = ("ci", (3, 4))
        return [self.op(f, family_text(round_rng(self.seed, self.name, "cover"), f))]


class Rank:
    """In-process: Hilbert function tables by Macaulay-matrix rank."""

    name = "rank"
    # (family, m_max) with m_max past stabilization; rnc pieces are tall
    # (most rows reduce to zero), ci pieces are nearly full rank.
    TABLES = [(("ci", (3, 4)), 10), (("ci", (4, 4)), 12), (("ci", (3, 3, 3)), 8)] + [
        (("rnc", n), m) for n in (5, 6, 7) for m in (5, 6)
    ]
    ROUND_S = 2.2

    def __init__(self, seed: int):
        self.seed = seed

    def op(self, family, text: str, m_max: int) -> Op:
        from halphen import graded, parsing

        spec = parsing.parse_ideal_file(text)
        expect = closed_hilbert(family)

        def call():
            return graded.hilbert_function_table(spec, m_max)

        def check(table):
            want = {m: expect(m) for m in range(m_max + 1)}
            require(dict(table.values) == want, f"table {dict(table.values)}, closed form {want}")

        def digest(table):
            return json.dumps(sorted(table.values.items())).encode()

        return Op(f"{family_name(family)}->{m_max}", call, check, digest, f"{text}m_max {m_max}")

    def round_ops(self, k: int) -> list[Op]:
        rng = round_rng(self.seed, self.name, k)
        ops = [self.op(f, family_text(rng, f), m) for f, m in self.TABLES]
        rng.shuffle(ops)
        return ops

    def warmup_op(self) -> Op:
        return self.op(("rnc", 5), rnc_text(5), 5)

    def coverage_ops(self) -> list[Op]:
        f = ("ci", (3, 4))
        return [self.op(f, family_text(round_rng(self.seed, self.name, "cover"), f), 10)]


class Region:
    """In-process: the (d, g) classification table as CSV or SVG."""

    name = "region"
    # Every round renders each dmax of a geometric grid of 19 sizes from 30
    # to 60, the formats alternating along the grid, plus an SVG at dmax 80,
    # the top of the range and the largest output, so that it sets the peak
    # memory of every run.  Cost grows about as dmax^3.3, so a grid even in
    # log-cost spreads the samples evenly; a grid reaching past 60 would not
    # fit the three rounds, 60 samples, that a run needs for a p75 tail in
    # its 24 seconds.  The seed sets
    # the order within each round; the sizes stay fixed, so that every seed
    # does the same work.
    GRID = (30, 31, 32, 34, 35, 36, 38, 39, 41, 42, 44, 46, 48, 49, 51, 53, 56, 58, 60)
    DMAX_TOP = 80
    FORMATS = ("csv", "svg")
    ROUND_S = 8.4

    def __init__(self, seed: int):
        self.seed = seed

    def op(self, fmt: str, dmax: int) -> Op:
        from halphen import classifier

        rows = region_rows(dmax)

        def call():
            render = classifier.region_csv if fmt == "csv" else classifier.region_svg
            return render(dmax)

        def check(out):
            require(out.endswith("\n"), "output does not end with a newline")
            got = out.count("\n") - 1 if fmt == "csv" else out.count("<circle ")
            require(got == rows, f"{got} rows for dmax {dmax}, closed form {rows}")

        return Op(fmt, call, check, str.encode, f"{fmt} {dmax}")

    def round_ops(self, k: int) -> list[Op]:
        ops = [self.op(self.FORMATS[i % 2], d) for i, d in enumerate(self.GRID)]
        ops.append(self.op("svg", self.DMAX_TOP))
        round_rng(self.seed, self.name, k).shuffle(ops)
        return ops

    def warmup_op(self) -> Op:
        return self.op("csv", 12)

    def coverage_ops(self) -> list[Op]:
        return [self.op("csv", 30), self.op("svg", 30)]


def run_child(argv: list[str], timeout: float = OP_LIMIT_S) -> subprocess.CompletedProcess:
    """Run a Python child from the repository root with `src` on PYTHONPATH."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, timeout=timeout
    )


class Cli:
    """Subprocess, one child at a time: README-style commands over fixtures/."""

    name = "cli"
    ROUND_S = 2.85

    def __init__(self, seed: int):
        import jsonschema

        self.seed = seed
        self.validators = {
            p.name.split("-v")[0]: jsonschema.Draft7Validator(json.loads(p.read_text()))
            for p in sorted((ROOT / "schemas").glob("*.schema.json"))
        }
        self.script = self._script()

    def _json(self, command: str, extra: Callable[[dict], None] | None = None):
        validator = self.validators[command]

        def check(stdout: str):
            payload = json.loads(stdout)
            errors = [e.message for e in validator.iter_errors(payload)]
            require(not errors, f"{command} JSON fails its schema: {errors}")
            if extra:
                extra(payload)

        return check

    def _script(self):
        def hilbert_csv(expect, m_max):
            def check(stdout: str):
                lines = stdout.splitlines()
                require(lines[0] == "m,hilbert_function", f"bad header {lines[0]!r}")
                want = [f"{m},{expect(m)}" for m in range(m_max + 1)]
                require(lines[1:] == want, f"table {lines[1:]}, closed form {want}")

            return check

        def hilbert_values(expect):
            def check(payload):
                got = {int(m): h for m, h in payload["values"].items()}
                want = {m: expect(m) for m in got}
                require(got == want and 0 in got, f"table {got}, closed form {want}")

            return check

        def invariants_are(dim, deg, genus):
            def check(payload):
                got = (payload["dimension"], payload["degree"], payload.get("genus"))
                require(got == (dim, deg, genus), f"invariants {got}, closed form {(dim, deg, genus)}")

            return check

        def smooth(payload):
            require(payload["smooth"] is True, "the twisted cubic is smooth at [1:0:0:0]")

        def tangent_x(payload):
            # grad(y^2 z - x^3 - x z^2) at (0:0:1) is (-1, 0, 0): the line x = 0
            c = payload["coefficients"]
            require(c[0] != 0 and c[1:] == [0, 0], f"tangent coefficients {c}, closed form x = 0")

        def echo(d, g):
            def check(payload):
                require((payload["d"], payload["g"]) == (d, g), "classify echoes the wrong pair")

            return check

        def exists_text(stdout: str):
            require(stdout.splitlines()[0].endswith(" exists"), "the canonical curve (6, 4) exists")

        def region_check(fmt):
            def check(stdout: str):
                got = stdout.count("\n") - 1 if fmt == "csv" else stdout.count("<circle ")
                require(got == region_rows(12), f"{got} rows, closed form {region_rows(12)}")

            return check

        twisted = ("rnc", 3)
        plane_quartic = lambda m: dim_graded(3, m) - dim_graded(3, m - 4)
        fx = "fixtures/"
        return [
            ("classify", ["6", "4"], exists_text),
            ("hilbert", ["--ideal", fx + "twisted_cubic.ideal", "--max-degree", "6"],
             hilbert_csv(closed_hilbert(twisted), 6)),
            ("hilbert", ["--ideal", fx + "two_quadrics.ideal", "--format", "json"],
             self._json("hilbert", hilbert_values(closed_hilbert(("ci", (2, 2)))))),
            ("hilbert", ["--ideal", fx + "plane_d4.ideal", "--max-degree", "8", "--format", "json"],
             self._json("hilbert", hilbert_values(plane_quartic))),
            ("invariants", ["--ideal", fx + "twisted_cubic.ideal"],
             self._json("invariants", invariants_are(1, 3, 0))),
            ("invariants", ["--ideal", fx + "two_quadrics.ideal"],
             self._json("invariants", invariants_are(1, 4, 1))),
            ("invariants", ["--ideal", fx + "curve_E.ideal"],
             self._json("invariants", invariants_are(1, 3, 1))),
            ("smooth-at", ["--ideal", fx + "twisted_cubic.ideal", "--point", "1:0:0:0"],
             self._json("smooth-at", smooth)),
            ("tangent", ["--poly", "y^2*z - x^3 - x*z^2", "--point", "0:0:1"],
             self._json("tangent", tangent_x)),
            ("classify", ["7", "5", "--json"], self._json("classify", echo(7, 5))),
            ("region", ["--dmax", "12"], region_check("csv")),
            ("region", ["--dmax", "12", "--format", "svg"], region_check("svg")),
        ]

    def op(self, command: str, args: list[str], check_stdout) -> Op:
        def call():
            return run_child(["-m", "halphen.cli", command, *args])

        def check(proc):
            require(proc.returncode == 0, f"exit {proc.returncode}: {proc.stderr.decode()[-300:]}")
            check_stdout(proc.stdout.decode())

        return Op(command, call, check, lambda proc: proc.stdout, " ".join([command, *args]),
                  span=f"cli.{command}")

    def round_ops(self, k: int) -> list[Op]:
        ops = [self.op(*line) for line in self.script]
        round_rng(self.seed, self.name, k).shuffle(ops)
        return ops

    def warmup_op(self) -> Op:
        return self.op(*self.script[0])

    def coverage_ops(self) -> list[Op]:
        seen, ops = set(), []
        for line in self.script:
            if line[0] not in seen:
                seen.add(line[0])
                ops.append(self.op(*line))
        return ops


WORKLOADS = {w.name: w for w in (Series, Rank, Cli, Region)}
