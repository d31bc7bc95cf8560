"""Command line interface.

Subcommands: hilbert, invariants, classify, region, smooth-at, tangent.
Exit codes: 0 success, 1 domain error (diagnostic on stderr), 2 usage.
Subcommands return their output; `main` alone writes it, and maps every
refusal, a `ValueError` in every layer (budgets and self-checks too), and
a failed write of the output (a closed pipe, a full disk) to exit 1.  Any
other exception is a bug and keeps its traceback.
All JSON output is exact: integers stay integers, rationals are "p/q"
strings, and repeated runs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

from . import _decimal

# Each subcommand imports the layers it runs, so `classify` and `region`
# never load the Groebner or rank paths.

SCHEMA_VERSION = 1

# Longest refusal text, in characters, that stderr shows.  stderr writes a
# character in at most 6 bytes (a byte of argv that is not UTF-8 arrives
# as a lone surrogate, written as \udcxx), so with the usage line of exit
# 2 a refusal stays under 1 kB.
REFUSAL_LIMIT = 120


def _bounded(text: str) -> str:
    """A refusal as stderr shows it: cut after REFUSAL_LIMIT characters."""
    if len(text) <= REFUSAL_LIMIT:
        return text
    return f"{text[:REFUSAL_LIMIT]}... ({len(text)} characters)"


def _load_ideal(path: str):
    from .parsing import _quoted, parse_ideal_file

    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {_quoted(path)}: {exc.strerror}") from None
    return parse_ideal_file(text, Path(path).stem)


def _too_long(what: str) -> ValueError:
    """The refusal for a number over the interpreter's int-string limit."""
    limit = sys.get_int_max_str_digits()
    return ValueError(f"{what} is too long to print: over {limit} digits")


def _rational(x: Fraction):
    return int(x) if x.denominator == 1 else str(x)


def _dump(payload: dict) -> str:
    """The payload as JSON, its schema version first."""
    return json.dumps({"schema_version": SCHEMA_VERSION, **payload}, indent=2) + "\n"


def _invariants_payload(spec) -> dict:
    from . import groebner, invariants

    data = groebner.hilbert_polynomial(spec)
    inv = invariants.invariants_of(data.polynomial)
    try:
        text = str(data.polynomial)
    except ValueError:  # an int over the interpreter's int-string limit
        raise _too_long("a Hilbert polynomial coefficient") from None
    payload = {
        "ideal": spec.label,
        "hilbert_polynomial": text,
        "stabilization_from": data.stabilizes_from,
        "dimension": inv.dimension,
        "degree": inv.degree,
    }
    if inv.genus is not None:
        payload["genus"] = inv.genus
    return payload


class OracleMismatch(ValueError):
    """`hilbert` ran both oracles and a value of the rank path's table
    differs from the series path's expansion at the same degree."""


def _cross_check(values: dict[int, int], numerator) -> None:
    """Each H(m) of the table against the expansion of the Hilbert series
    sum_j h_j t^j / (1-t)^n: H(m) = sum over j <= m of h_j C(m - j + n - 1, n - 1)."""
    n, coeffs = numerator.n_vars, numerator.coeffs
    for m, h in values.items():
        series = sum(c * comb(m - j + n - 1, n - 1) for j, c in enumerate(coeffs[: m + 1]))
        if h != series:
            raise OracleMismatch(
                f"H({m}) is {_decimal(h)} by Macaulay rank "
                f"but {_decimal(series)} by the Hilbert series"
            )


def _cmd_hilbert(args) -> str:
    from . import graded

    spec = _load_ideal(args.ideal)
    m_max = args.max_degree
    data = None
    if m_max is None:
        from . import groebner

        data = groebner.hilbert_polynomial(spec)
        m_max = max(6, data.stabilizes_from + 2)
    table = graded.hilbert_function_table(spec, m_max).values
    if data is not None:
        _cross_check(table, data.numerator)
    values = sorted(table.items())
    if args.format == "json":
        return _dump({"ideal": spec.label, "values": {str(m): h for m, h in values}})
    return "m,hilbert_function\n" + "".join(f"{m},{h}\n" for m, h in values)


def _cmd_invariants(args) -> str:
    return _dump(_invariants_payload(_load_ideal(args.ideal)))


def _cmd_classify(args) -> str:
    from . import classifier

    v = classifier.classify(args.d, args.g)
    plane = classifier.plane_bound(v.d)
    castelnuovo = classifier.castelnuovo_bound(v.d)
    gp = classifier.gruson_peskine_bound(v.d)
    try:
        if args.json:
            bounds = {
                "plane_bound": plane,
                "castelnuovo_bound": castelnuovo,
                "gruson_peskine_bound": _rational(gp),
            }
            return _dump({**v._asdict(), "bounds": bounds})
        word = "exists" if v.exists_any else "does not exist"
        return (
            f"a smooth curve of degree {v.d} and genus {v.g} in P^3 {word}\n"
            f"  plane curve:        {'yes' if v.exists_plane else 'no'}"
            f" (g = {plane} required)\n"
            f"  on a quadric:       {'yes' if v.exists_on_quadric else 'no'}"
            f" (Castelnuovo bound {castelnuovo})\n"
            f"  in the Gruson-Peskine range: {'yes' if v.exists_off_quadric else 'no'}"
            f" (Gruson-Peskine bound {gp})\n"
        )
    except ValueError:  # a bound, about d^2/2, over the int-string limit
        raise _too_long("a bound") from None


def _cmd_region(args):
    from . import classifier

    # one chunk per run of the table, made as it is written
    return classifier.region_chunks(args.dmax, args.format)


def _cmd_smooth_at(args) -> str:
    from . import geometry, groebner, invariants
    from .parsing import parse_point

    spec = _load_ideal(args.ideal)
    point = geometry.ProjectivePoint(parse_point(args.point))
    # first: it refuses a point off the variety before any Buchberger work
    rank = geometry.jacobian_rank_at(spec, point)
    data = groebner.hilbert_polynomial(spec)
    inv = invariants.invariants_of(data.polynomial)
    codim = spec.n_vars - 1 - inv.dimension
    return _dump({
        "ideal": spec.label,
        "point": str(point),
        "on_variety": True,
        "dimension": inv.dimension,
        "codimension": codim,
        "jacobian_rank": rank,
        "smooth": rank == codim,
    })


def _cmd_tangent(args) -> str:
    from . import geometry
    from .parsing import ParseError, _ring_vars, parse_point, parse_polynomial
    from .poly import format_polynomial

    try:
        ring = _ring_vars(args.ring.split())
    except ParseError as exc:  # a flag has no line or column
        raise ValueError(f"--ring: {exc.message}") from None
    f = parse_polynomial(args.poly, ring)
    point = geometry.ProjectivePoint(parse_point(args.point))
    line = geometry.tangent_line(f, point)
    form = geometry.tangent_line_polynomial(line, ring)
    return _dump({
        "point": str(point),
        "coefficients": [_rational(c) for c in line.coefficients],
        "line": f"{format_polynomial(form)} = 0",
    })


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    # add_subparsers makes every subcommand's parser of this class too
    def error(self, message):
        super().error(_bounded(message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="halphen",
        description="Exact Hilbert functions and degree/genus classification "
        "for projective curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hilbert", help="Hilbert function table by exact rank")
    p.add_argument("--ideal", required=True, help="ideal file")
    p.add_argument("--max-degree", type=_nonnegative_int, default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_hilbert)

    p = sub.add_parser("invariants", help="Hilbert polynomial, dimension, degree, genus")
    p.add_argument("--ideal", required=True)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("classify", help="does a smooth curve of degree D, genus G exist in P^3")
    p.add_argument("d", type=int)
    p.add_argument("g", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("region", help="classification table for all d <= dmax")
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--format", choices=["csv", "svg"], default="csv")
    p.set_defaults(func=_cmd_region)

    p = sub.add_parser("smooth-at", help="Jacobian smoothness test at a rational point")
    p.add_argument("--ideal", required=True)
    p.add_argument(
        "--point", required=True, help='e.g. "1:0:0:0"; write --point=-1:0:0:1 when it starts with "-"'
    )
    p.set_defaults(func=_cmd_smooth_at)

    p = sub.add_parser("tangent", help="tangent line to a plane curve at a point")
    p.add_argument(
        "--poly", required=True, help='e.g. "y^2*z - x^3"; write --poly="-x^3 + ..." when it starts with "-"'
    )
    p.add_argument(
        "--point", required=True, help='e.g. "0:1:0"; write --point=-1:0:1 when it starts with "-"'
    )
    p.add_argument("--ring", default="x y z", help="space-separated variable names")
    p.set_defaults(func=_cmd_tangent)
    return parser


def _write(chunks) -> None:
    """Writes the chunks to stdout and flushes it, so that a write that
    fails, into a closed pipe or onto a full disk, is refused here."""
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except OSError as exc:
        # the interpreter flushes stdout again as it exits; what is left in
        # the buffer then goes to the null device instead of failing again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise ValueError(f"cannot write output: {exc.strerror}") from None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        output = args.func(args)
        # a str, or region's chunks, each written as it is made
        _write([output] if isinstance(output, str) else output)
    except RecursionError:
        print("halphen: error: input too large: recursion limit exceeded", file=sys.stderr)
        return 1
    except MemoryError:
        print("halphen: error: input too large: out of memory", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"halphen: error: {_bounded(str(exc))}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
