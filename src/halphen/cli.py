"""Command line interface.

Subcommands: hilbert, invariants, classify, region, smooth-at, tangent.
Exit codes: 0 success, 1 domain error (diagnostic on stderr), 2 usage.
All JSON output is exact: integers stay integers, rationals are "p/q"
strings, and repeated runs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

# Each subcommand imports the layers it runs, so `classify` and `region`
# never load the Groebner or rank paths.

SCHEMA_VERSION = 1


def _load_ideal(path: str):
    from .parsing import parse_ideal_file

    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    return parse_ideal_file(text, Path(path).stem)


def _rational(x: Fraction):
    return int(x) if x.denominator == 1 else str(x)


def _dump(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def _invariants_payload(spec) -> dict:
    from . import groebner, invariants

    data = groebner.hilbert_polynomial(spec)
    inv = invariants.invariants_of(data.polynomial)
    try:
        text = str(data.polynomial)
    except ValueError:  # an int over the interpreter's int-string limit
        limit = sys.get_int_max_str_digits()
        raise ValueError(
            f"a Hilbert polynomial coefficient is too long to print: over {limit} digits"
        ) from None
    payload = {
        "schema_version": SCHEMA_VERSION,
        "ideal": spec.label,
        "hilbert_polynomial": text,
        "stabilization_from": data.stabilizes_from,
        "dimension": inv.dimension,
        "degree": inv.degree,
    }
    if inv.genus is not None:
        payload["genus"] = inv.genus
    return payload


def _cmd_hilbert(args) -> int:
    from . import graded

    spec = _load_ideal(args.ideal)
    m_max = args.max_degree
    if m_max is None:
        from . import groebner

        data = groebner.hilbert_polynomial(spec)
        m_max = max(6, data.stabilizes_from + 2)
    table = graded.hilbert_function_table(spec, m_max)
    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "ideal": spec.label,
            "values": {str(m): h for m, h in sorted(table.values.items())},
        }
        sys.stdout.write(_dump(payload))
    else:
        sys.stdout.write("m,hilbert_function\n")
        for m, h in sorted(table.values.items()):
            sys.stdout.write(f"{m},{h}\n")
    return 0


def _cmd_invariants(args) -> int:
    spec = _load_ideal(args.ideal)
    sys.stdout.write(_dump(_invariants_payload(spec)))
    return 0


def _cmd_classify(args) -> int:
    from . import classifier

    v = classifier.classify(args.d, args.g)
    plane = classifier.plane_bound(v.d)
    castelnuovo = classifier.castelnuovo_bound(v.d)
    gp = classifier.gruson_peskine_bound(v.d)
    if args.json:
        payload = {
            "schema_version": SCHEMA_VERSION,
            **v._asdict(),
            "bounds": {
                "plane_bound": plane,
                "castelnuovo_bound": castelnuovo,
                "gruson_peskine_bound": _rational(gp),
            },
        }
        sys.stdout.write(_dump(payload))
    else:
        word = "exists" if v.exists_any else "does not exist"
        sys.stdout.write(
            f"a smooth curve of degree {v.d} and genus {v.g} in P^3 {word}\n"
            f"  plane curve:        {'yes' if v.exists_plane else 'no'}"
            f" (g = {plane} required)\n"
            f"  on a quadric:       {'yes' if v.exists_on_quadric else 'no'}"
            f" (Castelnuovo bound {castelnuovo})\n"
            f"  in the Gruson-Peskine range: {'yes' if v.exists_off_quadric else 'no'}"
            f" (Gruson-Peskine bound {gp})\n"
        )
    return 0


def _cmd_region(args) -> int:
    from . import classifier

    # one chunk per degree, written as it is made: memory stays flat in dmax
    sys.stdout.writelines(classifier.region_chunks(args.dmax, args.format))
    return 0


def _cmd_smooth_at(args) -> int:
    from . import geometry, groebner, invariants
    from .parsing import parse_point

    spec = _load_ideal(args.ideal)
    point = geometry.ProjectivePoint(parse_point(args.point))
    if not geometry.on_variety(spec, point):
        raise ValueError(f"point {point} is not on the variety of {args.ideal}")
    data = groebner.hilbert_polynomial(spec)
    inv = invariants.invariants_of(data.polynomial)
    codim = spec.n_vars - 1 - inv.dimension
    rank = geometry.jacobian_rank_at(spec, point)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "ideal": spec.label,
        "point": str(point),
        "on_variety": True,
        "dimension": inv.dimension,
        "codimension": codim,
        "jacobian_rank": rank,
        "smooth": rank == codim,
    }
    sys.stdout.write(_dump(payload))
    return 0


def _cmd_tangent(args) -> int:
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
    payload = {
        "schema_version": SCHEMA_VERSION,
        "point": str(point),
        "coefficients": [_rational(c) for c in line.coefficients],
        "line": f"{format_polynomial(form)} = 0",
    }
    sys.stdout.write(_dump(payload))
    return 0


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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


def _domain_errors() -> tuple[type[Exception], ...]:
    """The exceptions that exit 1 with their own message.  Called only
    once an exception arrives, so naming them loads no layer early."""
    from .classifier import RegionBudgetExceeded
    from .graded import RankBudgetExceeded
    from .groebner import GroebnerBudgetExceeded, GroebnerCheckFailed

    return (
        ValueError,
        GroebnerBudgetExceeded,
        GroebnerCheckFailed,
        RankBudgetExceeded,
        RegionBudgetExceeded,
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RecursionError:
        print("halphen: error: input too large: recursion limit exceeded", file=sys.stderr)
        return 1
    except MemoryError:
        print("halphen: error: input too large: out of memory", file=sys.stderr)
        return 1
    except _domain_errors() as exc:
        print(f"halphen: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
